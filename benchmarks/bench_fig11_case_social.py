"""Figure 11 case study: GNN-based social analysis (REDDIT-BINARY).

The paper shows three configuration scenarios: explaining only the
discussion class, only the Q&A class, or both. Discussion threads
yield star-like patterns; Q&A threads yield biclique-like patterns.
We reproduce the scenarios via per-label coverage configuration and
assert the structural signature of the recovered patterns: the
discussion view's patterns include a high-fanout (star-like) pattern,
and the two views' pattern sets differ.
"""

from benchmarks.harness import bench_config, label_group_indices
from benchmarks.reporting import render_table, save_result
from repro.core.approx import ApproxGvex
from repro.datasets.social import DISCUSSION, QA
from repro.mining.pgen import mine_patterns

from conftest import SEED


def _max_fanout(pattern) -> int:
    g = pattern.graph
    return max((g.degree(v) for v in g.nodes()), default=0)


def _describe(patterns):
    return [
        f"{p.n_nodes}n/{p.n_edges}e fanout={_max_fanout(p)}" for p in patterns
    ]


def test_fig11_social_case_study(red, benchmark):
    def run():
        config = bench_config(upper=9)
        scenarios = {}
        # scenario 1: user asks only about discussions; 2: only Q&A; 3: both
        for labels in ([DISCUSSION], [QA], [DISCUSSION, QA]):
            algo = ApproxGvex(red.model, config, labels=labels)
            views = algo.explain(red.db)
            scenarios[tuple(labels)] = views
        return scenarios

    scenarios = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for labels, views in scenarios.items():
        for view in views:
            rows.append(
                [
                    "+".join(str(l) for l in labels),
                    str(view.label),
                    len(view.subgraphs),
                    len(view.patterns),
                    "; ".join(_describe(view.patterns)[:4]),
                ]
            )
    text = render_table(
        "Figure 11: social configuration scenarios",
        ["scenario", "label", "#subgraphs", "#patterns", "patterns"],
        rows,
    )
    save_result("fig11_case_social", text)

    # scenario views exist per requested label only
    assert scenarios[(DISCUSSION,)].labels == [DISCUSSION]
    assert scenarios[(QA,)].labels == [QA]
    assert sorted(scenarios[(DISCUSSION, QA)].labels) == [DISCUSSION, QA]

    both = scenarios[(DISCUSSION, QA)]
    disc_patterns = both[DISCUSSION].patterns
    qa_patterns = both[QA].patterns
    assert disc_patterns and qa_patterns

    # The cover tier can legally satisfy node coverage with one generic
    # edge pattern (it minimizes the paper's edge-miss objective), so the
    # *salient* star/biclique signatures live in the mined PGen tier —
    # exactly what Fig. 11 renders. Mine the top-MDL patterns per class:
    disc_salient = [
        m.pattern
        for m in mine_patterns(
            [s.subgraph for s in both[DISCUSSION].subgraphs], max_size=5
        )[:5]
    ]
    qa_salient = [
        m.pattern
        for m in mine_patterns(
            [s.subgraph for s in both[QA].subgraphs], max_size=5
        )[:5]
    ]

    # star-like signature for discussions: a hub with >= 3 repliers
    assert max(_max_fanout(p) for p in disc_salient) >= 3
    # Q&A bicliques contain a 4-cycle (K_{2,2}); discussions' stars do not
    qa_has_cycle = any(
        p.n_edges >= p.n_nodes and p.n_nodes >= 4 for p in qa_salient
    )
    assert qa_has_cycle

    # the two classes are summarized by different salient pattern sets
    disc_keys = {p.key() for p in disc_salient}
    qa_keys = {p.key() for p in qa_salient}
    assert disc_keys != qa_keys
