"""Ablation benches for DESIGN.md §3's deliberate choices.

Not figures from the paper, but sanity studies of the substitutions:
  * exact vs expected Jacobian influence (same fidelity shape);
  * verification modes (soft delivers the fidelity the figures need;
    none degrades Fidelity-; paper mode is literal but rarely feasible);
  * mined structured patterns vs singletons-only in Psum (structured
    patterns compress better without losing node coverage).
"""

from dataclasses import replace

import numpy as np

from benchmarks.harness import bench_config, label_group_indices, majority_label
from benchmarks.reporting import render_table, save_result
from repro.config import JACOBIAN_EXACT, JACOBIAN_EXPECTED, VERIFY_NONE, VERIFY_SOFT
from repro.core.approx import ApproxGvex
from repro.core.psum import summarize
from repro.explainers import ApproxGvexExplainer
from repro.metrics.conciseness import mean_compression
from repro.metrics.fidelity import fidelity_scores
from repro.mining.mdl import MinedPattern
from repro.graphs.pattern import Pattern

from conftest import SEED


def _fidelity_for(setup, config, label, indices):
    explainer = ApproxGvexExplainer(setup.model, config)
    expls = explainer.explain_database(
        setup.db, label=label, max_nodes=6, indices=indices
    )
    return fidelity_scores(setup.model, setup.db, expls)


def test_ablation_jacobian_mode(mut, benchmark):
    label = majority_label(mut)
    indices = label_group_indices(mut, label, limit=5)

    def run():
        rows = []
        for mode in (JACOBIAN_EXPECTED, JACOBIAN_EXACT):
            config = replace(bench_config(upper=6), jacobian=mode)
            plus, minus = _fidelity_for(mut, config, label, indices)
            rows.append([mode, plus, minus])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_jacobian",
        render_table(
            "Ablation: exact vs expected Jacobian (MUT)",
            ["mode", "Fidelity+", "Fidelity-"],
            rows,
        ),
    )
    # both modes must deliver the same qualitative result
    by_mode = {r[0]: (r[1], r[2]) for r in rows}
    assert abs(by_mode["exact"][0] - by_mode["expected"][0]) <= 0.4
    assert by_mode["exact"][1] <= 0.2 and by_mode["expected"][1] <= 0.2


def test_ablation_verification_mode(mut, benchmark):
    label = majority_label(mut)
    indices = label_group_indices(mut, label, limit=5)

    def run():
        rows = []
        for mode in (VERIFY_SOFT, VERIFY_NONE):
            config = replace(bench_config(upper=6), verification=mode)
            plus, minus = _fidelity_for(mut, config, label, indices)
            rows.append([mode, plus, minus])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_verification",
        render_table(
            "Ablation: verification modes (MUT)",
            ["mode", "Fidelity+", "Fidelity-"],
            rows,
        ),
    )
    by_mode = {r[0]: (r[1], r[2]) for r in rows}
    # verification-guided growth dominates the unguided objective on
    # consistency (Fidelity-)
    assert by_mode[VERIFY_SOFT][1] <= by_mode[VERIFY_NONE][1] + 0.05


def test_ablation_pattern_mining(mut, benchmark):
    """Structured mined patterns vs a singletons-only candidate pool."""
    label = majority_label(mut)
    indices = label_group_indices(mut, label, limit=6)
    config = bench_config(upper=6)

    def run():
        algo = ApproxGvex(mut.model, config, labels=[label])
        view = algo.explain_label_group(mut.db, label, indices)
        hosts = [s.subgraph for s in view.subgraphs]
        mined = summarize(hosts, config)
        types = {
            int(t) for g in hosts for t in g.node_types.tolist()
        }
        singleton_pool = [
            MinedPattern(Pattern.singleton(t), support=1, embeddings=1)
            for t in sorted(types)
        ]
        singles = summarize(hosts, config, candidates=singleton_pool)
        return mined, singles

    mined, singles = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["mined (PGen)", len(mined.patterns), mined.edge_loss,
         mined.covered_nodes, mined.total_nodes],
        ["singletons only", len(singles.patterns), singles.edge_loss,
         singles.covered_nodes, singles.total_nodes],
    ]
    save_result(
        "ablation_pattern_mining",
        render_table(
            "Ablation: Psum candidate pools (MUT)",
            ["pool", "#patterns", "edge loss", "covered", "total"],
            rows,
        ),
    )
    assert mined.node_coverage_complete
    assert singles.node_coverage_complete
    # structured patterns cover edges; singletons cannot cover any
    assert mined.edge_loss <= singles.edge_loss
    assert singles.edge_loss == 1.0 or singles.total_edges == 0


def test_ablation_sparse_influence_backend(benchmark):
    """§6.2's big-graph trick: sparse matmuls agree with dense Q^k and
    win on time for large sparse graphs."""
    import time

    from repro.gnn.propagation import normalized_adjacency, propagation_power
    from repro.gnn.sparse import sparse_expected_influence
    from repro.graphs.generators import barabasi_albert

    def run():
        rows = []
        for n in (100, 400, 800):
            g = barabasi_albert(n, 2, seed=0)
            t0 = time.perf_counter()
            dense = propagation_power(normalized_adjacency(g), 3)
            t_dense = time.perf_counter() - t0
            t0 = time.perf_counter()
            sparse = sparse_expected_influence(g, 3)
            t_sparse = time.perf_counter() - t0
            max_err = float(np.abs(dense - sparse).max())
            rows.append([n, t_dense, t_sparse, max_err])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_sparse_backend",
        render_table(
            "Ablation: dense vs sparse expected influence (BA graphs, k=3)",
            ["n", "dense s", "sparse s", "max |diff|"],
            rows,
        ),
    )
    for n, t_dense, t_sparse, err in rows:
        assert err < 1e-9
    # at the largest size, sparse should not be slower than ~dense
    assert rows[-1][2] <= rows[-1][1] * 2.0


def test_ablation_stream_batch_size(mut, benchmark):
    """StreamGVEX batch size: smaller batches refresh the oracle more
    often (more anytime points, more cost) without changing quality
    much."""
    import time

    from benchmarks.harness import label_group_indices, majority_label
    from repro.core.streaming import StreamGvex

    label = majority_label(mut)
    idx = label_group_indices(mut, label, limit=1)[0]
    graph = mut.db[idx]

    def run():
        rows = []
        for batch in (2, 4, 8):
            config = replace(bench_config(upper=6), stream_batch_size=batch)
            algo = StreamGvex(mut.model, config)
            t0 = time.perf_counter()
            result = algo.explain_graph_stream(graph, label, graph_index=idx)
            elapsed = time.perf_counter() - t0
            rows.append(
                [
                    batch,
                    elapsed,
                    len(result.snapshots),
                    result.subgraph.score if result.subgraph else 0.0,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_stream_batch",
        render_table(
            "Ablation: StreamGVEX batch size (MUT, one graph)",
            ["batch", "seconds", "#snapshots", "objective"],
            rows,
        ),
    )
    snapshots = [r[2] for r in rows]
    assert snapshots == sorted(snapshots, reverse=True)  # smaller batch, more points
    scores = [r[3] for r in rows]
    assert max(scores) <= 4 * max(min(scores), 1e-9) + 1e-9


def test_ablation_label_noise_robustness(benchmark):
    """GVEX keeps producing consistent explanations as label noise grows
    (the classifier degrades; explanations track its *predictions*)."""
    from repro.datasets import mutagenicity
    from repro.datasets.noise import with_label_noise
    from repro.gnn.model import GnnClassifier
    from repro.gnn.training import train_classifier

    def run():
        rows = []
        for noise in (0.0, 0.1, 0.2):
            db = with_label_noise(mutagenicity(n_graphs=24, seed=4), noise, seed=4)
            model = GnnClassifier(14, 2, hidden_dims=(16, 16), seed=0)
            model, _, metrics = train_classifier(
                db, model, seed=0, max_epochs=60, patience=15
            )
            from repro.core.approx import explain_database

            views = explain_database(db, model, bench_config(upper=5))
            subs = [s for v in views for s in v.subgraphs]
            consistent = (
                sum(1 for s in subs if s.consistent) / len(subs) if subs else 0.0
            )
            rows.append(
                [noise, metrics["train_accuracy"], len(subs), consistent]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_label_noise",
        render_table(
            "Ablation: label-noise robustness (MUT)",
            ["noise", "train acc", "#explanations", "consistent frac"],
            rows,
        ),
    )
    for noise, acc, n_subs, consistent in rows:
        assert n_subs > 0
        assert consistent >= 0.6
