"""Figure 12 / §A.8: StreamGVEX robustness to node arrival order.

Paper claims: (a) different node orders may change the higher-tier
patterns slightly, but the majority of important patterns persist;
(b) node order does not affect runtime materially. We run several
random shuffles of the same stream and assert pattern-set overlap and
runtime stability.

A second table contrasts the two ``IncEVerify`` schedules on the same
stream: the incremental engine must select the identical view while
issuing strictly fewer full oracle refreshes than the per-chunk
rebuild reference, run under :func:`repro.reference.rebuild_everify`
(§5's incremental maintenance, realized).
"""

import time
from contextlib import nullcontext

import numpy as np

from benchmarks.harness import bench_config, label_group_indices, majority_label
from benchmarks.reporting import render_table, save_result
from repro.core.streaming import StreamGvex
from repro.reference import rebuild_everify

from conftest import SEED

N_ORDERS = 4


def test_fig12_node_order_robustness(mut, benchmark):
    label = majority_label(mut)
    idx = label_group_indices(mut, label, limit=1)[0]
    graph = mut.db[idx]

    def run():
        algo = StreamGvex(mut.model, bench_config(upper=6))
        rng = np.random.default_rng(SEED)
        # discarded warm-up: first-touch costs (BLAS init, cache pages)
        # would otherwise be charged to whichever order runs first
        algo.explain_graph_stream(graph, label, graph_index=idx)
        outputs = []
        for i in range(N_ORDERS):
            order = (
                list(graph.nodes())
                if i == 0
                else list(rng.permutation(graph.n_nodes))
            )
            start = time.perf_counter()
            result = algo.explain_graph_stream(
                graph, label, graph_index=idx, order=order
            )
            elapsed = time.perf_counter() - start
            outputs.append((result, elapsed))
        return outputs

    outputs = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    key_sets = []
    times = []
    scores = []
    for i, (result, elapsed) in enumerate(outputs):
        keys = {p.key() for p in result.patterns}
        key_sets.append(keys)
        times.append(elapsed)
        scores.append(result.subgraph.score if result.subgraph else 0.0)
        rows.append(
            [
                f"order {i}",
                elapsed,
                len(result.patterns),
                result.subgraph.n_nodes if result.subgraph else 0,
                scores[-1],
            ]
        )
    save_result(
        "fig12_node_order",
        render_table(
            "Figure 12: StreamGVEX under different node orders (MUT)",
            ["order", "seconds", "#patterns", "|V_S|", "objective"],
            rows,
        ),
    )

    # (a) the majority of the *important* patterns persist across orders;
    # with only a handful of patterns per run the overlap coefficient
    # |A ∩ B| / min(|A|, |B|) is the right granularity
    base = key_sets[0]
    for other in key_sets[1:]:
        if base and other:
            overlap = len(base & other) / min(len(base), len(other))
            assert overlap >= 0.3, (base, other)

    # objectives stay within a constant factor (anytime guarantee)
    assert max(scores) <= 4 * max(min(scores), 1e-9) + 1e-9

    # (b) runtime is order-insensitive (generous 5x band for tiny runs)
    assert max(times) <= 5 * min(times) + 0.05


def test_fig12_inceverify_schedules(mut, benchmark):
    """Incremental vs rebuild IncEVerify on one stream: identical view,
    strictly fewer full oracle refreshes (and forward launches) per
    stream for the incremental engine."""
    label = majority_label(mut)
    idx = label_group_indices(mut, label, limit=1)[0]
    graph = mut.db[idx]

    def run():
        out = {}
        for schedule in ("rebuild", "incremental"):
            algo = StreamGvex(mut.model, bench_config(upper=6))
            with rebuild_everify() if schedule == "rebuild" else nullcontext():
                algo.explain_graph_stream(graph, label, graph_index=idx)  # warm-up
                start = time.perf_counter()
                result = algo.explain_graph_stream(graph, label, graph_index=idx)
            out[schedule] = (result, time.perf_counter() - start)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for schedule, (result, elapsed) in out.items():
        st = result.oracle_stats
        rows.append(
            [
                schedule,
                elapsed,
                st.oracle_forwards,
                st.incremental_updates,
                result.subgraph.n_nodes if result.subgraph else 0,
            ]
        )
    save_result(
        "fig12_inceverify",
        render_table(
            "Figure 12 (cont.): IncEVerify schedules on one MUT stream",
            ["schedule", "seconds", "full refreshes", "inc updates", "|V_S|"],
            rows,
        ),
    )

    rebuild, _ = out["rebuild"]
    incremental, _ = out["incremental"]
    nodes = lambda r: None if r.subgraph is None else r.subgraph.nodes
    assert nodes(incremental) == nodes(rebuild)
    assert [p.key() for p in incremental.patterns] == [
        p.key() for p in rebuild.patterns
    ]
    # the hard contract: >1 chunk means strictly fewer full refreshes
    assert len(rebuild.snapshots) > 1
    assert (
        incremental.oracle_stats.oracle_forwards
        < rebuild.oracle_stats.oracle_forwards
    )
    assert rebuild.oracle_stats.oracle_forwards == len(rebuild.snapshots)
