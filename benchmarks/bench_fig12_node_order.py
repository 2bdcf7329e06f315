"""Figure 12 / §A.8: StreamGVEX robustness to node arrival order.

Paper claims: (a) different node orders may change the higher-tier
patterns slightly, but the majority of important patterns persist;
(b) node order does not affect runtime materially. We run several
random shuffles of the same stream and assert pattern-set overlap and
runtime stability.

A second table times the two ``IncEVerify`` schedules on the same
stream: production builds each chunk's oracle from the host's slices,
the reference :func:`repro.reference.rebuild_everify` from the induced
prefix. Both must select the identical view at one full oracle refresh
per chunk.
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
    """Host slices vs induced prefix on one stream: identical view and
    refresh counts (one per chunk); both times are reported."""
    label = majority_label(mut)
    idx = label_group_indices(mut, label, limit=1)[0]
    graph = mut.db[idx]

    def run():
        out = {}
        for schedule in ("induced prefix", "host slices"):
            algo = StreamGvex(mut.model, bench_config(upper=6))
            with rebuild_everify() if schedule == "induced prefix" else nullcontext():
                algo.explain_graph_stream(graph, label, graph_index=idx)  # warm-up
                start = time.perf_counter()
                result = algo.explain_graph_stream(graph, label, graph_index=idx)
            out[schedule] = (result, time.perf_counter() - start)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            schedule,
            elapsed,
            result.oracle_stats.full_refreshes,
            result.subgraph.n_nodes if result.subgraph else 0,
        ]
        for schedule, (result, elapsed) in out.items()
    ]
    save_result(
        "fig12_inceverify",
        render_table(
            "Figure 12 (cont.): IncEVerify schedules on one MUT stream",
            ["schedule", "seconds", "full refreshes", "|V_S|"],
            rows,
        ),
    )

    reference, _ = out["induced prefix"]
    production, _ = out["host slices"]
    nodes = lambda r: None if r.subgraph is None else r.subgraph.nodes
    assert nodes(production) == nodes(reference)
    assert [p.key() for p in production.patterns] == [
        p.key() for p in reference.patterns
    ]
    assert len(reference.snapshots) > 1
    assert (
        production.oracle_stats.full_refreshes
        == reference.oracle_stats.full_refreshes
        == len(reference.snapshots)
    )
