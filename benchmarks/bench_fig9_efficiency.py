"""Figure 9: efficiency, scalability, parallelization, anytime behaviour.

Paper shapes reproduced (absolute seconds are CPU-bound and scaled down
per DESIGN.md §1):
  (a, b) AG/SG are 1-2 orders of magnitude faster than per-instance
         search baselines (SubgraphX's MCTS, GStarX's coalition
         sampling) on MUT and ENZ.
  (c)    AG/SG finish every dataset within budget; the heaviest
         baseline exceeds its (scaled) budget on the largest-graph
         dataset, mirroring the ">24h" entries.
  (d)    runtime grows ~linearly with the number of graphs (PCQ).
  (e)    multi-process AG gives a speedup on multi-core hosts.
  (f)    StreamGVEX runtime grows linearly with the batch fraction.
"""

import os
import time
from contextlib import nullcontext

import numpy as np

from benchmarks.harness import (
    bench_config,
    label_group_indices,
    majority_label,
    timed_explain,
)
from benchmarks.reporting import render_series, render_table, save_result
from repro.core.approx import explain_graph
from repro.core.streaming import StreamGvex
from repro.reference import serial_verifier
from repro.runtime import build_plan, run_plan
from repro.datasets.zoo import get_trained

from conftest import SCALE, SEED

METHODS = ("AG", "SG", "GE", "SX", "GX", "GCF")


def test_fig9ab_runtime_mut_enz(mut, enz, benchmark):
    """Baselines run at their *published* budgets here (SubgraphX: 20
    rollouts with large Monte-Carlo Shapley sampling; GStarX: 256
    coalition samples; GNNExplainer: 100 mask epochs) — the trimmed
    budgets used by the fidelity sweeps would hide the cost gap the
    paper reports."""
    from repro.explainers import (
        ApproxGvexExplainer,
        GnnExplainer,
        GStarX,
        StreamGvexExplainer,
        SubgraphX,
    )

    def paper_budget_explainers(setup):
        return {
            "AG": ApproxGvexExplainer(setup.model, bench_config(upper=6)),
            "SG": StreamGvexExplainer(setup.model, bench_config(upper=6)),
            "GE": GnnExplainer(setup.model, epochs=100, seed=SEED),
            "SX": SubgraphX(
                setup.model, rollouts=20, shapley_samples=64, seed=SEED
            ),
            "GX": GStarX(setup.model, coalition_samples=256, seed=SEED),
        }

    def collect():
        rows = []
        for name, setup in [("MUT", mut), ("ENZ", enz)]:
            label = majority_label(setup)
            indices = label_group_indices(setup, label, limit=5)
            for method, explainer in paper_budget_explainers(setup).items():
                start = time.perf_counter()
                for idx in indices:
                    explainer.explain_graph(
                        setup.db[idx], label=label, max_nodes=6, graph_index=idx
                    )
                rows.append([name, method, time.perf_counter() - start])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    text = render_table(
        "Figure 9(a,b): runtime per explainer (5 graphs, published budgets)",
        ["dataset", "method", "seconds"],
        rows,
    )
    save_result("fig9ab_runtime", text)

    for name in ("MUT", "ENZ"):
        times = {r[1]: r[2] for r in rows if r[0] == name}
        # GVEX's explain phase beats the per-instance search baselines
        assert min(times["AG"], times["SG"]) < max(times["SX"], times["GX"])


def test_fig9c_runtime_all_datasets(benchmark):
    def collect():
        rows = []
        for name in (
            "mutagenicity",
            "reddit_binary",
            "enzymes",
            "pcqm4m",
            "malnet",
        ):
            setup = get_trained(name, scale=SCALE, seed=SEED)
            # scaled stand-in for the paper's 24h budget
            budget = 30.0
            for method in ("AG", "SG", "SX"):
                run = timed_explain(
                    setup, method, upper=6, graphs=4, budget_seconds=budget
                )
                rows.append(
                    [name, method, run.seconds, str(run.timed_out), run.explanations]
                )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    text = render_table(
        "Figure 9(c): runtime across datasets (4 graphs, 30s budget)",
        ["dataset", "method", "seconds", "timed out", "explained"],
        rows,
    )
    save_result("fig9c_runtime_all", text)

    gvex_rows = [r for r in rows if r[1] in ("AG", "SG")]
    assert all(r[3] == "False" for r in gvex_rows), "GVEX must finish everywhere"


def test_fig9d_scalability_pcq(benchmark):
    def collect():
        counts = (16, 32, 64)
        ag_times, sg_times = [], []
        for count in counts:
            setup = get_trained("pcqm4m", scale=SCALE, seed=SEED)
            label = majority_label(setup)
            indices = label_group_indices(setup, label)
            # replicate indices to reach the target count
            reps = [indices[i % len(indices)] for i in range(count)]
            for times, method in ((ag_times, "AG"), (sg_times, "SG")):
                from benchmarks.harness import make_explainers

                explainer = make_explainers(setup, [method])[method]
                start = time.perf_counter()
                for idx in reps:
                    explainer.explain_graph(
                        setup.db[idx], label=label, max_nodes=6, graph_index=idx
                    )
                times.append(time.perf_counter() - start)
        return counts, ag_times, sg_times

    counts, ag_times, sg_times = benchmark.pedantic(collect, rounds=1, iterations=1)
    text = render_series(
        "Figure 9(d): scalability vs #graphs (PCQ)",
        "method \\ #graphs",
        list(counts),
        {"AG": ag_times, "SG": sg_times},
    )
    save_result("fig9d_scalability", text)

    # near-linear growth: doubling graphs should not much more than
    # double runtime (allow 3.5x for noise at small absolute times)
    for times in (ag_times, sg_times):
        assert times[2] <= 3.5 * 2 * max(times[1], 1e-6)
        assert times[1] <= 3.5 * 2 * max(times[0], 1e-6)


def test_fig9e_parallelization(mut, benchmark):
    def collect():
        timings = {}
        for procs in (1, 2):
            start = time.perf_counter()
            plan = build_plan(
                mut.db, mut.model, bench_config(upper=6), processes=procs
            )
            run_plan(plan, processes=procs)
            timings[procs] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = [[f"{p} process(es)", t] for p, t in sorted(timings.items())]
    save_result(
        "fig9e_parallel",
        render_table("Figure 9(e): parallel AG on MUT", ["setup", "seconds"], rows),
    )
    cores = os.cpu_count() or 1
    # the paper's ~2x speedup only emerges once per-graph work dominates
    # the pool's fork/IPC overhead; on the seconds-long test scale we
    # assert the speedup only when the serial run is long enough
    if cores >= 2 and timings[1] >= 2.0:
        assert timings[2] <= timings[1] * 1.2


def test_fig9g_verifier_backend(mal, benchmark):
    """Batched vs serial EVerify on MAL — the zoo's largest graphs.

    The two schedules are decision-identical (bit-identical
    probabilities), so this measures pure scheduling: the batched
    engine fills the memo cache frontier-at-a-time with stacked
    forward passes instead of one dense forward per candidate subset.
    The serial arm runs under :func:`repro.reference.serial_verifier`.
    """
    label = majority_label(mal)
    indices = label_group_indices(mal, label, limit=4)
    config = bench_config(upper=6)

    def collect():
        rows = []
        selections = {}
        for schedule in ("serial", "batched"):
            calls = 0
            nodes = []
            start = time.perf_counter()
            with serial_verifier() if schedule == "serial" else nullcontext():
                for idx in indices:
                    result = explain_graph(
                        mal.model, mal.db[idx], label, config, graph_index=idx
                    )
                    calls += result.inference_calls
                    nodes.append(
                        None if result.subgraph is None else result.subgraph.nodes
                    )
            seconds = time.perf_counter() - start
            selections[schedule] = nodes
            rows.append([schedule, seconds, calls])
        return rows, selections

    (rows, selections) = benchmark.pedantic(collect, rounds=1, iterations=1)
    save_result(
        "fig9g_verifier_backend",
        render_table(
            "Figure 9(g): EVerify schedule on MAL (4 graphs)",
            ["schedule", "seconds", "inference calls"],
            rows,
        ),
    )
    by_schedule = {r[0]: r for r in rows}
    # identical selections, fewer forward launches; the launch count is
    # the hard contract — wall-clock gets the same noise slack fig9e uses
    assert selections["batched"] == selections["serial"]
    assert by_schedule["batched"][2] < by_schedule["serial"][2]
    assert by_schedule["batched"][1] < by_schedule["serial"][1] * 1.2


def test_fig9f_anytime_streaming(pcq, benchmark):
    def collect():
        label = majority_label(pcq)
        indices = label_group_indices(pcq, label, limit=3)
        algo = StreamGvex(pcq.model, bench_config(upper=6))
        all_snapshots = []
        for idx in indices:
            result = algo.explain_graph_stream(
                pcq.db[idx], label, graph_index=idx
            )
            all_snapshots.append(result.snapshots)
        return all_snapshots

    all_snapshots = benchmark.pedantic(collect, rounds=1, iterations=1)
    # report the first stream's trajectory
    snaps = all_snapshots[0]
    text = render_series(
        "Figure 9(f): anytime StreamGVEX (PCQ, one stream)",
        "metric \\ fraction",
        [f"{s.fraction_seen:.2f}" for s in snaps],
        {
            "elapsed_s": [s.elapsed_seconds for s in snaps],
            "objective": [s.objective for s in snaps],
            "|V_S|": [s.selected_nodes for s in snaps],
        },
    )
    save_result("fig9f_anytime", text)

    for snaps in all_snapshots:
        elapsed = [s.elapsed_seconds for s in snaps]
        assert elapsed == sorted(elapsed)
        # anytime access: every snapshot carries a valid view state
        assert all(s.selected_nodes >= 0 for s in snaps)
        assert snaps[-1].fraction_seen == 1.0
