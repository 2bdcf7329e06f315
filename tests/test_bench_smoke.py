"""Bench smoke tests (``-m slow`` CI lane).

Scaled-down versions of the Figure 9 efficiency claims that run inside
the regular test harness: the batched verifier must beat the serial
reference (substituted through :func:`repro.reference.serial_verifier`)
on forward-pass launches on a real explain workload, end-to-end,
without changing any output. The full sweeps live in ``benchmarks/``;
this lane exists so CI notices a perf-contract regression without
paying for the figure reproductions.
"""

import time
from contextlib import nullcontext

import pytest

from repro.config import GvexConfig
from repro.core.approx import ApproxGvex
from repro.reference import serial_verifier
from tests.conftest import explain_database_parallel
from tests.test_golden_views import view_set_fingerprint


@pytest.mark.slow
def test_batched_backend_fewer_calls_same_views(trained_model, mutagen_db):
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)
    runs = {}
    for serial in (True, False):
        algo = ApproxGvex(trained_model, config)
        with serial_verifier() if serial else nullcontext():
            start = time.perf_counter()
            views = algo.explain(mutagen_db)
            seconds = time.perf_counter() - start
        runs[serial] = (views, algo.total_inference_calls, seconds)

    serial_views, serial_calls, serial_s = runs[True]
    batched_views, batched_calls, batched_s = runs[False]
    # identical explanations...
    assert view_set_fingerprint(batched_views) == view_set_fingerprint(serial_views)
    # ...from strictly fewer forward-pass launches
    assert batched_calls < serial_calls
    # wall-clock is environment-noisy; just surface a gross regression
    assert batched_s <= serial_s * 1.5, (batched_s, serial_s)


def _load_runtime_bench():
    """Import benchmarks/bench_runtime_scaling.py by path (not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "bench_runtime_scaling.py"
    spec = importlib.util.spec_from_file_location("bench_runtime_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_runtime_scaling_bench_smoke(trained_model, mutagen_db):
    """The scaling bench's functions run end to end at smoke scale.

    Wall-clock speedups are runner-dependent (the fork-pool >=2x
    claim needs >=4 cores; see results/runtime_scaling.json), so the
    smoke lane asserts structure plus the scheduler-independent
    contract: identical labels at every worker count, and the warm
    patched index strictly beating the per-request rebuild.
    """
    import os

    bench = _load_runtime_bench()
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)

    workers = bench.bench_workers(
        mutagen_db, trained_model, config, workers=(1, 2)
    )
    assert [row["workers"] for row in workers] == [1, 2]
    assert workers[0]["speedup_vs_serial"] == 1.0
    assert all(row["labels"] == workers[0]["labels"] for row in workers)
    if (os.cpu_count() or 1) >= 4 and workers[0]["seconds"] >= 2.0:
        assert workers[1]["speedup_vs_serial"] >= 1.5

    shard_rows = bench.bench_shard_size(
        mutagen_db, trained_model, config, sizes=(1, None), processes=2
    )
    assert shard_rows[0]["shards"] >= shard_rows[1]["shards"]

    warm = bench.bench_warm_index(mutagen_db, trained_model, config, repeats=8)
    assert warm["speedup_x"] > 1.0
    assert warm["hits_per_cycle"] > 0


@pytest.mark.slow
def test_warm_index_beats_rebuild_5x(trained_model):
    """The serving claim: patched warm index >= 5x per-request rebuild.

    Run at a serving-representative explanation count (an 80-graph
    motif database, ~8.5x measured) where posting-list matching
    dominates per-request rebuild cost, mirroring the checked-in
    results/runtime_scaling.json numbers (10.8x on mutagenicity at
    bench scale).
    """
    from tests.conftest import make_mutagen_db

    bench = _load_runtime_bench()
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)
    db = make_mutagen_db(40, seed=7)  # trained_model generalizes: same generator
    warm = bench.bench_warm_index(db, trained_model, config, repeats=20)
    assert warm["speedup_x"] >= 5.0, warm


@pytest.mark.slow
def test_parallel_composes_with_batched_backend(trained_model, mutagen_db):
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)
    with serial_verifier():
        serial_views = ApproxGvex(trained_model, config).explain(mutagen_db)
    views, stats = explain_database_parallel(
        mutagen_db, trained_model, config, processes=2, return_stats=True
    )
    assert view_set_fingerprint(views) == view_set_fingerprint(serial_views)
    assert stats["inference_calls"] > 0


def _load_matching_bench():
    """Import benchmarks/bench_matching.py by path (not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "bench_matching.py"
    spec = importlib.util.spec_from_file_location("bench_matching", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_matching_fast_tier_5x_on_coverage_heavy():
    """The matching-tier claim (docs/matching.md): on the coverage-
    heavy serve case — Psum candidate coverage + C1 checks + db-tier
    containment probes, repeated per request — the production matcher
    (int-row VF2 + plan cache) is >= 5x the seed reference at steady
    state, with bit-identical answers (the pipeline asserts equality
    internally)."""
    bench = _load_matching_bench()
    case = bench.coverage_heavy_case("reddit_binary")
    assert case["speedup"] >= bench.MIN_SPEEDUP, case


def _load_serve_load_bench():
    """Import benchmarks/bench_serve_load.py by path (not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "bench_serve_load.py"
    spec = importlib.util.spec_from_file_location("bench_serve_load", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_serve_load_smoke_concurrency_2x(
    trained_model, mutagen_db, tmp_path
):
    """The serve-tier load harness at smoke scale, on any runner.

    The service-bound scenario's explains release the GIL (simulated
    backend), so the 4-worker arm must clear >= 2x the single-worker
    views/sec even on one core — this is the queueing-concurrency
    claim of results/BENCH_serve_load.json, asserted in CI. The
    measured scenario must stay bit-identical to serial, and the
    backpressure probe's counters must be exact. Writes the same JSON
    artifact shape as the full bench.
    """
    import json

    from repro.api import ExplanationService

    bench = _load_serve_load_bench()
    config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)

    def svc():
        return ExplanationService(
            db=mutagen_db, model=trained_model, config=config
        )

    service_bound = bench.scenario_service_bound(
        {f"sb-{i}": svc() for i in range(4)},
        workers=(1, 4),
        requests_per_client=3,
        delay=0.004,
    )
    assert service_bound["speedup_views_per_sec"] >= 2.0, service_bound
    for arm in service_bound["arms"]:
        assert arm["completed"] == arm["requests"]
        assert arm["errors"] == []
        assert arm["p99_ms"] >= arm["p50_ms"] > 0

    from tests.conftest import make_mutagen_db

    measured = bench.scenario_measured(
        {"alpha": svc(),
         "beta": ExplanationService(
             db=make_mutagen_db(12, seed=11),
             model=trained_model,
             config=config,
         )},
        workers=(1, 4),
        requests_per_client=1,
    )
    assert measured["bit_identical_to_serial"] is True, measured

    backpressure = bench.scenario_backpressure(
        {"bp-a": svc(), "bp-b": svc()}, burst=6, delay=0.02
    )
    assert backpressure["rejected"] >= 1
    assert backpressure["every_503_has_retry_after"] is True
    assert backpressure["drained_to_zero_depth"] is True
    assert backpressure["counters_exact"] is True

    out = tmp_path / "BENCH_serve_load.json"
    out.write_text(json.dumps({
        "scenarios": {
            "service_bound": service_bound,
            "measured": measured,
            "backpressure": backpressure,
        },
    }, indent=2))
    assert out.exists()


@pytest.mark.slow
def test_matching_bench_smoke(tmp_path):
    """The full matching bench runs end to end and writes its JSON."""
    bench = _load_matching_bench()
    out = tmp_path / "BENCH_matching.json"
    result = bench.run(out)
    assert out.exists()
    assert {row["dataset"] for row in result["coverage_heavy"]} == set(
        bench.DATASETS
    )
    per_matcher = {
        (row["dataset"], row["matcher"]): row["matches"]
        for row in result["matcher_throughput"]
    }
    for name in bench.DATASETS:  # identical enumeration either way
        assert (
            per_matcher[(name, "production")]
            == per_matcher[(name, "reference")]
        )


def _load_columnar_bench():
    """Import benchmarks/bench_columnar.py by path (not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "bench_columnar.py"
    spec = importlib.util.spec_from_file_location("bench_columnar", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_columnar_bench_smoke(tmp_path):
    """The columnar bench's perf contracts hold at smoke scale.

    The two acceptance bars from results/BENCH_columnar.json, re-run
    inside CI: the ad-hoc matcher (plan-cache mediated, the path
    ``find_isomorphisms`` actually takes) must be >= 1.0x the
    reference on every host <= 24 nodes, and the columnar context
    build must be >= 3x the legacy per-graph build on a full-scale
    label group. Parity is asserted inside the bench arms themselves.
    """
    bench = _load_columnar_bench()

    rows = bench.crossover_case(sizes=(8, 16, 24), reps=15)
    for row in rows:
        assert row["ad_hoc_speedup"] >= 1.0, row

    build = bench.context_build_case(
        "synthetic-smoke", bench.synthetic_label_group(n_graphs=32), rounds=3
    )
    assert build["speedup"] >= bench.MIN_BUILD_SPEEDUP, build

    forward = bench.stacked_forward_case("mutagenicity")
    assert forward["bit_identical"] is True
    assert forward["speedup"] > 0


def _load_dist_cluster_bench():
    """Import benchmarks/bench_dist_cluster.py by path (not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "bench_dist_cluster.py"
    spec = importlib.util.spec_from_file_location("bench_dist_cluster", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_dist_cluster_bench_smoke(trained_model, mutagen_db):
    """The cluster bench's scenarios run end to end at smoke scale.

    Boots real 1- and 2-worker localhost clusters plus the warm-boot
    and straggler arms. Wall-clock speedups are runner-dependent (the
    in-process workers share one GIL), so the lane asserts the
    scheduler-independent contracts the bench itself enforces:
    bit-identity to serial in every arm, zero plan builds after a
    snapshot-warmed boot, and >= 1 re-dispatched shard with no extra
    or lost shards under a straggler.
    """
    bench = _load_dist_cluster_bench()
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)

    scaling = bench.bench_workers(
        mutagen_db, trained_model, config, workers=(1, 2)
    )
    assert [row["workers"] for row in scaling["arms"]] == [1, 2]
    assert all(row["bit_identical_to_serial"] for row in scaling["arms"])
    assert all(
        row["inference_calls"] == scaling["serial_inference_calls"]
        for row in scaling["arms"]
    )

    warm = bench.bench_warm_boot(mutagen_db, trained_model, config)
    assert warm["cold"]["plan_builds_during_run"] > 0
    assert warm["warm"]["plan_builds_during_run"] == 0
    assert warm["warm"]["patterns_preloaded"] > 0

    redispatch = bench.bench_redispatch(mutagen_db, trained_model, config)
    assert redispatch["straggler"]["redispatched"] >= 1
    assert redispatch["straggler"]["shards"] == redispatch["healthy"]["shards"]


def _load_remainder_delta_bench():
    """Import benchmarks/bench_remainder_delta.py by path (not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "bench_remainder_delta.py"
    spec = importlib.util.spec_from_file_location("bench_remainder_delta", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_remainder_delta_bench_smoke(tmp_path):
    """The crossover ledger runs end to end on malnet-large frontiers.

    Every recorded frontier is bitwise equal on the delta and the full
    path (the bench raises otherwise) and the JSON carries its schema.
    One generous bar: the delta takes at most 0.8x the full forward's
    time over malnet-large frontiers (results/BENCH_remainder_delta.json:
    0.54).
    """
    import json

    bench = _load_remainder_delta_bench()
    out = tmp_path / "BENCH_remainder_delta.json"
    bench.run(out, sets=[("malnet", "large", "soft")], graphs={"soft": 6})
    data = json.loads(out.read_text())
    assert {"cpu_count", "commit", "repeats", "crossover", "sets", "skipped"} <= set(data)
    if data["skipped"]:
        pytest.skip("this BLAS rounds GEMM rows by block; the delta stays off")
    assert data["all_bitwise_equal"] is True
    assert data["repeats"] >= 5
    (ledger,) = data["sets"]
    assert ledger["frontiers"] > 0
    for row in ledger["frontier_rows"]:
        assert row["bitwise_equal"] is True
        assert {
            "rows", "frontier", "widest_fraction", "full_median_s",
            "full_iqr_s", "delta_median_s", "delta_iqr_s", "rule_takes_delta",
        } <= set(row)
    assert ledger["delta_over_full"] <= 0.8, ledger["delta_over_full"]
