"""Query engine: inverted occurrence index vs per-call isomorphism scans.

The acceptance bar for the query redesign: repeated pattern queries
through the precomputed inverted index must be >= 5x faster than the
legacy approach of scanning every explanation subgraph with a fresh
isomorphism test per call. The naive reference below reproduces the
seed implementation's work (no posting lists, no cross-call memo).
"""

from __future__ import annotations

import time

from benchmarks.conftest import SEED, trained
from benchmarks.harness import bench_config
from benchmarks.reporting import render_table, save_result
from repro.core.approx import explain_database
from repro.matching.isomorphism import is_subgraph_isomorphic
from repro.query import Q, ViewIndex

#: how many times each analyst pattern is re-queried
REPEATS = 25
MIN_SPEEDUP = 5.0


def naive_explanations_containing(views, pattern):
    """The seed behavior: one isomorphism scan over all subgraphs."""
    out = []
    for view in views:
        for sub in view.subgraphs:
            if is_subgraph_isomorphic(pattern, sub.subgraph):
                out.append((view.label, sub.graph_index, True))
    return out


def test_repeated_pattern_queries_speedup():
    setup = trained("mutagenicity")
    views = explain_database(setup.db, setup.model, bench_config(upper=6))
    patterns = [p for view in views for p in view.patterns]
    assert patterns, "need view patterns to query"

    # naive: every repeated query pays the full scan again
    start = time.perf_counter()
    for _ in range(REPEATS):
        for p in patterns:
            naive_explanations_containing(views, p)
    naive_s = time.perf_counter() - start

    # inverted index: posting lists are built once at index build time
    build_start = time.perf_counter()
    index = ViewIndex(views, db=setup.db)
    build_s = time.perf_counter() - build_start
    start = time.perf_counter()
    for _ in range(REPEATS):
        for p in patterns:
            index.explanations_containing(p)
    legacy_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(REPEATS):
        for p in patterns:
            index.select(Q.pattern(p))
    dsl_s = time.perf_counter() - start

    # identical answers, then the speed bar (index build amortized in)
    for p in patterns:
        naive = naive_explanations_containing(views, p)
        assert [
            (h.label, h.graph_index, h.in_explanation)
            for h in index.explanations_containing(p)
        ] == naive
        assert [
            (h.label, h.graph_index, h.in_explanation)
            for h in index.select(Q.pattern(p))
        ] == naive

    queries = REPEATS * len(patterns)
    speedup = naive_s / max(legacy_s + build_s, 1e-9)
    table = render_table(
        "Repeated pattern queries: naive scan vs inverted index",
        ["engine", "queries", "total_s", "per_query_ms"],
        [
            ["naive scan", queries, naive_s, 1000 * naive_s / queries],
            ["index build", 1, build_s, 1000 * build_s],
            ["inverted (legacy API)", queries, legacy_s, 1000 * legacy_s / queries],
            ["inverted (DSL select)", queries, dsl_s, 1000 * dsl_s / queries],
            ["speedup (incl. build)", "", speedup, ""],
        ],
    )
    save_result("query_index_speedup", table)
    print(table)
    assert speedup >= MIN_SPEEDUP, (
        f"inverted index only {speedup:.1f}x faster (incl. build) over "
        f"{queries} repeated queries; expected >= {MIN_SPEEDUP}x"
    )
