"""Per-layer metrics: the traced run's spans and counters, by layer.

Layer names are the program's modules; metric names and units come
from ``BENCHMARK.json``. Time (``*_s``) and count metrics of the
explain path are per explain: self seconds (or calls) divided by the
explains traced in the phase. The ``query.*`` metrics and, on the
serve workload, ``matching.*`` are totals over a fixed amount of read
and write work (fixed query and patch counts, or a fixed rate for a
fixed window).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from perfbench.common import percentile, result_metrics
from perfbench.trace import Aggregate

#: (metric, span name, field) read straight off the aggregates
_FROM_SPANS = (
    ("gnn.batch_s", "gnn.batch", "self_s"),
    ("gnn.batch_calls", "gnn.batch", "entries"),
    ("gnn.predict_db_s", "gnn.predict_db", "self_s"),
    ("verify.remainder_s", "verify.remainder", "self_s"),
    ("verify.extension_s", "verify.extension", "self_s"),
    ("verify.check_s", "verify.check", "self_s"),
    ("oracle.build_s", "oracle.build", "self_s"),
    ("oracle.gain_calls", "oracle.gain", "entries"),
    ("oracle.gain_s", "oracle.gain", "self_s"),
    ("approx.graph_s", "approx.graph", "self_s"),
    ("mining.incremental_s", "mining.incremental", "self_s"),
    ("mining.incremental_calls", "mining.incremental", "entries"),
    ("mining.mine_s", "mining.mine", "self_s"),
    ("mining.mine_calls", "mining.mine", "entries"),
    ("psum.summarize_s", "psum.summarize", "self_s"),
    ("psum.calls", "psum.summarize", "entries"),
    ("matching.iso_s", "matching.iso", "self_s"),
    ("matching.iso_calls", "matching.iso", "entries"),
    ("stream.graph_s", "stream.graph", "self_s"),
    ("runtime.plan_s", "runtime.plan", "self_s"),
    ("runtime.shards", "runtime.shards", "entries"),
    ("trace.unattributed_s", "api.explain", "self_s"),
)
_COUNTERS = (
    "gnn.rows_forwarded",
    "verify.remainder_subsets",
    "stream.full_refreshes",
    "stream.rows_recomputed",
)


def plan_cache_delta(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, float]:
    """``PLAN_CACHE.stats()`` movement over a phase."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "matching.plan_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "matching.plan_builds": float(after["plan_builds"] - before["plan_builds"]),
        "matching.context_builds": float(
            after["context_builds"] - before["context_builds"]
        ),
    }


def explain_path(
    aggregates: Mapping[str, Aggregate],
    counters: Mapping[str, float],
    plan_cache: Mapping[str, float],
    *,
    totals: Iterable[str] = (),
) -> Dict[str, float]:
    """Explain-path layer metrics of one traced phase, per explain.

    Metrics named in ``totals`` (and the plan-cache counts among them)
    stay phase totals instead.
    """
    totals = set(totals)
    explains = max(1, aggregates.get("api.explain", Aggregate()).entries)
    out: Dict[str, float] = {}
    for metric, span, attr in _FROM_SPANS:
        agg = aggregates.get(span)
        out[metric] = float(getattr(agg, attr)) if agg is not None else 0.0
    for key in _COUNTERS:
        out[key] = float(counters.get(key, 0.0))
    out.update(plan_cache)
    for prefix, span in (("approx.graph", "approx.graph"), ("stream.graph", "stream.graph")):
        agg = aggregates.get(span)
        out[f"{prefix}_p99_ms"] = (
            percentile(agg.durations, 99) * 1000 if agg and agg.durations else 0.0
        )
    for metric in list(out):
        if metric.endswith("_p99_ms") or metric == "matching.plan_hit_ratio":
            continue
        if metric not in totals:
            out[metric] /= explains
    return out


def attributed_s(aggregates: Mapping[str, Aggregate]) -> float:
    """Self seconds per explain that some layer below the explain owns."""
    explains = max(1, aggregates.get("api.explain", Aggregate()).entries)
    return sum(a.self_s for n, a in aggregates.items() if n != "api.explain") / explains


def read_path(aggregates: Mapping[str, Aggregate], match_cache: Optional[int]) -> Dict[str, float]:
    """Read- and write-path totals of one traced phase."""
    select = aggregates.get("query.select", Aggregate())
    return {
        "query.select_s": select.self_s,
        "query.select_calls": float(select.entries),
        "query.patch_s": aggregates.get("query.patch", Aggregate()).self_s,
        "query.match_cache": float(match_cache or 0),
    }


def setup_path(aggregates: Mapping[str, Aggregate]) -> Dict[str, float]:
    """Set-up layer times (one set-up per phase)."""
    load = aggregates.get("datasets.load", Aggregate())
    model = aggregates.get("datasets.model_load", Aggregate())
    return {"datasets.load_s": load.self_s, "datasets.model_load_s": model.self_s}


def complete(metrics: Mapping[str, float]) -> Dict[str, Dict[str, float]]:
    """Every per-layer metric with its unit; layers that did not run read 0."""
    return result_metrics("per_layer", metrics, default=0.0)
