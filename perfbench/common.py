"""Small helpers shared by the workloads: statistics, digests, patterns,
and the metric declarations of ``BENCHMARK.json``."""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

#: every workload's coverage bounds [b_l, u_l], and the second upper
#: bound the serve writer alternates with so each write changes views
BOUNDS = (0, 8)
ALT_BOUNDS = (0, 6)
#: share of serve reads that are fresh patterns sampled from the
#: database; the rest repeat the views' own patterns. A fresh pattern
#: brings matching work the index has not memoized yet.
FRESH_SHARE = 0.1

_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit of ``end_to_end`` or ``per_layer``, in file order."""
    bench = json.loads(_BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def result_metrics(kind: str, values: Mapping[str, float], *,
                   default: Any = None) -> Dict[str, Dict[str, Any]]:
    """Every declared metric of ``kind`` with its value and unit.

    A metric missing from ``values`` takes ``default``; without one, a
    missing metric is an error.
    """
    out = {}
    for name, unit in declared(kind).items():
        value = values.get(name, default)
        if value is None:
            raise KeyError(f"the run measured no {name}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB), less
    the speed kernel's heap, which the program does not use."""
    from perfbench import speed

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - speed.footprint_mb()


def views_digest(views) -> str:
    """sha256 of the canonical views wire form (the bit-identity contract)."""
    from repro.graphs.io import viewset_to_dict

    raw = json.dumps(viewset_to_dict(views), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode()).hexdigest()


def pattern_spec(graph) -> Dict[str, Any]:
    """The ``/query`` wire form of a pattern graph."""
    return {
        "node_types": [int(t) for t in graph.node_types],
        "edges": [[int(u), int(v), int(t)] for u, v, t in graph.edges()],
        "directed": bool(graph.directed),
    }


def view_pattern_specs(views) -> List[Dict[str, Any]]:
    """Every view pattern of a view set, as query specs (the hot set)."""
    return [pattern_spec(p.graph) for view in views for p in view.patterns]


def random_connected_pattern(db, rng: random.Random, size: int) -> Dict[str, Any]:
    """A connected induced subgraph of ``size`` nodes of a random graph."""
    for _ in range(10_000):
        graph = db[rng.randrange(len(db))]
        if graph.n_nodes < size:
            continue
        nodes = [rng.randrange(graph.n_nodes)]
        frontier = set(graph.all_neighbors(nodes[0]))
        while len(nodes) < size and frontier:
            v = rng.choice(sorted(frontier))
            nodes.append(v)
            frontier |= set(graph.all_neighbors(v))
            frontier -= set(nodes)
        if len(nodes) == size:
            sub, _ = graph.induced_subgraph(sorted(nodes))
            return pattern_spec(sub)
    raise ValueError(f"no connected {size}-node subgraph found in the database")


def query_mix(db, hot: Sequence[Dict[str, Any]], n: int,
              rng: random.Random) -> List[Dict[str, Any]]:
    """``n`` query patterns: a ``FRESH_SHARE`` of fresh connected
    patterns of 2-4 nodes (size drawn uniformly) sampled from the
    database, the rest drawn from ``hot``, the views' own patterns.
    Without a hot set every pattern is fresh.
    """
    return [
        random_connected_pattern(db, rng, rng.randint(2, 4))
        if not hot or rng.random() < FRESH_SHARE
        else hot[rng.randrange(len(hot))]
        for _ in range(n)
    ]
