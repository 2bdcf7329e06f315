"""Runtime scaling: views/sec vs workers, shard size, and warm indexes.

Measures the three scheduling claims of the ``repro.runtime`` engine
(docs/runtime.md) on the MAL label groups — the zoo's largest graphs,
where per-task model setup dominates:

* **workers** — explanations/sec for the fork-pool executor at 1, 2,
  and 4 workers vs the serial reference (the paper's §6.2 ~2x claim;
  needs a multi-core runner to show);
* **shard size** — the same workload under explicit shard sizes,
  showing the geometry-derived default against degenerate tiny/huge
  shards (tiny = per-task IPC overhead, huge = idle workers);
* **warm index** — repeated serve-style explain+query cycles with a
  per-request ``ViewIndex`` rebuild vs ``patch_views`` on a warm
  replica index (content-defined match-cache keys make re-admitted
  identical views free; the ≥5x serving claim).

Writes JSON (checked into ``results/runtime_scaling.json``)::

    PYTHONPATH=src python benchmarks/bench_runtime_scaling.py \
        --out results/runtime_scaling.json

The slow CI lane drives the same functions at smoke scale
(``tests/test_bench_smoke.py``).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import GvexConfig
from repro.query import Q, ViewIndex
from repro.runtime import build_plan, run_plan


def bench_workers(
    db,
    model,
    config: GvexConfig,
    workers: Sequence[int] = (1, 2, 4),
) -> List[Dict]:
    """Explanations/sec per worker count (1 == SerialExecutor)."""
    rows = []
    for n in workers:
        plan = build_plan(db, model, config, processes=n)
        start = time.perf_counter()
        views = run_plan(plan, processes=n)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "workers": n,
                "tasks": plan.n_tasks,
                "shards": len(plan.shards),
                "seconds": round(elapsed, 4),
                "views_per_sec": round(plan.n_tasks / max(elapsed, 1e-9), 3),
                "labels": [str(l) for l in views.labels],
            }
        )
    base = rows[0]["views_per_sec"]
    for row in rows:
        row["speedup_vs_serial"] = round(row["views_per_sec"] / base, 3)
    return rows


def bench_shard_size(
    db,
    model,
    config: GvexConfig,
    sizes: Sequence[Optional[int]] = (1, 2, 4, None),
    processes: int = 2,
) -> List[Dict]:
    """Same workload under explicit shard sizes (None = geometry default)."""
    rows = []
    for size in sizes:
        plan = build_plan(
            db, model, config, processes=processes, shard_size=size
        )
        start = time.perf_counter()
        run_plan(plan, processes=processes)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "shard_size": size if size is not None else "auto",
                "shards": len(plan.shards),
                "seconds": round(elapsed, 4),
                "views_per_sec": round(plan.n_tasks / max(elapsed, 1e-9), 3),
            }
        )
    return rows


def bench_warm_index(db, model, config: GvexConfig, repeats: int = 10) -> Dict:
    """Per-request index rebuild vs warm patched replica index.

    Each repeat simulates one serve cycle: an explain produced a fresh
    (bit-identical) view set — modeled by a deep copy, so object
    identity cannot short-circuit either arm — and the paper's pattern
    queries run against it.

    The process-wide plan cache (docs/matching.md) keys by graph
    content, so a rebuilt index over deep-copied views would answer its
    posting builds from the shared memo and the rebuild arm would
    collapse toward the warm arm. Each rebuild therefore starts from a
    cleared ``PLAN_CACHE`` — that cross-request caching is benched by
    ``bench_matching.py``; this experiment isolates incremental posting
    maintenance vs rebuild.
    """
    from repro.graphs.pattern import Pattern
    from repro.matching.plan_cache import PLAN_CACHE

    views = run_plan(build_plan(db, model, config))
    # the serve mix: view patterns (eagerly indexed at build) plus
    # free-form analyst patterns (memoized per index) — singleton node
    # types and a 2-node edge pattern cut from an explanation
    patterns = [p for view in views for p in view.patterns][:6]
    types = sorted({int(t) for g in db.graphs for t in g.node_types})
    patterns += [Pattern.singleton(t) for t in types[:3]]
    for view in views:
        for sub in view.subgraphs:
            if sub.n_edges >= 1:
                u, v, _ = next(iter(sub.subgraph.edges()))
                patterns.append(Pattern.from_induced(sub.subgraph, [u, v]))
                break
    if not patterns:
        raise SystemExit("no patterns mined; enlarge the workload")

    def query_all(index: ViewIndex) -> int:
        return sum(len(index.select(Q.pattern(p))) for p in patterns)

    fresh_sets = [copy.deepcopy(views) for _ in range(repeats)]

    start = time.perf_counter()
    rebuild_hits = 0
    for vs in fresh_sets:
        PLAN_CACHE.clear()
        rebuild_hits += query_all(ViewIndex(vs, db=db))
    rebuild_s = time.perf_counter() - start

    warm = ViewIndex(views, db=db)
    query_all(warm)  # build the posting lists once
    fresh_sets = [copy.deepcopy(views) for _ in range(repeats)]
    start = time.perf_counter()
    warm_hits = 0
    for vs in fresh_sets:
        warm.patch_views(vs)
        warm_hits += query_all(warm)
    warm_s = time.perf_counter() - start

    assert warm_hits == rebuild_hits, "warm index must answer identically"
    return {
        "repeats": repeats,
        "patterns": len(patterns),
        "rebuild_seconds": round(rebuild_s, 4),
        "patched_seconds": round(warm_s, 4),
        "speedup_x": round(rebuild_s / max(warm_s, 1e-9), 2),
        "hits_per_cycle": rebuild_hits // max(repeats, 1),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="malnet")
    parser.add_argument("--scale", default="test")
    parser.add_argument(
        "--warm-dataset",
        default="mutagenicity",
        help="dataset for the warm-index serve simulation (a larger "
        "explanation set than MAL's, representative of a serving replica)",
    )
    parser.add_argument("--warm-scale", default="bench")
    parser.add_argument("--out", default="results/runtime_scaling.json")
    parser.add_argument("--upper", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)

    from repro.datasets.zoo import get_trained

    trained = get_trained(args.dataset, scale=args.scale)
    config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, args.upper)
    warm_trained = get_trained(args.warm_dataset, scale=args.warm_scale)

    result = {
        "dataset": args.dataset,
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "note": (
            "fork-pool speedups need a multi-core runner; the >=2x "
            "views/sec claim is for a 4-core machine (cpu_count>=4)"
        ),
        "workers": bench_workers(trained.db, trained.model, config),
        "shard_size": bench_shard_size(trained.db, trained.model, config),
        "warm_index": {
            "dataset": args.warm_dataset,
            "scale": args.warm_scale,
            **bench_warm_index(
                warm_trained.db, warm_trained.model, config,
                repeats=args.repeats,
            ),
        },
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
