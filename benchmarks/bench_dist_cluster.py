"""Wire-level cluster benchmark: throughput and re-dispatch.

Boots real coordinator/worker clusters (localhost HTTP, the actual
``repro.runtime.cluster`` wire path — see docs/distribution.md) and
measures the two distribution claims:

* **views/sec vs workers** — the same plan through
  ``DistributedExecutor`` with 1 and N workers, against the
  ``SerialExecutor`` baseline. Every arm's merged ``ViewSet`` must be
  bit-identical to serial (asserted, not sampled). Shard execution is
  CPU-bound, so wall-clock speedup needs real cores — ``cpu_count`` is
  recorded and the numbers are reported honestly either way; the
  in-process workers here also share one GIL, so this measures wire
  overhead more than it measures scale-out.
* **re-dispatch overhead** — the same job with and without a
  registered black-hole straggler (accepts TCP, never answers, never
  heartbeats): extra wall-clock paid for the heartbeat reaper to
  declare it dead and re-dispatch its shard, with the output still
  bit-identical.

Writes JSON (checked into ``results/BENCH_dist_cluster.json``)::

    PYTHONPATH=src python benchmarks/bench_dist_cluster.py \
        --out results/BENCH_dist_cluster.json

The slow CI lane runs these scenario functions at smoke scale
(``tests/test_bench_smoke.py``) and uploads a fresh JSON artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.config import GvexConfig
from repro.graphs.io import viewset_to_dict
from repro.runtime import SerialExecutor, build_plan
from repro.runtime.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    DistributedExecutor,
    wire,
)
from repro.runtime.cluster.transport import post_json

AUTH = "bench-secret"


def fingerprint(views) -> str:
    payload = json.dumps(viewset_to_dict(views), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def count_subgraphs(views) -> int:
    return sum(len(view.subgraphs) for view in views)


class _BlackHole:
    """Accepts TCP connections and never answers (a hung worker)."""

    def __init__(self) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self._held = []
        threading.Thread(target=self._accept_loop, daemon=True).start()

    @property
    def url(self) -> str:
        host, port = self.sock.getsockname()
        return f"http://{host}:{port}"

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self._held.append(conn)

    def close(self) -> None:
        try:
            self.sock.close()
        finally:
            for conn in self._held:
                try:
                    conn.close()
                except OSError:
                    pass


# ----------------------------------------------------------------------
# scenario: views/sec vs worker count
# ----------------------------------------------------------------------
def bench_workers(
    db,
    model,
    config: GvexConfig,
    *,
    workers: Sequence[int] = (1, 2),
    shard_size: Optional[int] = None,
) -> Dict[str, Any]:
    """One plan through serial and through live clusters of each size."""
    plan = build_plan(db, model, config, shard_size=shard_size)

    # untimed warm-up: first-touch lazy state (adjacency scratch, match
    # contexts, the plan cache) otherwise lands on whichever arm runs
    # first and skews the comparison
    SerialExecutor().run(plan)

    start = time.perf_counter()
    serial, serial_stats = SerialExecutor().run(plan)
    serial_seconds = time.perf_counter() - start
    reference = fingerprint(serial)
    n_views = count_subgraphs(serial)

    rows = []
    for n in workers:
        with ClusterCoordinator(auth_token=AUTH) as coord:
            booted = [
                ClusterWorker(
                    db, model, coord.url, auth_token=AUTH,
                    worker_id=f"bench-w{i}",
                ).start()
                for i in range(n)
            ]
            try:
                coord.wait_for_workers(n, timeout=30)
                start = time.perf_counter()
                views, stats = DistributedExecutor(coord).run(plan)
                seconds = time.perf_counter() - start
            finally:
                for w in booted:
                    w.close()
        assert fingerprint(views) == reference, (
            f"{n}-worker cluster output drifted from serial"
        )
        rows.append({
            "workers": n,
            "seconds": seconds,
            "views_per_sec": n_views / seconds if seconds else 0.0,
            "speedup_vs_serial": serial_seconds / seconds if seconds else 0.0,
            "shards": stats["shards"],
            "redispatched": stats["redispatched"],
            "inference_calls": stats["inference_calls"],
            "bit_identical_to_serial": True,
        })

    return {
        "serial_seconds": serial_seconds,
        "serial_views_per_sec": (
            n_views / serial_seconds if serial_seconds else 0.0
        ),
        "serial_inference_calls": serial_stats["inference_calls"],
        "total_views": n_views,
        "shards": len(plan.shards),
        "arms": rows,
    }


# ----------------------------------------------------------------------
# scenario: re-dispatch overhead
# ----------------------------------------------------------------------
def bench_redispatch(
    db, model, config: GvexConfig, *, heartbeat_timeout: float = 1.0
) -> Dict[str, Any]:
    """The same job, healthy vs with a registered silent straggler."""
    plan = build_plan(db, model, config, shard_size=2)
    serial, _ = SerialExecutor().run(plan)
    reference = fingerprint(serial)

    timings: Dict[str, Any] = {}
    for arm in ("healthy", "straggler"):
        hole = _BlackHole() if arm == "straggler" else None
        with ClusterCoordinator(
            auth_token=AUTH,
            heartbeat_timeout=heartbeat_timeout,
            request_timeout=300.0,
        ) as coord:
            if hole is not None:
                post_json(
                    f"{coord.url}/register",
                    wire.encode_register("straggler", hole.url),
                    token=AUTH,
                )
            with ClusterWorker(
                db, model, coord.url, auth_token=AUTH,
                worker_id="honest",
                heartbeat_interval=min(0.25, heartbeat_timeout / 4),
            ):
                coord.wait_for_workers(2 if hole else 1, timeout=30)
                start = time.perf_counter()
                views, stats = coord.run(plan)
                seconds = time.perf_counter() - start
        if hole is not None:
            hole.close()
        assert fingerprint(views) == reference, f"{arm} arm drifted"
        timings[arm] = {
            "seconds": seconds,
            "redispatched": stats["redispatched"],
            "shards": stats["shards"],
        }

    assert timings["straggler"]["redispatched"] >= 1, (
        "straggler never won (and lost) a shard"
    )
    return {
        **timings,
        "heartbeat_timeout": heartbeat_timeout,
        "overhead_seconds": (
            timings["straggler"]["seconds"] - timings["healthy"]["seconds"]
        ),
        "bit_identical_to_serial": True,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="mutagenicity")
    parser.add_argument("--scale", default="test")
    parser.add_argument("--workers", type=int, default=2,
                        help="largest cluster size for the scaling arm")
    parser.add_argument("--out", default="results/BENCH_dist_cluster.json")
    args = parser.parse_args(argv)

    import os

    from repro.datasets.zoo import get_trained

    trained = get_trained(args.dataset, scale=args.scale)
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)

    result = {
        "dataset": args.dataset,
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "note": (
            "localhost cluster: workers share the bench process's GIL, "
            "so the scaling arm measures wire/merge overhead rather than "
            "scale-out; every arm asserts bit-identity to SerialExecutor"
        ),
        "scenarios": {
            "workers": bench_workers(
                trained.db, trained.model, config,
                workers=tuple(range(1, args.workers + 1)),
            ),
            "redispatch": bench_redispatch(
                trained.db, trained.model, config
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
