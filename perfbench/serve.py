"""The serve workload: a live server process and a two-thread generator.

The server (``run.py --role server``) sets up one tenant, builds its
views, binds an :class:`~repro.api.ExplanationServer` with two queue
workers on a free port, and prints a ``ready`` line. It stops when its
standard input sees a line, then prints its peak memory and, when
traced, its per-layer metrics.

The generator (this process) runs two threads for ``--seconds``:

* an open-loop ``/query`` sender at a fixed rate. Each request is
  timed from the moment it was due, so a stall also delays the
  requests behind it; how late each send started is recorded too.
  The patterns are a seeded mix of hot view patterns and fresh
  connected 2-4 node patterns sampled from the database, at graph
  scope. Only a few dozen of those are distinct on these datasets, so
  their first-seen matching work lands early in the run.
* a closed-loop ``/explain`` writer alternating two ``u_l`` bounds, so
  every write changes the views and patches the warm index. It pauses
  ``THINK_SECONDS`` after each answer.

Afterwards the same explains run in this process: they give
``explain_s`` and the reference views every read and write is checked
against. Timings are rescaled to a reference machine speed
(:mod:`perfbench.speed`), in the process that measures them. The
latencies the generator sees are the per-layer ``loadgen.*`` metrics
of a traced run, and are printed with every run.
"""

from __future__ import annotations

import json
import random
import select
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from perfbench import env, layers, speed
from perfbench.common import (
    ALT_BOUNDS,
    BOUNDS,
    median,
    peak_rss_mb,
    percentile,
    query_mix,
    result_metrics,
    view_pattern_specs,
    views_digest,
)
from perfbench.workloads import (
    Ledger,
    PROBES,
    Workload,
    config_for,
    recorded_digest,
    run_child,
    set_up,
)

clock = time.perf_counter

#: explain queue workers in the server
WORKERS = 2
#: warm in-process explains per bound after the load phase
REFERENCE_EXPLAINS = 8
#: the writer's pause after each answer. Back-to-back explains kept the
#: server's interpreter lock busy all the time, and slow stretches of
#: the machine then pushed reads past capacity; at about half busy, the
#: read median sat on the edge between reads beside a write and reads
#: alone. About a quarter busy keeps it among the latter.
THINK_SECONDS = 2.5
#: matching.* are read-driven here, so they stay window totals
_SERVE_TOTALS = (
    "matching.iso_s",
    "matching.iso_calls",
    "matching.plan_builds",
    "matching.context_builds",
)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def _request(url: str, payload: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, Any]]:
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="GET" if payload is None else "POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, {"error": err.read().decode(errors="replace")}
    except (urllib.error.URLError, OSError) as err:
        return 0, {"error": str(err)}


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def start_server(svc):
    from repro.api import create_server

    server = create_server(svc, port=0, workers=WORKERS)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    status, _ = _request(f"{server.url}/health")
    if status != 200:
        raise RuntimeError(f"fresh server answered /health with {status}")
    return server, thread


def stop_server(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)


def serve_host(w: Workload, seed: int, tracer) -> None:
    """Body of ``run.py --role server``."""
    if tracer is not None:
        tracer.install()
    import repro.api  # noqa: F401

    sample = tracer is None  # keep the speed kernel out of traced spans
    svc, setup_raw, setup_s = speed.timed(lambda: set_up(w, seed), sample)
    views, cold_raw, cold_s = speed.timed(lambda: svc.explain(w.method), sample)
    (server, thread), start_raw, start_s = speed.timed(lambda: start_server(svc), sample)
    setup_s += cold_s + start_s
    if tracer is not None:
        from repro.matching.plan_cache import PLAN_CACHE

        setup_phase = tracer.summary()[0]
        tracer.reset()
        cache_before = PLAN_CACHE.stats()
    print(json.dumps({"ready": {
        "port": server.server_address[1], "setup_s": setup_s,
        "explain_cold_s": cold_s, "digest": views_digest(views),
        "raw": {"setup_s": setup_raw + cold_raw + start_raw, "explain_cold_s": cold_raw},
    }}), flush=True)
    sys.stdin.readline()
    final: Dict[str, Any] = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        aggregates, counters = tracer.summary()
        metrics = layers.explain_path(
            aggregates, counters,
            layers.plan_cache_delta(cache_before, PLAN_CACHE.stats()),
            totals=_SERVE_TOTALS,
        )
        metrics.update(layers.read_path(aggregates, svc.index.index_stats()["match_cache"]))
        metrics.update(layers.setup_path(setup_phase))
        final["layers"] = metrics
        tracer.write(env.TRACES / f"{w.name}-server.jsonl")
    stop_server(server, thread)
    print(json.dumps({"final": final}), flush=True)


class _ServerProcess:
    """The server child: started, read until ready, stopped and reaped."""

    def __init__(self, w: Workload, seed: int, traced: bool) -> None:
        env.STATE.mkdir(parents=True, exist_ok=True)
        self._err = open(env.STATE / "server.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(env.ROOT / "perfbench" / "run.py"),
             "--role", "server", "--workload", w.name, "--seed", str(seed),
             "--scale", w.scale, "--trace", "1" if traced else "0"],
            cwd=env.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._err, text=True,
        )

    def read(self, key: str, timeout: float) -> Dict[str, Any]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            message = json.loads(line)
            if key in message:
                return message[key]
        raise RuntimeError(f"server sent no {key!r} line (see {self._err.name})")

    def stop(self) -> Dict[str, Any]:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        return self.read("final", 60)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._err.close()


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
def _write_summary(views) -> List[Dict[str, Any]]:
    """What ``/explain`` answers for ``views`` (as the server builds it)."""
    return json.loads(json.dumps([
        {
            "label": view.label,
            "n_subgraphs": len(view.subgraphs),
            "n_patterns": len(view.patterns),
            "score": view.score,
            "compression": view.compression(),
        }
        for view in views
    ]))


def _read_answer(index, views, spec) -> Tuple[Any, Any]:
    """(matches, statistics) of a graph-scope ``/query`` on ``index``."""
    from repro.api import Q, pattern_from_spec

    pattern = Q.all(Q.pattern(pattern_from_spec(spec)))
    hits = index.select(pattern & Q.in_scope("graphs"))
    matches = [
        {"label": h.label, "graph_index": h.graph_index, "in_explanation": h.in_explanation}
        for h in hits
    ]
    stats = {str(label): index.count(pattern & Q.label(label)) for label in views.labels}
    return json.loads(json.dumps(matches)), json.loads(json.dumps(stats))


def run_serve(w: Workload, seed: int, seconds: float, tracer) -> Dict[str, Any]:
    from repro.api import ViewIndex
    from repro.graphs.io import viewset_from_dict

    ledger = Ledger()
    recorded = recorded_digest(w, seed)
    probes = [] if tracer is not None else [run_child("probe", w, seed) for _ in range(PROBES)]

    server = _ServerProcess(w, seed, traced=tracer is not None)
    try:
        ready = server.read("ready", 170)
        base = f"http://127.0.0.1:{ready['port']}"
        svc = set_up(w, seed)  # the generated inputs, for patterns and checks
        status, served = _request(f"{base}/views")
        ledger.check(status == 200, f"/views answered {status}")
        served_views = viewset_from_dict(served)
        hot = view_pattern_specs(served_views)
        rng = random.Random(seed)
        specs = query_mix(svc.db, hot, int(w.rate * seconds), rng)

        reads: List[Tuple[int, int, Dict[str, Any]]] = []
        read_latency: List[float] = []
        late: List[float] = []
        writes: List[Tuple[Tuple[int, int], int, Dict[str, Any]]] = []
        write_latency: List[float] = []
        begin = clock() + 0.05
        end = begin + seconds

        def sender() -> None:
            for i, spec in enumerate(specs):
                due = begin + i / w.rate
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                late.append(clock() - due)
                status, body = _request(f"{base}/query", {"pattern": spec, "scope": "graphs"})
                read_latency.append(clock() - due)
                reads.append((i, status, body))

        def writer() -> None:
            k = 0
            while clock() < end:
                bounds = ALT_BOUNDS if k % 2 == 0 else BOUNDS
                start = clock()
                status, body = _request(
                    f"{base}/explain",
                    {"method": w.method, "config": config_for(bounds).to_dict()},
                )
                write_latency.append(clock() - start)
                writes.append((bounds, status, body))
                k += 1
                time.sleep(max(0.0, min(THINK_SECONDS, end - clock())))

        threads = [threading.Thread(target=sender), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _, health = _request(f"{base}/health")
        status, final_views = _request(f"{base}/views")
        ledger.check(status == 200, f"final /views answered {status}")
        host = server.stop()
    finally:
        server.close()

    # reference explains in this process: explain_s and the expected views
    reference: Dict[Tuple[int, int], Any] = {}
    digests: Dict[Tuple[int, int], str] = {}
    #: rescaled explains at the workload's own bound, untraced and traced
    timings: Dict[bool, List[float]] = {False: [], True: []}
    raw_explains: List[float] = []
    svc.explain(w.method)  # cold in this process; not timed
    # a traced run alternates pairs: untraced (A, B), traced (A, B), ...
    for j in range(2 * REFERENCE_EXPLAINS + (2 if tracer is not None else 0)):
        bounds = BOUNDS if j % 2 == 0 else ALT_BOUNDS
        trace_this = tracer is not None and j % 4 >= 2
        if tracer is not None:
            (tracer.install if trace_this else tracer.uninstall)()
        views, raw, scaled = speed.timed(
            lambda: svc.explain(w.method, config=config_for(bounds)), tracer is None)
        if bounds == BOUNDS:
            timings[trace_this].append(scaled)
            if not trace_this:
                raw_explains.append(raw)
        digest = views_digest(views)
        ledger.check(digests.setdefault(bounds, digest) == digest,
                     "warm reference views differ between explains")
        reference[bounds] = views
    if tracer is not None:
        tracer.uninstall()

    # bit-identity: served views against this process and the record
    ledger.check(ready["digest"] == digests[BOUNDS], "served views differ from the reference")
    ledger.check(views_digest(served_views) == digests[BOUNDS], "/views differs from the reference")
    if recorded is not None:
        ledger.check(ready["digest"] == recorded, "served views differ from the recorded digest")
    for sample in probes:
        ledger.check(sample["digest"] == digests[BOUNDS], "probe views differ from the reference")
    if writes:
        last = writes[-1][0]
        ledger.check(views_digest(viewset_from_dict(final_views)) == digests[last],
                     "final /views differ from the last write's reference")
    summaries = {bounds: _write_summary(views) for bounds, views in reference.items()}
    for bounds, status, body in writes:
        ledger.check(status == 200 and body.get("views") == summaries[bounds],
                     f"/explain answered {status} or an unexpected summary")

    # every read equals a reference index over one of the two view sets
    indexes = {b: (ViewIndex(v, db=svc.db), v) for b, v in reference.items()}
    expected: Dict[str, List[Tuple[Any, Any]]] = {}
    for i, status, body in reads:
        key = json.dumps(specs[i], sort_keys=True)
        if key not in expected:
            expected[key] = [_read_answer(ix, v, specs[i]) for ix, v in indexes.values()]
        ok = status == 200 and any(
            body.get("matches") == m for m, _ in expected[key]
        ) and any(body.get("statistics") == s for _, s in expected[key])
        ledger.check(ok, f"/query answered {status} or an unexpected answer")

    if len(read_latency) < 1000:
        print(json.dumps({"note": f"loadgen.query_p99_ms rests on {len(read_latency)} reads; "
                          "p99 needs at least 1000"}), flush=True)
    queue = health.get("queue", {})
    loadgen = {
        "loadgen.query_p50_ms": percentile(read_latency, 50) * 1000,
        "loadgen.query_p99_ms": percentile(read_latency, 99) * 1000,
        "loadgen.write_p50_ms": percentile(write_latency, 50) * 1000,
    }
    if tracer is not None:
        metrics = dict(host["layers"])
        metrics.update(loadgen)
        metrics.update({
            "api.queue_wait_ms": queue.get("avg_wait_seconds", 0.0) * 1000,
            "api.queue_run_ms": queue.get("avg_run_seconds", 0.0) * 1000,
            "api.rejected": float(queue.get("rejected", 0)),
            "loadgen.late_p99_ms": percentile(late, 99) * 1000,
            "trace_overhead": median(timings[True]) / median(timings[False]),
            "error_rate": ledger.failed / ledger.attempted,
        })
        return {"ledger": ledger, "metrics": layers.complete(metrics)}

    fresh = probes + [ready]
    metrics = {
        "setup_s": median([p["setup_s"] for p in fresh]),
        "explain_s": median(timings[False]),
        "explain_cold_s": median([p["explain_cold_s"] for p in fresh]),
        "peak_rss_mb": host["peak_rss_mb"],
    }
    raw_median_s = {
        "setup_s": median([p["raw"]["setup_s"] for p in fresh]),
        "explain_s": median(raw_explains),
        "explain_cold_s": median([p["raw"]["explain_cold_s"] for p in fresh]),
    }
    return {
        "ledger": ledger,
        "metrics": result_metrics("end_to_end", metrics),
        "info": {
            **loadgen,
            "raw_median_s": raw_median_s,
            "rate_per_s": w.rate, "reads": len(reads), "writes": len(writes),
            "late_p99_ms": percentile(late, 99) * 1000 if late else 0.0,
            "queue": {k: queue.get(k) for k in ("completed", "failed", "rejected")},
        },
    }
