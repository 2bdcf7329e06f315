"""The explain workloads, the shared set-up, and the fresh-process probes.

A run of an explain workload, all in this process except the probes:

* The first explain here, and one in each of ``PROBES - 1`` fresh
  interpreters (probes), is what a CLI ``explain`` pays;
  ``explain_cold_s`` is the median of those.
* Warm explains run for ``--seconds``; ``explain_s`` is their median.
* ``SETUPS`` set-ups (a new service: dataset generation and model
  load), spread evenly over that window; ``setup_s`` is their median.

Every timing is rescaled to a reference machine speed
(:mod:`perfbench.speed`); the raw medians are printed beside them.
Every explain's views are checked against the reference digest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from perfbench import env, layers, speed
from perfbench.common import BOUNDS, median, peak_rss_mb, result_metrics, views_digest

clock = time.perf_counter

#: cold-explain samples per run: this process plus ``PROBES - 1`` probes
PROBES = 3
#: in-process set-ups per explain-workload run
SETUPS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: str
    method: str
    serve: bool = False
    #: open-loop /query rate (serve only), requests per second
    rate: float = 0.0

    def at_scale(self, scale: Optional[str]) -> "Workload":
        return self if scale is None else replace(self, scale=scale)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # why each workload exists: BENCHMARK.json and README.md
        Workload("explain-malnet-large", "malnet", "large", "gvex-approx"),
        Workload("stream-malnet-bench", "malnet", "bench", "stream"),
        Workload("serve-mutag-mix", "mutagenicity", "bench", "gvex-approx",
                 serve=True, rate=70.0),
    )
}


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)


# ----------------------------------------------------------------------
# models, set-up, digests
# ----------------------------------------------------------------------
def model_path(dataset: str):
    return env.MODELS / f"{dataset}.npz"


def train_models(workloads: List[Workload]) -> None:
    """Train each workload's classifier once into the benchmark's cache.

    Runs in its own process (see ``run.py --role train``) so training
    never shows in a measured process's memory or warm state. Models
    train on the dataset's test scale at seed 0 and serve every scale
    and seed of that dataset.
    """
    from repro.api import ExplanationService

    env.MODELS.mkdir(parents=True, exist_ok=True)
    for dataset in sorted({w.dataset for w in workloads}):
        path = model_path(dataset)
        if path.exists():
            continue
        tmp = path.with_name(f"{dataset}.{os.getpid()}.tmp.npz")
        ExplanationService(dataset, scale="test", seed=0).fit_or_load(tmp)
        tmp.replace(path)


def config_for(bounds: Tuple[int, int]):
    from repro.api import GvexConfig

    return GvexConfig().with_bounds(*bounds)


def set_up(w: Workload, seed: int):
    """The timed part of set-up: a service over generated data, model loaded."""
    from repro.api import ExplanationService

    svc = ExplanationService(w.dataset, scale=w.scale, seed=seed, config=config_for(BOUNDS))
    svc.db  # dataset generation is lazy; pay it here
    svc.fit_or_load(model_path(w.dataset))
    return svc


def recorded_digest(w: Workload, seed: int) -> Optional[str]:
    """The committed digest for this workload, when it applies to this run.

    Digests are recorded for seed 0 at full scale, and only bind runs
    whose float fingerprint (interpreter, numpy, BLAS, CPU features)
    equals the recording machine's.
    """
    path = env.ROOT / "perfbench" / "digests.json"
    if seed != 0 or not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("fingerprint") != env.fingerprint():
        return None
    return data.get("digests", {}).get(f"{w.name}@{w.scale}")


# ----------------------------------------------------------------------
# fresh-process probes
# ----------------------------------------------------------------------
def probe(w: Workload, seed: int) -> Dict[str, Any]:
    """Set-up and first explain in this (fresh) process."""
    import repro.api  # noqa: F401

    svc, setup_raw, setup_s = speed.timed(lambda: set_up(w, seed))
    views, cold_raw, cold_s = speed.timed(lambda: svc.explain(w.method))
    out = {"setup_s": setup_s, "explain_cold_s": cold_s, "digest": views_digest(views),
           "raw": {"setup_s": setup_raw, "explain_cold_s": cold_raw}}
    if w.serve:
        from perfbench.serve import start_server, stop_server

        (server, thread), start_raw, start_s = speed.timed(lambda: start_server(svc))
        out["setup_s"] += cold_s + start_s
        out["raw"]["setup_s"] += cold_raw + start_raw
        stop_server(server, thread)
    return out


def run_child(role: str, w: Workload, seed: int, timeout: float = 170.0) -> Dict[str, Any]:
    """Run ``run.py --role ROLE`` to completion; its last line is JSON."""
    cmd = [
        sys.executable, str(env.ROOT / "perfbench" / "run.py"),
        "--role", role, "--workload", w.name, "--seed", str(seed),
        "--scale", w.scale,
    ]
    proc = subprocess.run(
        cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the explain workloads
# ----------------------------------------------------------------------
def run_explain(w: Workload, seed: int, seconds: float, tracer) -> Dict[str, Any]:
    """One run of an explain workload; returns the result fields.

    This process is fresh, so its first explain is the first cold
    sample; its views are the digest reference.
    """
    ledger = Ledger()
    if tracer is not None:
        tracer.install()
    import repro.api  # noqa: F401

    svc = set_up(w, seed)
    setup_phase = tracer.summary()[0] if tracer is not None else {}
    views, cold_raw, cold_s = speed.timed(lambda: svc.explain(w.method))
    reference = views_digest(views)
    recorded = recorded_digest(w, seed)
    if recorded is not None:
        ledger.check(reference == recorded, "cold views differ from the recorded digest")
    if tracer is not None:
        return _traced(w, seconds, svc, reference, ledger, tracer, setup_phase)
    return _measured(w, seed, seconds, svc, reference, ledger, (cold_raw, cold_s))


def _measured(w, seed, seconds, svc, reference, ledger, cold) -> Dict[str, Any]:
    """End-to-end metrics.

    Set-ups and probes are spread evenly over the window of warm
    explains, so every metric samples the same stretch of machine time
    rather than one slice of it. The clock of the window stops while a
    probe runs (this process then only waits). Each sample is a pair
    (raw wall time, rescaled time).
    """
    explains: List[Tuple[float, float]] = []
    setups: List[Tuple[float, float]] = []
    colds: List[Tuple[float, float]] = [cold]
    begin = clock()
    paused = 0.0

    def keep_pace(done: float) -> None:
        """Catch set-ups and probes up to ``done`` of their totals."""
        nonlocal paused
        while len(setups) < SETUPS * done:
            _, raw, scaled = speed.timed(lambda: set_up(w, seed))
            setups.append((raw, scaled))
        while len(colds) < 1 + (PROBES - 1) * done:
            start = clock()
            sample = run_child("probe", w, seed)
            paused += clock() - start
            colds.append((sample["raw"]["explain_cold_s"], sample["explain_cold_s"]))
            ledger.check(sample["digest"] == reference, "probe views differ from this run's")

    while clock() - begin - paused < seconds or len(explains) < 3:
        views, raw, scaled = speed.timed(lambda: svc.explain(w.method))
        explains.append((raw, scaled))
        ledger.check(views_digest(views) == reference, "warm views differ from the cold views")
        keep_pace(min(1.0, (clock() - begin - paused) / seconds))
    keep_pace(1.0)

    samples = {"setup_s": setups, "explain_s": explains, "explain_cold_s": colds}
    metrics = {name: median([s for _, s in pairs]) for name, pairs in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "ledger": ledger,
        "metrics": result_metrics("end_to_end", metrics),
        "info": {
            "raw_median_s": {name: median([r for r, _ in pairs])
                             for name, pairs in samples.items()},
            "samples": {name: len(pairs) for name, pairs in samples.items()},
        },
    }


def _traced(w, seconds, svc, reference, ledger, tracer, setup_phase):
    """Per-layer metrics of warm explains.

    Warm explains alternate untraced and traced for ``seconds``;
    ``trace_overhead`` compares the rescaled medians of each. Layer
    times are raw wall time. The speed kernel runs only before and
    after each explain here, never inside a span.
    """
    from repro.matching.plan_cache import PLAN_CACHE

    untraced: List[float] = []
    traced: List[float] = []
    traced_raw: List[float] = []
    cache_before = PLAN_CACHE.stats()
    tracer.reset()
    deadline = clock() + seconds
    while clock() < deadline or len(traced) < 2:
        trace_this = len(untraced) > len(traced)
        (tracer.install if trace_this else tracer.uninstall)()
        views, raw, scaled = speed.timed(lambda: svc.explain(w.method), sample=False)
        (traced if trace_this else untraced).append(scaled)
        if trace_this:
            traced_raw.append(raw)
        ledger.check(views_digest(views) == reference, "warm views differ from the cold views")
    tracer.uninstall()
    aggregates, counters = tracer.summary()
    metrics = layers.explain_path(
        aggregates, counters, layers.plan_cache_delta(cache_before, PLAN_CACHE.stats()),
    )
    metrics.update(layers.setup_path(setup_phase))
    metrics["trace_overhead"] = median(traced) / median(untraced)
    metrics["error_rate"] = ledger.failed / ledger.attempted
    info = {
        "explain_s_untraced": median(untraced),
        "explain_s_traced": median(traced),
        "explain_s_traced_raw_mean": sum(traced_raw) / len(traced_raw),
        "layers_self_s_per_explain": layers.attributed_s(aggregates),
        "unattributed_s_per_explain": metrics["trace.unattributed_s"],
    }
    return {"ledger": ledger, "metrics": layers.complete(metrics), "info": info}
