"""Outside-in tracing: timing shims around each layer's public entry points.

The program carries no spans of its own, so the traced run wraps the
functions and methods where one layer calls into the next. A shim
records one span per call — name, start, end, parent, and the id of the
root span it belongs to — on a per-thread stack, in memory; the spans
are written out as JSON lines when the run ends. A layer's self time is
its spans' duration minus the part covered by child spans.

A function imported by name (``from repro.core.psum import summarize``)
is bound in every importing module, so :meth:`Tracer.install` replaces
it in each ``repro`` module that holds the original object, as well as
in the defining one. Methods are replaced on the class that defines
them. Functions that return generators are not wrapped: their work runs
in the caller's loop, outside any span.

Entry points hit tens of thousands of times per explain take a ``leaf``
shim: timed and added to the parent's child time, but no span is
stored. ``count`` shims only count calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SPAN = "span"
LEAF = "leaf"
COUNT = "count"


@dataclass
class Aggregate:
    """Per-name totals of one phase."""

    #: calls whose parent span has another name (entries into the layer)
    entries: int = 0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


class _ThreadState:
    def __init__(self) -> None:
        #: open spans: [span id, name, root id, start, child seconds]
        self.stack: List[list] = []
        self.aggregates: Dict[str, Aggregate] = {}
        self.counters: Dict[str, float] = {}


def _rows_forwarded(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    subsets = args[2] if len(args) > 2 else kwargs.get("node_subsets", ())
    shape = getattr(subsets, "shape", None)
    if shape is not None and len(shape) == 2:
        return {"gnn.rows_forwarded": float(shape[0] * shape[1])}
    return {"gnn.rows_forwarded": float(sum(len(s) for s in subsets))}


def _remainder_subsets(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"verify.remainder_subsets": float(result)}


def _stream_stats(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    stats = result.oracle_stats
    return {
        "stream.full_refreshes": float(stats.full_refreshes),
        "stream.rows_recomputed": float(stats.rows_recomputed),
    }


#: (span name, "module:qualname" targets, kind, result hook)
LAYERS: Sequence[Tuple[str, Sequence[str], str, Optional[Callable]]] = (
    ("gnn.batch", ["repro.gnn.model:GnnClassifier.predict_proba_batch"],
     SPAN, _rows_forwarded),
    ("gnn.predict_db", ["repro.gnn.model:GnnClassifier.predict_db",
                        "repro.gnn.model:GnnClassifier.predict_proba_db"],
     SPAN, None),
    ("verify.remainder", ["repro.core.verifiers:GnnVerifier.prefetch_remainders",
                          "repro.core.verifiers:BatchedGnnVerifier.prefetch_remainders"],
     SPAN, _remainder_subsets),
    ("verify.extension", ["repro.core.verifiers:GnnVerifier.prefetch_extensions",
                          "repro.core.verifiers:BatchedGnnVerifier.prefetch_extensions"],
     SPAN, None),
    ("verify.check", ["repro.core.verifiers:GnnVerifier.check"], SPAN, None),
    ("oracle.build", ["repro.core.explainability:ExplainabilityOracle.__init__",
                      "repro.core.explainability:ExplainabilityOracle.from_relations",
                      "repro.core.inc_everify:IncrementalEVerify.refresh"],
     SPAN, None),
    ("oracle.gain", ["repro.core.explainability:ExplainabilityOracle.gain"],
     LEAF, None),
    ("approx.graph", ["repro.core.approx:explain_graph"], SPAN, None),
    ("mining.incremental", ["repro.mining.pgen:mine_incremental"], SPAN, None),
    ("mining.mine", ["repro.mining.pgen:mine_patterns"], SPAN, None),
    ("psum.summarize", ["repro.core.psum:summarize"], SPAN, None),
    ("matching.iso", ["repro.matching.plan_cache:MatchPlanCache.coverage",
                      "repro.matching.plan_cache:MatchPlanCache.contains",
                      "repro.matching.plan_cache:MatchPlanCache.coverage_many",
                      "repro.matching.plan_cache:MatchPlanCache.contains_many",
                      "repro.matching.isomorphism:first_isomorphism",
                      "repro.matching.isomorphism:is_subgraph_isomorphic",
                      "repro.matching.isomorphism:are_isomorphic",
                      "repro.matching.coverage:match_coverage",
                      "repro.matching.coverage:pmatch",
                      "repro.matching.canonical:pattern_identity",
                      "repro.matching.canonical:deduplicate_patterns"],
     SPAN, None),
    ("stream.graph", ["repro.core.streaming:StreamGvex.explain_graph_stream"],
     SPAN, _stream_stats),
    ("runtime.plan", ["repro.runtime.plan:build_plan"], SPAN, None),
    ("runtime.shards", ["repro.runtime.executors:WorkerState.run_shard"],
     COUNT, None),
    ("query.select", ["repro.query.index:ViewIndex.select"], SPAN, None),
    ("query.patch", ["repro.query.index:ViewIndex.patched_copy"], SPAN, None),
    ("datasets.load", ["repro.datasets.registry:load_dataset"], SPAN, None),
    ("datasets.model_load", ["repro.gnn.model:GnnClassifier.load"], SPAN, None),
    ("api.explain", ["repro.api.service:ExplanationService.explain"], SPAN, None),
)

#: span names whose per-call durations are kept (for percentiles)
KEEP_DURATIONS = ("approx.graph", "stream.graph")


class Tracer:
    """Span recorder plus the patch table that feeds it.

    ``install()`` swaps the shims in and ``uninstall()`` puts the
    originals back, so traced and untraced work can alternate in one
    process. Aggregates live per thread and are merged on read.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _aggregate(self, state: _ThreadState, name: str) -> Aggregate:
        agg = state.aggregates.get(name)
        if agg is None:
            agg = state.aggregates[name] = Aggregate()
        return agg

    def _wrap(self, fn: Callable, name: str, kind: str,
              hook: Optional[Callable]) -> Callable:
        keep = name in KEEP_DURATIONS
        clock = time.perf_counter

        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._aggregate(self._state(), name).entries += 1
                return fn(*args, **kwargs)
            return counted

        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    state = self._state()
                    if state.stack:
                        state.stack[-1][4] += elapsed
                    agg = self._aggregate(state, name)
                    agg.entries += 1
                    agg.self_s += elapsed
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            root = parent[2] if parent is not None else span_id
            frame = [span_id, name, root, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[3]
                if parent is not None:
                    parent[4] += elapsed
                agg = self._aggregate(state, name)
                if parent is None or parent[1] != name:
                    agg.entries += 1
                agg.self_s += elapsed - frame[4]
                if keep:
                    agg.durations.append(elapsed)
                if hook is not None and result is not None:
                    for key, value in hook(args, kwargs, result).items():
                        state.counters[key] = state.counters.get(key, 0.0) + value
                if len(self.spans) < self.max_spans:
                    self.spans.append((
                        span_id, parent[0] if parent is not None else None,
                        root, name, frame[3], end,
                    ))
                else:
                    self.dropped += 1
        return span

    # -- patching ------------------------------------------------------
    def _targets(self) -> List[Tuple[Any, str, Any, Any]]:
        patches: List[Tuple[Any, str, Any, Any]] = []
        for name, targets, kind, hook in LAYERS:
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, name, kind, hook))
                    else:
                        wrapped = self._wrap(raw, name, kind, hook)
                    patches.append((owner, attr, raw, wrapped))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(original, name, kind, hook)
                for mod in list(sys.modules.values()):
                    if (
                        getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, "__dict__", {}).get(qualname) is original
                    ):
                        patches.append((mod, qualname, original, wrapped))
        return patches

    def install(self) -> None:
        if not self._patches:
            import repro.api  # noqa: F401 - binds every by-name import first
            import repro.runtime.executors  # noqa: F401

            self._patches = self._targets()
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in self._patches:
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def reset(self) -> None:
        """Start a new phase: clear aggregates and counters (not spans)."""
        with self._lock:
            for state in self._states:
                state.aggregates = {}
                state.counters = {}

    def summary(self) -> Tuple[Dict[str, Aggregate], Dict[str, float]]:
        """Aggregates and counters of the current phase, all threads merged."""
        merged: Dict[str, Aggregate] = {}
        counters: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, agg in list(state.aggregates.items()):
                out = merged.setdefault(name, Aggregate())
                out.entries += agg.entries
                out.self_s += agg.self_s
                out.durations.extend(agg.durations)
            for key, value in list(state.counters.items()):
                counters[key] = counters.get(key, 0.0) + value
        return merged, counters

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, root, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "root": root,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            if self.dropped:
                out.write(json.dumps({"dropped": self.dropped}) + "\n")
