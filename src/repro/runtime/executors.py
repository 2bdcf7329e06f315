"""Executors: the one way explanation work is scheduled.

Every entry point — :class:`~repro.api.service.ExplanationService`,
``repro.cli explain``, the bench harness, ``repro.cli serve`` — builds
an :class:`~repro.runtime.plan.ExplainPlan` and hands it to the
executor of one scheduling mechanism:

* :class:`SerialExecutor` — runs the plan's shards in-process, in
  order. The reference for the parity contract.
* :class:`ForkPoolExecutor` — forks a worker pool; each worker holds an
  explicit :class:`WorkerState` (model, config, database, built
  explainer) initialized once, and drains whole shards as in-process
  loops, so the state — including the batched verifier's stacked
  scratch — stays warm across a shard's tasks.
* :class:`~repro.runtime.cluster.DistributedExecutor` — ships the
  shards to remote workers over HTTP (``repro.runtime.cluster``).

Each explains shards with a warm :class:`WorkerState` and hands the
subgraphs to the one Psum tail,
:func:`~repro.runtime.plan.assemble_views`, once per label group, in
the parent. This shard loop is the only view-generation driver: every
method and coverage scope runs through it, and the
``ApproxGvex``/``StreamGvex`` facades of ``repro.core`` run it
serially. All three executors produce **bit-identical** view sets for
deterministic methods (``tests/test_runtime.py`` asserts this across
the dataset zoo); they differ only in scheduling.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import SCOPE_PER_GROUP, GvexConfig
from repro.exceptions import WorkerCrashError
from repro.core.approx import explain_graph
from repro.core.streaming import StreamGvex
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.view import ExplanationSubgraph, ViewSet
from repro.mining.classes import SubsetClassifier
from repro.runtime.plan import (
    APPROX_METHOD, STREAM_METHOD, ExplainPlan, Shard, assemble_views,
)

#: (graph index, label, explanation or None, inference calls)
TaskResult = Tuple[int, int, Optional[ExplanationSubgraph], int]


@dataclass
class WorkerState:
    """Everything one worker keeps warm while draining shards.

    Replaces ``repro.core.parallel``'s module-level worker globals with
    an explicit object: the (copy-on-write-shared) model weights, the
    config, the database, and — for registry methods other than the
    two GVEX kernels — the explainer, built exactly once per worker.
    Every graph of every shard shares ``classifier`` (classes are
    content-defined and rank nothing, so no view changes); it is not
    thread-safe, and a state runs one shard at a time.
    """

    model: GnnClassifier
    config: GvexConfig
    db: GraphDatabase
    method: str = APPROX_METHOD
    seed: int = 0
    explainer_kwargs: Mapping = field(default_factory=dict)
    classifier: SubsetClassifier = field(
        default_factory=SubsetClassifier, repr=False
    )
    _explainer: Optional[object] = field(default=None, repr=False)

    @classmethod
    def from_plan(cls, plan: ExplainPlan) -> "WorkerState":
        return cls(
            model=plan.model,
            config=plan.config,
            db=plan.db,
            method=plan.method,
            seed=plan.seed,
            explainer_kwargs=dict(plan.explainer_kwargs),
        )

    @property
    def explainer(self):
        """The built explainer (baseline methods), cached per worker."""
        if self.method in (APPROX_METHOD, STREAM_METHOD):
            return None
        if self._explainer is None:
            from repro.api.registry import build_explainer

            self._explainer = build_explainer(
                self.method,
                self.model,
                config=self.config,
                seed=self.seed,
                **dict(self.explainer_kwargs),
            )
        return self._explainer

    # ------------------------------------------------------------------
    def run_shard(self, shard: Shard) -> List[TaskResult]:
        """Explain every task of one shard as a single warm loop.

        Returns one result per task, in index order; a task without an
        explanation carries ``None``.
        """
        if self.method == APPROX_METHOD:
            return self._run_approx(shard)
        if self.method == STREAM_METHOD:
            return self._run_stream(shard)
        out: List[TaskResult] = []
        explainer = self.explainer
        upper = self.config.coverage_for(shard.label).upper
        for index in shard.indices:
            subgraph = explainer.explain_graph(
                self.db[index],
                label=shard.label,
                max_nodes=upper or None,
                graph_index=index,
            )
            out.append((index, shard.label, subgraph, 0))
        return out

    def _run_approx(self, shard: Shard) -> List[TaskResult]:
        """ApproxGVEX's greedy over one shard.

        Under the per-group coverage scope the shard is the whole label
        group (``build_plan`` makes it so): the remaining ``u_l`` threads
        through it in index order, a graph after the budget is spent
        gets ``None``, and so does every graph of a group whose
        subgraphs miss ``b_l``.
        """
        bounds = self.config.coverage_for(shard.label)
        per_group = self.config.coverage_scope == SCOPE_PER_GROUP
        remaining = bounds.upper
        out: List[TaskResult] = []
        for index in shard.indices:
            if per_group and remaining <= 0:
                out.append((index, shard.label, None, 0))
                continue
            result = explain_graph(
                self.model, self.db[index], shard.label, self.config,
                graph_index=index, classifier=self.classifier,
                lower=0 if per_group else None,
                upper=remaining if per_group else None,
            )
            calls = result.inference_calls
            out.append((index, shard.label, result.subgraph, calls))
            if per_group and result.subgraph is not None:
                remaining -= result.subgraph.n_nodes
        if per_group and bounds.upper - remaining < bounds.lower:
            # the group could not reach its lower bound: no valid view
            out = [(index, label, None, calls) for index, label, _, calls in out]
        return out

    def _run_stream(self, shard: Shard) -> List[TaskResult]:
        """StreamGVEX's node stream (Algorithm 3) over each graph."""
        algo = StreamGvex(self.model, self.config)
        out: List[TaskResult] = []
        for index in shard.indices:
            result = algo.explain_graph_stream(
                self.db[index], shard.label, graph_index=index,
                classifier=self.classifier,
            )
            calls = result.inference_calls
            out.append((index, shard.label, result.subgraph, calls))
        return out


def _assemble(
    plan: ExplainPlan, results: Sequence[TaskResult]
) -> Tuple[ViewSet, Dict[str, int]]:
    """The parent-side tail: group results by label, one Psum per label."""
    subgraphs: Dict[int, List[ExplanationSubgraph]] = {l: [] for l in plan.labels}
    calls = 0
    for _, label, subgraph, task_calls in results:
        calls += task_calls
        if subgraph is not None:
            subgraphs[label].append(subgraph)
    return (
        assemble_views(subgraphs, plan.config, plan.labels),
        {"inference_calls": calls},
    )


def _require_budget(plan: ExplainPlan, what: str) -> None:
    """Refuse further work when the plan's deadline budget is spent."""
    if plan.deadline is not None:
        plan.deadline.require(what)


def _can_fork() -> bool:
    try:
        mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return False
    return True


class Executor:
    """Base scheduling policy: plan in, views (+ stats) out."""

    name = "base"

    def run(self, plan: ExplainPlan) -> Tuple[ViewSet, Dict[str, int]]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process execution, shard after shard — the parity reference."""

    name = "serial"

    def run(self, plan: ExplainPlan) -> Tuple[ViewSet, Dict[str, int]]:
        _require_budget(plan, "serial execution")
        state = WorkerState.from_plan(plan)
        results: List[TaskResult] = []
        for shard in plan.shards:
            _require_budget(plan, "the next shard")
            results.extend(state.run_shard(shard))
        return _assemble(plan, results)


# ----------------------------------------------------------------------
# fork-pool execution
# ----------------------------------------------------------------------
_WORKER_STATE: Optional[WorkerState] = None


def _init_worker(
    model: GnnClassifier,
    config: GvexConfig,
    db: GraphDatabase,
    method: str,
    seed: int,
    explainer_kwargs: Mapping,
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = WorkerState(
        model=model,
        config=config,
        db=db,
        method=method,
        seed=seed,
        explainer_kwargs=dict(explainer_kwargs),
    )
    # baseline explainers are built eagerly so a bad constructor
    # override fails at pool startup, not mid-shard
    _WORKER_STATE.explainer


def _run_shard(shard: Shard) -> List[TaskResult]:
    assert _WORKER_STATE is not None
    return _WORKER_STATE.run_shard(shard)


def _fork_map(plan: ExplainPlan, processes: int) -> List[TaskResult]:
    """Run a plan's shards over a fork pool; crash-safe, order-preserving.

    Uses :class:`concurrent.futures.ProcessPoolExecutor` (fork context)
    rather than ``multiprocessing.Pool``: when a worker process dies
    mid-shard (OOM-killed, ``SIGKILL``, segfault), the executor raises
    ``BrokenProcessPool`` promptly instead of hanging ``pool.map``
    forever — the serve path turns that into a clean 5xx with its queue
    slot reclaimed. Task exceptions re-raise unchanged, and results are
    consumed in shard order, so they stay bit-identical to the serial
    schedule.

    The parent re-checks the plan's deadline between shard results.
    On expiry (or any error) it cancels the queued shards *before*
    leaving the pool, whose shutdown would otherwise wait for every
    one of them, then raises; shards already running finish and are
    discarded.
    """
    ctx = mp.get_context("fork")
    results: List[TaskResult] = []
    try:
        with ProcessPoolExecutor(
            max_workers=processes,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(
                plan.model,
                plan.config,
                plan.db,
                plan.method,
                plan.seed,
                dict(plan.explainer_kwargs),
            ),
        ) as pool:
            futures = [pool.submit(_run_shard, shard) for shard in plan.shards]
            try:
                for future in futures:
                    _require_budget(plan, "the next shard")
                    results.extend(future.result())
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            "a fork-pool worker died mid-shard (killed or crashed); "
            "partial results discarded"
        ) from exc
    return results


class ForkPoolExecutor(Executor):
    """Fork a pool; each worker drains whole shards with warm state.

    Falls back to :class:`SerialExecutor` when ``processes <= 1`` or
    when the platform cannot fork. Only the explanation phase is
    distributed; the Psum tail runs in the parent (it needs the whole
    label group's subgraphs).
    """

    name = "fork-pool"

    def __init__(self, processes: int = 2):
        self.processes = processes

    def run(self, plan: ExplainPlan) -> Tuple[ViewSet, Dict[str, int]]:
        if self.processes <= 1 or not _can_fork():
            return SerialExecutor().run(plan)
        _require_budget(plan, "forking the worker pool")
        return _assemble(plan, _fork_map(plan, self.processes))


def run_tasks(plan: ExplainPlan, processes: int = 1) -> List[TaskResult]:
    """Run a plan's shards and return raw per-task results (no Psum tail).

    The bench harness uses this to drive per-graph sweeps through the
    same scheduling layer as full view generation: warm
    :class:`WorkerState`, shard-at-a-time dispatch, optional fork pool.
    """
    if processes > 1 and _can_fork():
        return _fork_map(plan, processes)
    state = WorkerState.from_plan(plan)
    return [r for shard in plan.shards for r in state.run_shard(shard)]


def run_plan(
    plan: ExplainPlan,
    *,
    processes: int = 1,
    return_stats: bool = False,
):
    """One-call execution: serial, or a fork pool when ``processes > 1``."""
    executor = ForkPoolExecutor(processes) if processes > 1 else SerialExecutor()
    views, stats = executor.run(plan)
    if return_stats:
        return views, stats
    return views


__all__ = [
    "TaskResult",
    "WorkerState",
    "Executor",
    "SerialExecutor",
    "ForkPoolExecutor",
    "run_plan",
    "run_tasks",
]
