"""Explain plans: how a database is partitioned into schedulable work.

The scheduling layer's unit of planning is the :class:`ExplainPlan` —
an immutable description of *what* to explain (database, model,
config, registry method) and *how the work is cut*: each label group
``G^l`` is partitioned into :class:`Shard`\\ s, contiguous runs of the
group's graph indices. Executors (``repro.runtime.executors``) only
ever see shards, so every entry point — the service facade, the CLI,
the bench harness, the HTTP layer, the ``ApproxGvex``/``StreamGvex``
facades — schedules identical work the same way, for every method and
coverage scope.

Shard sizing follows the batched verifier's cache geometry: one graph's
greedy round evaluates a frontier of ``O(n)`` candidate subsets as
stacked ``(B, k, k)`` tensors, bounded by
``BatchedGnnVerifier.BATCH_ELEMENT_BUDGET`` elements per launch
(``repro.core.verifiers``). A shard is sized so the whole shard's
working set — about ``n_widest² · u_l`` elements per member graph —
stays within one budget's worth of warm tensors, and so every worker
of a fork pool gets at least one shard. A worker then runs its shard
as one in-process loop: the model weights, config, built explainer,
and the verifier's stacked scratch stay warm across the shard's tasks
instead of being re-pickled per task. ApproxGVEX under the per-*group*
coverage scope is the one exception: it threads one node budget
``u_l`` through its whole label group, so each such group is one
shard.

:func:`assemble_views` is the one Psum tail of the shard loop: every
executor, the fork pool and the cluster coordinator included, gathers
a label group's explanation subgraphs in the parent and summarizes
them into patterns exactly once per label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.config import SCOPE_PER_GROUP, GvexConfig
from repro.core.psum import summarize
from repro.exceptions import ConfigurationError, RegistryError
from repro.runtime.deadline import Deadline
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet

#: registry names whose tasks run the core GVEX kernels directly:
#: ApproxGVEX's greedy (Algorithm 1) and StreamGVEX's stream (Algorithm 3)
APPROX_METHOD = "gvex-approx"
STREAM_METHOD = "gvex-stream"


@dataclass(frozen=True)
class Shard:
    """A contiguous slice of one label group's explain tasks."""

    label: int
    #: database indices of this shard's graphs, ascending
    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ExplainPlan:
    """Everything an executor needs to run one explain workload.

    Built by :func:`build_plan`; executors treat it as read-only. The
    plan's shards preserve each label group's ascending index order, so
    concatenating a label's shard results reproduces the serial
    per-group iteration exactly (the bit-parity contract of
    ``tests/test_runtime.py``).
    """

    db: GraphDatabase
    model: GnnClassifier
    config: GvexConfig
    method: str = APPROX_METHOD
    seed: int = 0
    explainer_kwargs: Mapping = field(default_factory=dict)
    #: sorted labels of interest (the view set's labels, even if empty)
    labels: Tuple[int, ...] = ()
    shards: Tuple[Shard, ...] = ()
    #: optional monotonic deadline every executor honours between
    #: shards (``Deadline.require`` -> typed 504; docs/api.md)
    deadline: Optional["Deadline"] = None

    @property
    def n_tasks(self) -> int:
        return sum(len(s) for s in self.shards)

    def shards_for(self, label: int) -> List[Shard]:
        return [s for s in self.shards if s.label == label]

    def group_indices(self, label: int) -> List[int]:
        return [i for s in self.shards_for(label) for i in s.indices]


def shard_size_for(
    db: GraphDatabase,
    indices: Sequence[int],
    config: GvexConfig,
    label: int,
    processes: int = 1,
) -> int:
    """Shard size for one label group, sized to verifier cache geometry.

    Two forces, take the minimum:

    * **cache budget** — each member graph's batched verification
      frontier gathers roughly ``n² · u_l`` float64 elements (stacked
      subset tensors over an ``n``-node graph bounded by the coverage
      upper ``u_l``); the shard is capped so its total stays within one
      :data:`~repro.core.verifiers.BatchedGnnVerifier.BATCH_ELEMENT_BUDGET`,
      keeping a worker's stacked tensors inside the same warm working
      set a single batched launch uses;
    * **balance** — at least one shard per worker
      (``ceil(group / processes)``), so a fork pool is never idle while
      another worker drains a mega-shard.

    Shard size never changes the views (the parity contract), only how
    work is batched and balanced.
    """
    from repro.core.verifiers import BatchedGnnVerifier

    if not indices:
        return 1
    widest = max(db[i].n_nodes for i in indices)
    upper = config.coverage_for(label).upper
    per_graph = max(1, widest * widest * max(1, upper))
    by_budget = max(1, BatchedGnnVerifier.BATCH_ELEMENT_BUDGET // per_graph)
    balanced = math.ceil(len(indices) / max(1, processes))

    return max(1, min(by_budget, balanced))


def build_plan(
    db: GraphDatabase,
    model: GnnClassifier,
    config: Optional[GvexConfig] = None,
    *,
    labels: Optional[Iterable[int]] = None,
    predicted: Optional[Sequence[Optional[int]]] = None,
    method: str = APPROX_METHOD,
    seed: int = 0,
    explainer_kwargs: Optional[Mapping] = None,
    processes: int = 1,
    shard_size: Optional[int] = None,
    deadline: Optional[Deadline] = None,
) -> ExplainPlan:
    """Partition a database into label-group shards.

    ``predicted`` may carry ``None`` entries to exclude graphs
    (restricted bench sweeps use this); by default the model's
    predictions group the database. ``shard_size`` overrides
    :func:`shard_size_for` uniformly, except that a per-group
    ``gvex-approx`` label group is always one shard. ``method`` is
    resolved through the explainer registry, so aliases work everywhere
    plans are built.
    ``deadline`` attaches a monotonic budget that every executor (and
    the cluster dispatch path) re-checks between shards.
    """
    from repro.api.registry import get_spec

    config = config if config is not None else GvexConfig()
    method = get_spec(method).name
    explainer_kwargs = dict(explainer_kwargs or {})
    if method in (APPROX_METHOD, STREAM_METHOD) and explainer_kwargs:
        raise RegistryError(
            f"the {method} runtime takes its configuration from "
            f"GvexConfig, not constructor overrides {sorted(explainer_kwargs)}"
        )
    if shard_size is not None and shard_size < 1:
        raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
    # ApproxGVEX's per-group budget threads through the whole group
    whole_groups = (
        method == APPROX_METHOD and config.coverage_scope == SCOPE_PER_GROUP
    )
    if predicted is None:
        from repro.core.approx import database_predictions

        predicted = database_predictions(model, db)

    groups: Dict[int, List[int]] = {}
    for i, l in enumerate(predicted):
        if l is None:
            continue
        groups.setdefault(int(l), []).append(i)
    wanted = sorted(groups) if labels is None else sorted(set(labels))

    shards: List[Shard] = []
    for label in wanted:
        members = groups.get(label, [])
        if not members:
            continue
        if whole_groups:
            size = len(members)
        elif shard_size is not None:
            size = shard_size
        else:
            size = shard_size_for(db, members, config, label, processes=processes)
        for start in range(0, len(members), size):
            shards.append(Shard(label, tuple(members[start : start + size])))

    return ExplainPlan(
        db=db,
        model=model,
        config=config,
        method=method,
        seed=seed,
        explainer_kwargs=explainer_kwargs,
        labels=tuple(wanted),
        shards=tuple(shards),
        deadline=deadline,
    )


def assemble_views(
    subgraphs: Mapping[int, List[ExplanationSubgraph]],
    config: GvexConfig,
    labels: Sequence[int],
) -> ViewSet:
    """Parent-side tail of every executor: Psum over each label group.

    Subgraphs are ordered by source graph index (the serial iteration
    order), patterns are mined/summarized over the whole group, and the
    Eq. 2 scores aggregate, so executor outputs are bit-comparable. A
    group without subgraphs gets an empty view with score ``0.0``.
    """
    views = ViewSet()
    for label in labels:
        subs = sorted(subgraphs.get(label, []), key=lambda s: s.graph_index)
        view = ExplanationView(label=label, subgraphs=subs)
        psum = summarize([s.subgraph for s in subs], config)
        view.patterns = psum.patterns
        view.edge_loss = psum.edge_loss
        view.score = sum((s.score for s in subs), 0.0)
        views.add(view)
    return views


__all__ = [
    "APPROX_METHOD",
    "STREAM_METHOD",
    "Shard",
    "ExplainPlan",
    "build_plan",
    "shard_size_for",
    "assemble_views",
]
