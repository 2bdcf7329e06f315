"""``repro.runtime`` — one execution engine for all explanation work.

Historically four call sites scheduled explanation four different ways
(the facade's serial loop, ``core.parallel``'s fork pool,
``core.distributed``'s shard-and-merge, and the HTTP server's global
lock). This package is now the *only* scheduling layer:

* :func:`build_plan` partitions a database into label-group
  :class:`Shard`\\ s sized to the batched verifier's cache geometry
  (``repro.runtime.plan``);
* one executor per scheduling mechanism runs a plan with identical
  results: :class:`SerialExecutor` in-process, :class:`ForkPoolExecutor`
  over a fork pool whose workers hold an explicit warm
  :class:`WorkerState` (``repro.runtime.executors``), and
  ``repro.runtime.cluster``'s ``DistributedExecutor`` over HTTP;
* :func:`assemble_views` is the one Psum tail of the shard loop: it
  runs once per label group, in the parent, whichever executor ran
  the shards;
* :class:`BoundedWorkQueue` gives the serving layer admission control
  and backpressure (``repro.runtime.workqueue``).

The removed entry points (``repro.core.parallel``,
``repro.core.distributed``, the in-process sharding simulation and its
merge helpers) are listed with their replacements in
``docs/runtime.md``; the exported surface is snapshotted by
``scripts/check_api_surface.py``.
"""

from repro.runtime.deadline import Deadline
from repro.runtime.executors import (
    Executor,
    ForkPoolExecutor,
    SerialExecutor,
    WorkerState,
    run_plan,
    run_tasks,
)
from repro.runtime.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.runtime.plan import (
    APPROX_METHOD,
    ExplainPlan,
    Shard,
    assemble_views,
    build_plan,
    shard_size_for,
)
from repro.runtime.workqueue import (
    DEFAULT_CAPACITY,
    DEFAULT_TENANT,
    BoundedWorkQueue,
    WorkItem,
)

__all__ = [
    # plan
    "APPROX_METHOD",
    "ExplainPlan",
    "Shard",
    "build_plan",
    "shard_size_for",
    "assemble_views",
    # executors
    "Executor",
    "SerialExecutor",
    "ForkPoolExecutor",
    "WorkerState",
    "run_plan",
    "run_tasks",
    # work queue
    "BoundedWorkQueue",
    "WorkItem",
    "DEFAULT_CAPACITY",
    "DEFAULT_TENANT",
    # fault discipline
    "Deadline",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
]
