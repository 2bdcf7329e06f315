"""``repro.runtime.cluster`` — sharded explanation over the wire.

The executor for the third scheduling mechanism, remote workers: a
:class:`ClusterCoordinator` dispatches a plan's label-group shards to
registered :class:`ClusterWorker`\\ s over HTTP, collects each shard's
explanation subgraphs, and runs the one Psum tail
(:func:`~repro.runtime.assemble_views`) once per label group —
bit-identical to :class:`~repro.runtime.SerialExecutor`. Workers
heartbeat; dead or silent workers get their in-flight shards
re-dispatched to survivors; a versioned wire schema (``cluster.wire``)
keeps every exchange strictly validated. Workers hold their own
database, model and match-plan cache; nothing but envelopes crosses
the wire.

Topology, wire schema, and fault semantics: ``docs/distribution.md``.
"""

from repro.runtime.cluster.coordinator import (
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_REQUEST_TIMEOUT,
    STATE_DEAD,
    STATE_LIVE,
    STATE_QUARANTINED,
    ClusterCoordinator,
    DistributedExecutor,
    WorkerRecord,
)
from repro.runtime.cluster.journal import (
    JOURNAL_VERSION,
    ShardJournal,
    plan_content_key,
)
from repro.runtime.cluster.transport import (
    TRANSIENT_STATUSES,
    RetryPolicy,
)
from repro.runtime.cluster.wire import (
    MESSAGE_TYPES,
    WIRE_SCHEMA_VERSION,
    DispatchMessage,
    HeartbeatMessage,
    RegisterMessage,
    ResultMessage,
    canonical_bytes,
    check_envelope,
    decode_dispatch,
    decode_heartbeat,
    decode_register,
    decode_result,
    encode_dispatch,
    encode_heartbeat,
    encode_register,
    encode_result,
)
from repro.runtime.cluster.worker import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_MAX_MISSED,
    ClusterWorker,
)

__all__ = [
    # topology
    "ClusterCoordinator",
    "ClusterWorker",
    "DistributedExecutor",
    "WorkerRecord",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_MAX_MISSED",
    "DEFAULT_BREAKER_THRESHOLD",
    "STATE_LIVE",
    "STATE_QUARANTINED",
    "STATE_DEAD",
    # fault discipline
    "RetryPolicy",
    "TRANSIENT_STATUSES",
    # durability
    "ShardJournal",
    "plan_content_key",
    "JOURNAL_VERSION",
    # wire schema
    "WIRE_SCHEMA_VERSION",
    "MESSAGE_TYPES",
    "RegisterMessage",
    "HeartbeatMessage",
    "DispatchMessage",
    "ResultMessage",
    "encode_register",
    "decode_register",
    "encode_heartbeat",
    "decode_heartbeat",
    "encode_dispatch",
    "decode_dispatch",
    "encode_result",
    "decode_result",
    "check_envelope",
    "canonical_bytes",
]
