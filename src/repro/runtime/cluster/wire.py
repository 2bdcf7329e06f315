"""The cluster wire schema — versioned envelopes, pure encode/decode.

Every message a coordinator and a worker exchange is a JSON object
wrapped in a versioned envelope::

    {"schema": 1, "type": "<message type>", ...fields...}

Four message types exist:

``register``   worker -> coordinator: here I am, dispatch to ``url``
``heartbeat``  worker -> coordinator: still alive (monotonic ``seq``)
``dispatch``   coordinator -> worker: run one label-group shard
``result``     worker -> coordinator: the shard's partial view set

The functions here are *pure*: ``encode_*`` builds a plain dict,
``decode_*`` validates one and returns a typed message dataclass.
Nothing in this module touches a socket, so protocol conformance is
testable byte-for-byte without a cluster
(``tests/test_cluster_protocol.py`` + ``tests/golden/wire/``).

Validation is strict and typed: an envelope whose ``schema`` is not
:data:`WIRE_SCHEMA_VERSION` raises
:class:`~repro.exceptions.WireVersionError`; a missing or mistyped
field raises :class:`~repro.exceptions.WireError`. A coordinator
therefore rejects (and re-dispatches) a malformed worker result rather
than merging garbage, and a future schema bump cannot be half-read by
an old worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.config import GvexConfig
from repro.exceptions import WireError, WireVersionError
from repro.graphs.io import viewset_from_dict, viewset_to_dict
from repro.graphs.view import ViewSet

#: current cluster wire-format version; bump on incompatible change
WIRE_SCHEMA_VERSION = 1

MSG_REGISTER = "register"
MSG_HEARTBEAT = "heartbeat"
MSG_DISPATCH = "dispatch"
MSG_RESULT = "result"

#: every message type this schema version defines
MESSAGE_TYPES = (
    MSG_REGISTER,
    MSG_HEARTBEAT,
    MSG_DISPATCH,
    MSG_RESULT,
)


# ----------------------------------------------------------------------
# typed messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisterMessage:
    """A worker announcing itself and its dispatch endpoint."""

    worker_id: str
    url: str


@dataclass(frozen=True)
class HeartbeatMessage:
    """A worker's liveness beacon; ``seq`` increases monotonically."""

    worker_id: str
    seq: int


@dataclass(frozen=True)
class DispatchMessage:
    """One label-group shard of an explain job, fully self-describing.

    ``indices`` are *global* database indices (both sides hold the same
    database), so results merge positionally without remapping.
    """

    job_id: str
    shard_id: int
    label: int
    indices: Tuple[int, ...]
    method: str
    seed: int
    config: GvexConfig
    explainer_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: remaining deadline budget in seconds (relative — monotonic
    #: clocks are per-process); None means no deadline. Optional on
    #: the wire: omitted when absent, so schema 1 goldens are unchanged
    deadline_seconds: Optional[float] = None


@dataclass(frozen=True)
class ResultMessage:
    """A shard's partial view set, produced by one worker."""

    job_id: str
    shard_id: int
    worker_id: str
    inference_calls: int
    views: ViewSet


# ----------------------------------------------------------------------
# envelope plumbing
# ----------------------------------------------------------------------
def _envelope(msg_type: str) -> Dict[str, Any]:
    return {"schema": WIRE_SCHEMA_VERSION, "type": msg_type}


def check_envelope(
    payload: Any, expected_type: Optional[str] = None
) -> Dict[str, Any]:
    """Validate the envelope of a decoded JSON payload.

    Returns the payload as a dict; raises :class:`WireVersionError` on
    an unsupported ``schema`` and :class:`WireError` on everything else
    (non-object payload, missing/unknown ``type``, type mismatch).
    """
    if not isinstance(payload, dict):
        raise WireError(
            f"wire message must be a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != WIRE_SCHEMA_VERSION:
        raise WireVersionError(
            f"unsupported wire schema {schema!r}; this build speaks "
            f"version {WIRE_SCHEMA_VERSION}"
        )
    msg_type = payload.get("type")
    if msg_type not in MESSAGE_TYPES:
        raise WireError(
            f"unknown wire message type {msg_type!r} "
            f"(expected one of {list(MESSAGE_TYPES)})"
        )
    if expected_type is not None and msg_type != expected_type:
        raise WireError(
            f"expected a {expected_type!r} message, got {msg_type!r}"
        )
    return payload


def _require(payload: Mapping[str, Any], name: str, types) -> Any:
    """One required field, type-checked; ``WireError`` otherwise."""
    if name not in payload:
        raise WireError(
            f"{payload.get('type', '?')} message is missing "
            f"required field {name!r}"
        )
    value = payload[name]
    if not isinstance(value, types):
        wanted = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise WireError(
            f"{payload.get('type', '?')} field {name!r} must be "
            f"{wanted}, got {type(value).__name__}"
        )
    # bool is an int subclass; an int-typed field must reject it
    if isinstance(value, bool) and (types is int or types == (int,)):
        raise WireError(
            f"{payload.get('type', '?')} field {name!r} must be int, got bool"
        )
    return value


def canonical_bytes(envelope: Mapping[str, Any]) -> bytes:
    """The stable byte serialization of an envelope.

    Sorted keys, two-space indent, trailing newline — the form frozen
    under ``tests/golden/wire/`` and the form both endpoints put on the
    socket, so golden files are literally wire bytes.
    """
    return (json.dumps(envelope, indent=2, sort_keys=True) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# register
# ----------------------------------------------------------------------
def encode_register(worker_id: str, url: str) -> Dict[str, Any]:
    env = _envelope(MSG_REGISTER)
    env["worker_id"] = worker_id
    env["url"] = url
    return env


def decode_register(payload: Any) -> RegisterMessage:
    d = check_envelope(payload, MSG_REGISTER)
    return RegisterMessage(
        worker_id=_require(d, "worker_id", str),
        url=_require(d, "url", str),
    )


# ----------------------------------------------------------------------
# heartbeat
# ----------------------------------------------------------------------
def encode_heartbeat(worker_id: str, seq: int) -> Dict[str, Any]:
    env = _envelope(MSG_HEARTBEAT)
    env["worker_id"] = worker_id
    env["seq"] = int(seq)
    return env


def decode_heartbeat(payload: Any) -> HeartbeatMessage:
    d = check_envelope(payload, MSG_HEARTBEAT)
    return HeartbeatMessage(
        worker_id=_require(d, "worker_id", str),
        seq=_require(d, "seq", int),
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def encode_dispatch(
    job_id: str,
    shard_id: int,
    label: int,
    indices,
    method: str,
    seed: int,
    config: GvexConfig,
    explainer_kwargs: Optional[Mapping[str, Any]] = None,
    deadline_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    env = _envelope(MSG_DISPATCH)
    env["job_id"] = job_id
    env["shard_id"] = int(shard_id)
    env["label"] = int(label)
    env["indices"] = [int(i) for i in indices]
    env["method"] = method
    env["seed"] = int(seed)
    env["config"] = config.to_dict()
    env["explainer_kwargs"] = dict(explainer_kwargs or {})
    if deadline_seconds is not None:
        env["deadline_seconds"] = float(deadline_seconds)
    return env


def decode_dispatch(payload: Any) -> DispatchMessage:
    d = check_envelope(payload, MSG_DISPATCH)
    indices = _require(d, "indices", list)
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in indices):
        raise WireError("dispatch field 'indices' must be a list of ints")
    config_dict = _require(d, "config", dict)
    try:
        config = GvexConfig.from_dict(config_dict)
    except Exception as exc:
        raise WireError(f"dispatch carries an invalid config: {exc}") from exc
    deadline_seconds = d.get("deadline_seconds")
    if deadline_seconds is not None:
        if isinstance(deadline_seconds, bool) or not isinstance(
            deadline_seconds, (int, float)
        ):
            raise WireError(
                "dispatch field 'deadline_seconds' must be a number, got "
                f"{type(deadline_seconds).__name__}"
            )
        deadline_seconds = float(deadline_seconds)
    return DispatchMessage(
        job_id=_require(d, "job_id", str),
        shard_id=_require(d, "shard_id", int),
        label=_require(d, "label", int),
        indices=tuple(indices),
        method=_require(d, "method", str),
        seed=_require(d, "seed", int),
        config=config,
        explainer_kwargs=dict(_require(d, "explainer_kwargs", dict)),
        deadline_seconds=deadline_seconds,
    )


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------
def encode_result(
    job_id: str,
    shard_id: int,
    worker_id: str,
    views: ViewSet,
    inference_calls: int = 0,
) -> Dict[str, Any]:
    env = _envelope(MSG_RESULT)
    env["job_id"] = job_id
    env["shard_id"] = int(shard_id)
    env["worker_id"] = worker_id
    env["inference_calls"] = int(inference_calls)
    env["views"] = viewset_to_dict(views)
    return env


def decode_result(payload: Any) -> ResultMessage:
    d = check_envelope(payload, MSG_RESULT)
    views_dict = _require(d, "views", dict)
    try:
        views = viewset_from_dict(views_dict)
    except Exception as exc:
        raise WireError(
            f"result carries an unreadable view set: {exc}"
        ) from exc
    return ResultMessage(
        job_id=_require(d, "job_id", str),
        shard_id=_require(d, "shard_id", int),
        worker_id=_require(d, "worker_id", str),
        inference_calls=_require(d, "inference_calls", int),
        views=views,
    )


#: message type -> its decoder (the conformance suite iterates this)
DECODERS = {
    MSG_REGISTER: decode_register,
    MSG_HEARTBEAT: decode_heartbeat,
    MSG_DISPATCH: decode_dispatch,
    MSG_RESULT: decode_result,
}


__all__ = [
    "WIRE_SCHEMA_VERSION",
    "MESSAGE_TYPES",
    "MSG_REGISTER",
    "MSG_HEARTBEAT",
    "MSG_DISPATCH",
    "MSG_RESULT",
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
    "DECODERS",
]
