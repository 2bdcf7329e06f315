"""Wire-protocol conformance for ``repro.runtime.cluster.wire``.

No sockets anywhere: the encode/decode functions are pure, so every
property here is a plain function call —

* **round-trip** — ``decode(encode(...))`` reconstructs every field of
  every message type, including a full ``ViewSet`` through a result
  envelope;
* **golden bytes** — the canonical serialization of one exemplar per
  message type is frozen under ``tests/golden/wire/`` (regenerate with
  ``REPRO_REGEN_GOLDEN=1``); these are literally the bytes a peer puts
  on the socket, so any accidental schema drift fails here first;
* **strict validation** — unknown ``schema`` versions raise
  :class:`WireVersionError`, missing/mistyped fields raise
  :class:`WireError`, for *every* message type (driven off the golden
  exemplars: every field of every envelope is deleted in turn).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import GvexConfig
from repro.exceptions import WireError, WireVersionError
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet
from repro.runtime.cluster import wire

GOLDEN_DIR = Path(__file__).parent / "golden" / "wire"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


# ----------------------------------------------------------------------
# deterministic exemplars, one per message type
# ----------------------------------------------------------------------
def sample_viewset() -> ViewSet:
    g = Graph([1, 2, 2])
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    sub = ExplanationSubgraph(
        graph_index=3,
        nodes=(4, 7, 9),
        subgraph=g,
        consistent=True,
        counterfactual=False,
        score=0.375,
    )
    view = ExplanationView(label=1, subgraphs=[sub], score=0.375)
    views = ViewSet()
    views.add(view)
    return views


def sample_config() -> GvexConfig:
    return GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)


def exemplars():
    return {
        wire.MSG_REGISTER: wire.encode_register(
            "worker-a1", "http://127.0.0.1:9001"
        ),
        wire.MSG_HEARTBEAT: wire.encode_heartbeat("worker-a1", 17),
        wire.MSG_DISPATCH: wire.encode_dispatch(
            job_id="job-42",
            shard_id=3,
            label=1,
            indices=[2, 5, 8],
            method="gvex-approx",
            seed=0,
            config=sample_config(),
            explainer_kwargs={"alpha": 0.5},
        ),
        wire.MSG_RESULT: wire.encode_result(
            job_id="job-42",
            shard_id=3,
            worker_id="worker-a1",
            views=sample_viewset(),
            inference_calls=12,
        ),
        wire.MSG_CACHE_SNAPSHOT: wire.encode_cache_snapshot(
            plan_cache={
                "schema": 1,
                "patterns": {},
                "coverage": [],
                "contains": [],
            },
            view_index={"schema": 1, "patterns": {}, "matches": []},
        ),
    }


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_register(self):
        msg = wire.decode_register(exemplars()[wire.MSG_REGISTER])
        assert msg == wire.RegisterMessage("worker-a1", "http://127.0.0.1:9001")

    def test_heartbeat(self):
        msg = wire.decode_heartbeat(exemplars()[wire.MSG_HEARTBEAT])
        assert msg == wire.HeartbeatMessage("worker-a1", 17)

    def test_dispatch(self):
        msg = wire.decode_dispatch(exemplars()[wire.MSG_DISPATCH])
        assert msg.job_id == "job-42"
        assert msg.shard_id == 3
        assert msg.label == 1
        assert msg.indices == (2, 5, 8)
        assert msg.method == "gvex-approx"
        assert msg.seed == 0
        assert msg.config.to_dict() == sample_config().to_dict()
        assert msg.explainer_kwargs == {"alpha": 0.5}

    def test_result_reconstructs_viewset_exactly(self):
        from tests.test_golden_views import view_set_fingerprint

        msg = wire.decode_result(exemplars()[wire.MSG_RESULT])
        assert msg.job_id == "job-42"
        assert msg.shard_id == 3
        assert msg.worker_id == "worker-a1"
        assert msg.inference_calls == 12
        assert view_set_fingerprint(msg.views) == view_set_fingerprint(
            sample_viewset()
        )

    def test_cache_snapshot(self):
        msg = wire.decode_cache_snapshot(exemplars()[wire.MSG_CACHE_SNAPSHOT])
        assert msg.plan_cache["schema"] == 1
        assert msg.view_index["schema"] == 1

    def test_cache_snapshot_null_fields(self):
        msg = wire.decode_cache_snapshot(wire.encode_cache_snapshot())
        assert msg.plan_cache is None
        assert msg.view_index is None

    def test_json_round_trip_is_transparent(self):
        """Envelope -> bytes -> envelope decodes identically (floats
        survive via repr round-tripping, the bit-parity enabler)."""
        for msg_type, envelope in exemplars().items():
            rehydrated = json.loads(wire.canonical_bytes(envelope))
            assert rehydrated == envelope, msg_type
            wire.DECODERS[msg_type](rehydrated)  # must not raise


# ----------------------------------------------------------------------
# golden bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("msg_type", sorted(wire.MESSAGE_TYPES))
def test_golden_wire_bytes(msg_type):
    """The canonical bytes of every message type are frozen."""
    payload = wire.canonical_bytes(exemplars()[msg_type])
    path = GOLDEN_DIR / f"{msg_type}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return
    if not path.exists():
        pytest.fail(
            f"golden wire snapshot {path} missing — regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    assert payload == path.read_bytes(), (
        f"wire drift for {msg_type!r}; a schema change must bump "
        "WIRE_SCHEMA_VERSION and regenerate the goldens "
        "(REPRO_REGEN_GOLDEN=1)"
    )


def test_goldens_decode():
    """The frozen bytes themselves decode — goldens stay loadable."""
    if REGEN:
        pytest.skip("regenerating")
    for msg_type in wire.MESSAGE_TYPES:
        payload = json.loads((GOLDEN_DIR / f"{msg_type}.json").read_bytes())
        wire.DECODERS[msg_type](payload)


def test_dispatch_with_retired_config_keys_rejected():
    """A dispatch carrying a retired reference-tier config key fails to
    decode, like any unknown config key."""
    payload = json.loads((GOLDEN_DIR / "dispatch.json").read_bytes())
    wire.decode_dispatch(payload)
    payload["config"]["verifier_backend"] = "batched"
    with pytest.raises(WireError, match="verifier_backend"):
        wire.decode_dispatch(payload)


# ----------------------------------------------------------------------
# strict validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("msg_type", sorted(wire.MESSAGE_TYPES))
    def test_unknown_schema_version_rejected(self, msg_type):
        envelope = dict(exemplars()[msg_type])
        envelope["schema"] = wire.WIRE_SCHEMA_VERSION + 1
        with pytest.raises(WireVersionError):
            wire.DECODERS[msg_type](envelope)
        envelope["schema"] = "1"  # wrong type, not just wrong number
        with pytest.raises(WireVersionError):
            wire.DECODERS[msg_type](envelope)

    @pytest.mark.parametrize("msg_type", sorted(wire.MESSAGE_TYPES))
    def test_missing_fields_rejected(self, msg_type):
        """Deleting ANY field of any envelope raises a typed error."""
        exemplar = exemplars()[msg_type]
        for field in exemplar:
            mutilated = {k: v for k, v in exemplar.items() if k != field}
            with pytest.raises((WireError, WireVersionError)):
                wire.DECODERS[msg_type](mutilated)

    def test_non_object_payloads_rejected(self):
        for bad in (None, 7, "register", [1, 2], True):
            with pytest.raises(WireError):
                wire.check_envelope(bad)

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            wire.check_envelope(
                {"schema": wire.WIRE_SCHEMA_VERSION, "type": "gossip"}
            )

    def test_type_mismatch_rejected(self):
        with pytest.raises(WireError):
            wire.decode_heartbeat(exemplars()[wire.MSG_REGISTER])

    def test_mistyped_fields_rejected(self):
        hb = dict(exemplars()[wire.MSG_HEARTBEAT])
        hb["seq"] = "17"
        with pytest.raises(WireError):
            wire.decode_heartbeat(hb)
        hb["seq"] = True  # bool is an int subclass; must still reject
        with pytest.raises(WireError):
            wire.decode_heartbeat(hb)

    def test_dispatch_indices_must_be_ints(self):
        env = dict(exemplars()[wire.MSG_DISPATCH])
        env["indices"] = [1, "2", 3]
        with pytest.raises(WireError):
            wire.decode_dispatch(env)
        env["indices"] = [1, True, 3]
        with pytest.raises(WireError):
            wire.decode_dispatch(env)

    def test_dispatch_invalid_config_rejected(self):
        env = dict(exemplars()[wire.MSG_DISPATCH])
        env["config"] = {"theta": "not-a-number"}
        with pytest.raises(WireError):
            wire.decode_dispatch(env)

    def test_result_unreadable_views_rejected(self):
        env = dict(exemplars()[wire.MSG_RESULT])
        env["views"] = {"not": "a viewset"}
        with pytest.raises(WireError):
            wire.decode_result(env)

    def test_cache_snapshot_fields_object_or_null(self):
        env = dict(exemplars()[wire.MSG_CACHE_SNAPSHOT])
        env["plan_cache"] = [1, 2]
        with pytest.raises(WireError):
            wire.decode_cache_snapshot(env)
