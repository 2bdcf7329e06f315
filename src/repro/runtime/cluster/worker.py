"""The cluster worker: register, heartbeat, drain shards.

A :class:`ClusterWorker` holds its *own* copies of the database and the
trained model (nothing heavy ships over the wire — both sides load the
same deterministic artifacts), binds a small HTTP endpoint::

    POST /shard      run one dispatch envelope -> result envelope
    POST /shutdown   stop serving after the current shard
    GET  /health     liveness + shard counters

and then:

1. **register** — ``POST {coordinator}/register`` with its dispatch
   URL; a worker that cannot register closes its endpoint and raises;
2. **heartbeat** — a daemon thread posts a monotonically increasing
   ``seq`` every ``heartbeat_interval`` seconds. After
   ``max_missed_heartbeats`` consecutive failures the coordinator is
   presumed gone and the worker shuts itself down cleanly — that is
   the "coordinator shutdown -> workers exit" contract of
   ``tests/test_cluster_faults.py``.

Shard execution reuses the scheduling layer verbatim: a dispatch
envelope reconstructs a :class:`~repro.runtime.plan.Shard`, a warm
:class:`~repro.runtime.executors.WorkerState` runs it, and
:func:`shard_views` packs the shard's subgraphs into a partial
``ViewSet`` without patterns. Psum needs the whole label group, so it
runs once, in the coordinator's merge
(:func:`~repro.runtime.cluster.coordinator.merge_results`).
"""

from __future__ import annotations

import threading
import uuid
from http.server import ThreadingHTTPServer
from typing import Any, Dict, Optional, Sequence

from repro.config import GvexConfig
from repro.exceptions import DeadlineExpiredError, TransportError
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.view import ExplanationView, ViewSet
from repro.matching.plan_cache import PLAN_CACHE
from repro.runtime.cluster import wire
from repro.runtime.cluster.transport import DEFAULT_TIMEOUT, post_json
from repro.runtime.executors import TaskResult, WorkerState
from repro.runtime.plan import Shard

#: default seconds between heartbeats (coordinator timeout should be
#: a comfortable multiple of this)
DEFAULT_HEARTBEAT_INTERVAL = 2.0
#: consecutive failed heartbeats before the worker presumes the
#: coordinator gone and exits cleanly
DEFAULT_MAX_MISSED = 3


class _WorkerServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, worker: "ClusterWorker"):
        from repro.runtime.cluster.handlers import WorkerHandler

        super().__init__(address, WorkerHandler)
        self.worker = worker

    # JsonRequestHandler contract
    @property
    def auth_token(self) -> Optional[str]:
        return self.worker.auth_token

    @property
    def max_body_bytes(self) -> int:
        return self.worker.max_body_bytes


class ClusterWorker:
    """One member of the fleet: serve shards for one (db, model) pair."""

    def __init__(
        self,
        db: GraphDatabase,
        model: GnnClassifier,
        coordinator_url: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_id: Optional[str] = None,
        auth_token: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        max_missed_heartbeats: int = DEFAULT_MAX_MISSED,
        transport_timeout: float = DEFAULT_TIMEOUT,
        max_body_bytes: int = 64 << 20,
    ) -> None:
        self.db = db
        self.model = model
        self.coordinator_url = coordinator_url.rstrip("/")
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self.auth_token = auth_token
        self.heartbeat_interval = heartbeat_interval
        self.max_missed_heartbeats = max_missed_heartbeats
        self.transport_timeout = transport_timeout
        self.max_body_bytes = max_body_bytes
        self._server = _WorkerServer((host, port), self)
        self._server_thread: Optional[threading.Thread] = None
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: shard execution is serialized — WorkerState (and the batched
        #: verifier scratch inside it) is warm, not thread-safe
        self._exec_lock = threading.Lock()
        #: worker-warm per-(method, seed, config) states across shards
        self._states: Dict[Any, WorkerState] = {}
        self.shards_run = 0
        #: set when the worker has shut down (tests wait on this)
        self.stopped = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ClusterWorker":
        """Serve, register, heartbeat — ready for dispatch.

        A failed registration closes the endpoint (``stopped`` is set
        and the port is released) and re-raises the
        :class:`~repro.exceptions.TransportError`.
        """
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"{self.worker_id}-server",
            daemon=True,
        )
        self._server_thread.start()
        try:
            post_json(
                f"{self.coordinator_url}/register",
                wire.encode_register(self.worker_id, self.url),
                token=self.auth_token,
                timeout=self.transport_timeout,
            )
        except TransportError:
            self.close()
            raise
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"{self.worker_id}-heartbeat",
            daemon=True,
        )
        self._heartbeat_thread.start()
        return self

    def request_stop(self) -> None:
        """Schedule a clean shutdown (from handler threads or signals)."""
        threading.Thread(target=self.close, daemon=True).start()

    def close(self) -> None:
        if self.stopped.is_set():
            return
        self.stopped.set()
        # shutdown() waits for a serve_forever loop: only a started
        # worker runs one
        if self._server_thread is not None:
            self._server.shutdown()
        self._server.server_close()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until the worker has shut down (True if it did)."""
        return self.stopped.wait(timeout=timeout)

    def __enter__(self) -> "ClusterWorker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # heartbeat
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        seq = 0
        missed = 0
        while not self.stopped.wait(timeout=self.heartbeat_interval):
            try:
                post_json(
                    f"{self.coordinator_url}/heartbeat",
                    wire.encode_heartbeat(self.worker_id, seq),
                    token=self.auth_token,
                    timeout=max(self.heartbeat_interval, 1.0),
                )
                missed = 0
            except TransportError:
                missed += 1
                if missed >= self.max_missed_heartbeats:
                    # coordinator gone (shut down or partitioned):
                    # exit cleanly rather than serving a ghost fleet
                    self.close()
                    return
            seq += 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _state_for(self, msg: wire.DispatchMessage) -> WorkerState:
        """A warm ``WorkerState`` per (method, seed, config) triple."""
        key = (msg.method, msg.seed, _config_key(msg.config))
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = WorkerState(
                    model=self.model,
                    config=msg.config,
                    db=self.db,
                    method=msg.method,
                    seed=msg.seed,
                    explainer_kwargs=dict(msg.explainer_kwargs),
                )
                self._states[key] = state
            return state

    def run_dispatch(self, msg: wire.DispatchMessage) -> Dict[str, Any]:
        """One shard: run it warm, return its subgraphs in an envelope.

        A dispatch whose ``deadline_seconds`` budget is already spent
        is *refused* (typed 504, never executed) — occupying the
        exec lock for work nobody is waiting on would starve live
        requests behind a dead one.
        """
        if msg.deadline_seconds is not None and msg.deadline_seconds <= 0:
            raise DeadlineExpiredError(
                f"shard {msg.shard_id} arrived with a spent deadline "
                f"budget ({msg.deadline_seconds:.3f}s); refusing"
            )
        state = self._state_for(msg)
        with self._exec_lock:
            results = state.run_shard(Shard(msg.label, msg.indices))
        with self._lock:
            self.shards_run += 1
        return wire.encode_result(
            job_id=msg.job_id,
            shard_id=msg.shard_id,
            worker_id=self.worker_id,
            views=shard_views(msg.label, results),
            inference_calls=sum(calls for _, _, _, calls in results),
        )

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "worker_id": self.worker_id,
            "coordinator": self.coordinator_url,
            "shards_run": self.shards_run,
            "plan_cache": PLAN_CACHE.stats(),
        }


def shard_views(label: int, results: Sequence[TaskResult]) -> ViewSet:
    """A shard's partial view set: its subgraphs, no patterns."""
    views = ViewSet()
    views.add(
        ExplanationView(
            label=label,
            subgraphs=[sub for _, _, sub, _ in results if sub is not None],
        )
    )
    return views


def _config_key(config: GvexConfig) -> str:
    """A hashable identity for a config (wire configs are canonical)."""
    import json

    return json.dumps(config.to_dict(), sort_keys=True, default=repr)


__all__ = [
    "ClusterWorker",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_MAX_MISSED",
    "shard_views",
]
