"""The cluster coordinator: registry, heartbeats, dispatch, merge.

One :class:`ClusterCoordinator` owns a threaded HTTP endpoint and the
cluster's authoritative worker registry:

``POST /register``   a worker announces its dispatch URL
``POST /heartbeat``  a worker's liveness beacon
``GET  /status``     registry + job bookkeeping (diagnostics)

Jobs run through :meth:`ClusterCoordinator.run`: the plan's label-group
shards become :data:`~repro.runtime.cluster.wire.MSG_DISPATCH`
envelopes in a pending queue; one dispatcher thread per live worker
drains it with synchronous ``POST /shard`` calls; each shard's
explanation subgraphs come back in a ``result`` envelope, and
:func:`merge_results` unions them by label and runs the one Psum tail,
:func:`~repro.runtime.plan.assemble_views`, once per label group —
the same tail :class:`~repro.runtime.executors.SerialExecutor` runs,
so the merged views are bit-identical to the serial reference.

Fault model (tests/test_cluster_faults.py, docs/distribution.md):

* A dispatch that fails **transiently** (connection refused/reset,
  timeout, 408/429/5xx) is retried in place by the coordinator's
  :class:`~repro.runtime.cluster.transport.RetryPolicy` — the same
  worker usually completes the shard with zero re-dispatches. Only
  when the policy is exhausted does the circuit breaker act: the
  worker is **quarantined** (no new dispatches; its in-flight shard is
  requeued) until a successful heartbeat re-admits it. A worker that
  accumulates ``breaker_threshold`` strikes, or fails **fatally**
  (401/404, malformed or wrong-schema result envelope), is marked
  dead and must re-register.
* A worker whose heartbeat goes silent for ``heartbeat_timeout``
  seconds is marked dead by the collect loop and its in-flight shards
  are requeued *immediately*, even while a stale dispatch call is
  still hanging (straggler re-dispatch). Duplicate results are
  harmless: shard work is deterministic and only the first result per
  shard is recorded.
* When every worker is dead and shards remain, :class:`ClusterError`
  surfaces — nothing hangs. When the plan carries a
  :class:`~repro.runtime.deadline.Deadline` and it expires,
  :class:`~repro.exceptions.DeadlineExpiredError` surfaces instead
  (the HTTP layer maps it to 504).

Durability: pass ``journal=`` (a
:class:`~repro.runtime.cluster.journal.ShardJournal`) to
:meth:`ClusterCoordinator.run` and every completed shard's result
envelope is fsync'd before it counts; a journal opened on an existing
file pre-seeds the job with its replayed shards, so a coordinator
killed mid-run resumes without re-executing (or re-paying for) any
completed shard.

:class:`DistributedExecutor` adapts a coordinator to the
:class:`~repro.runtime.executors.Executor` surface. Every plan ships:
StreamGVEX plans and per-group ApproxGVEX plans (one shard per label
group) run on the workers like any other.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from http.server import ThreadingHTTPServer
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import (
    ClusterError,
    DeadlineExpiredError,
    TransportError,
    WireError,
)
from repro.graphs.view import ExplanationSubgraph, ViewSet
from repro.runtime.cluster import wire
from repro.runtime.cluster.transport import RetryPolicy, post_json
from repro.runtime.executors import Executor
from repro.runtime.plan import ExplainPlan, assemble_views

#: a worker missing heartbeats for this long is declared dead
DEFAULT_HEARTBEAT_TIMEOUT = 10.0
#: per-dispatch HTTP timeout (a shard must answer within this)
DEFAULT_REQUEST_TIMEOUT = 300.0
#: strikes (exhausted-retry failures) before quarantine becomes death
DEFAULT_BREAKER_THRESHOLD = 3

#: circuit-breaker states (docs/distribution.md state machine)
STATE_LIVE = "live"
STATE_QUARANTINED = "quarantined"
STATE_DEAD = "dead"


class WorkerRecord:
    """Coordinator-side view of one registered worker.

    ``state`` is the circuit breaker: ``live`` workers receive
    dispatches; ``quarantined`` workers (exhausted a retry budget) do
    not, but a successful heartbeat re-admits them; ``dead`` workers
    (fatal error, ``breaker_threshold`` strikes, or heartbeat silence)
    must re-register.
    """

    def __init__(self, worker_id: str, url: str) -> None:
        self.worker_id = worker_id
        self.url = url.rstrip("/")
        self.state = STATE_LIVE
        self.strikes = 0
        self.last_seen = time.monotonic()
        self.seq = -1
        self.shards_done = 0

    @property
    def alive(self) -> bool:
        return self.state == STATE_LIVE

    @alive.setter
    def alive(self, value: bool) -> None:
        self.state = STATE_LIVE if value else STATE_DEAD

    def touch(self, seq: int) -> None:
        self.last_seen = time.monotonic()
        self.seq = max(self.seq, seq)

    def describe(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "url": self.url,
            "alive": self.alive,
            "state": self.state,
            "strikes": self.strikes,
            "seq": self.seq,
            "age": round(time.monotonic() - self.last_seen, 3),
            "shards_done": self.shards_done,
        }


class _CoordinatorServer(ThreadingHTTPServer):
    """The HTTP face of a coordinator (handler plumbing lives below)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, coordinator: "ClusterCoordinator"):
        from repro.runtime.cluster.handlers import CoordinatorHandler

        super().__init__(address, CoordinatorHandler)
        self.coordinator = coordinator

    # JsonRequestHandler contract
    @property
    def auth_token(self) -> Optional[str]:
        return self.coordinator.auth_token

    @property
    def max_body_bytes(self) -> int:
        return self.coordinator.max_body_bytes


class ClusterCoordinator:
    """Own the worker registry and drive explain jobs over the wire."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth_token: Optional[str] = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_body_bytes: int = 64 << 20,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        fault_plan: Optional[Any] = None,
    ) -> None:
        self.auth_token = auth_token
        self.heartbeat_timeout = heartbeat_timeout
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker_threshold = breaker_threshold
        #: optional deterministic FaultPlan for chaos tests (docs/faults.md)
        self.fault_plan = fault_plan
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._workers: Dict[str, WorkerRecord] = {}
        self._jobs_run = 0
        self._redispatches = 0
        self._server = _CoordinatorServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ClusterCoordinator":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="cluster-coordinator",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # shutdown() waits for a serve_forever loop: only a started
        # coordinator runs one
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
        self._server.server_close()
        with self._wake:
            self._wake.notify_all()

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # registry (called from handler threads)
    # ------------------------------------------------------------------
    def register(self, msg: wire.RegisterMessage) -> Dict[str, Any]:
        with self._wake:
            record = WorkerRecord(msg.worker_id, msg.url)
            self._workers[msg.worker_id] = record
            self._wake.notify_all()
        return {"worker_id": msg.worker_id, "heartbeat": self.heartbeat_timeout}

    def heartbeat(self, msg: wire.HeartbeatMessage) -> Dict[str, Any]:
        with self._wake:
            record = self._workers.get(msg.worker_id)
            if record is None or record.state == STATE_DEAD:
                # a dead/unknown worker must re-register, not resume:
                # its previous in-flight shards were already requeued
                raise ClusterError(
                    f"worker {msg.worker_id!r} is not registered (or was "
                    "declared dead); re-register"
                )
            if record.state == STATE_QUARANTINED:
                # breaker re-admission: the worker answered, so its
                # transient trouble has passed; strikes are kept — a
                # repeat offender still walks toward breaker_threshold
                record.state = STATE_LIVE
                self._wake.notify_all()
            record.touch(msg.seq)
        return {"worker_id": msg.worker_id, "alive": True}

    def workers(self, alive_only: bool = False) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._workers.values())
        return [
            r.describe() for r in records if r.alive or not alive_only
        ]

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` live workers are registered."""
        deadline = time.monotonic() + timeout
        with self._wake:
            while True:
                live = sum(1 for r in self._workers.values() if r.alive)
                if live >= count:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    raise ClusterError(
                        f"only {live}/{count} workers registered within "
                        f"{timeout:.1f}s"
                    )
                self._wake.wait(timeout=min(remaining, 0.5))

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "status": "ok",
                "workers": [r.describe() for r in self._workers.values()],
                "jobs_run": self._jobs_run,
                "redispatches": self._redispatches,
                "heartbeat_timeout": self.heartbeat_timeout,
                "breaker_threshold": self.breaker_threshold,
                "retry_attempts": self.retry_policy.attempts,
                "auth": self.auth_token is not None,
            }

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def run(
        self,
        plan: ExplainPlan,
        job_id: Optional[str] = None,
        *,
        journal: Optional[Any] = None,
    ) -> Tuple[ViewSet, Dict[str, int]]:
        """Dispatch a plan's shards to the fleet; merge the partials.

        Bit-parity contract: each worker returns one partial
        ``ViewSet`` per shard (that shard's subgraphs);
        :func:`merge_results` unions them by label and runs the Psum
        tail once per label group, exactly as the serial schedule does.

        ``journal`` (a :class:`~repro.runtime.cluster.journal.ShardJournal`)
        makes the run durable: its replayed shards pre-seed the job
        (``stats["resumed"]`` counts them, and they are *not*
        re-dispatched) and every newly completed shard is fsync'd
        before it counts toward completion.
        """
        job_id = job_id or f"job-{uuid.uuid4().hex[:12]}"
        envelopes = {
            shard_id: wire.encode_dispatch(
                job_id=job_id,
                shard_id=shard_id,
                label=shard.label,
                indices=shard.indices,
                method=plan.method,
                seed=plan.seed,
                config=plan.config,
                explainer_kwargs=plan.explainer_kwargs,
            )
            for shard_id, shard in enumerate(plan.shards)
        }
        job = _Job(
            self, job_id, envelopes, deadline=plan.deadline, journal=journal
        )
        views, stats = job.collect(plan)
        with self._lock:
            self._jobs_run += 1
            self._redispatches += stats.get("redispatched", 0)
        return views, stats


class _Job:
    """Bookkeeping for one in-flight dispatch/collect cycle."""

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        job_id: str,
        envelopes: Dict[int, Dict[str, Any]],
        *,
        deadline=None,
        journal=None,
    ) -> None:
        self.coord = coordinator
        self.job_id = job_id
        self.envelopes = envelopes
        self.deadline = deadline
        self.journal = journal
        self.lock = threading.Lock()
        self.done = threading.Condition(self.lock)
        #: worker_id -> shard ids currently posted to that worker
        self.in_flight: Dict[str, Set[int]] = {}
        self.results: Dict[int, wire.ResultMessage] = {}
        self.resumed = 0
        if journal is not None:
            # journal replay pre-seeds the job: those shards are done,
            # durable, and never enter the pending queue
            for shard_id, msg in journal.completed.items():
                if shard_id in envelopes:
                    self.results[shard_id] = msg
                    self.resumed += 1
        self.pending: Deque[int] = deque(
            sid for sid in sorted(envelopes) if sid not in self.results
        )
        self.redispatched = 0
        self.dispatchers: Dict[str, threading.Thread] = {}

    # -- dispatcher side ------------------------------------------------
    def _next_shard(self, worker_id: str) -> Optional[int]:
        with self.lock:
            if not self.pending:
                return None
            shard_id = self.pending.popleft()
            self.in_flight.setdefault(worker_id, set()).add(shard_id)
            return shard_id

    def _record(
        self,
        worker_id: str,
        shard_id: int,
        msg: wire.ResultMessage,
        envelope: Optional[Dict[str, Any]] = None,
    ) -> None:
        with self.done:
            self.in_flight.get(worker_id, set()).discard(shard_id)
            # first result wins; a duplicate from a requeued shard is
            # bit-identical anyway (deterministic work), so dropping it
            # keeps the stats exact without affecting the views
            if shard_id not in self.results:
                if self.journal is not None and envelope is not None:
                    # fsync'd before the shard counts: a result the
                    # coordinator acknowledged survives SIGKILL
                    self.journal.append(envelope)
                self.results[shard_id] = msg
            self.done.notify_all()

    def _requeue_locked(self, shard_ids: Set[int]) -> None:
        """Put un-finished shards back on the queue (caller holds lock)."""
        for shard_id in sorted(shard_ids):
            if shard_id not in self.results and shard_id not in self.pending:
                self.pending.append(shard_id)
                self.redispatched += 1

    def _mark_failed(self, worker_id: str, *, fatal: bool) -> None:
        """Circuit breaker: quarantine on exhausted retries, kill on
        fatal errors or ``breaker_threshold`` accumulated strikes."""
        with self.coord._lock:
            record = self.coord._workers.get(worker_id)
            if record is not None and record.state != STATE_DEAD:
                record.strikes += 1
                if fatal or record.strikes >= self.coord.breaker_threshold:
                    record.state = STATE_DEAD
                else:
                    record.state = STATE_QUARANTINED
            else:
                record = None
        with self.done:
            if record is not None or self.in_flight.get(worker_id):
                self._requeue_locked(self.in_flight.pop(worker_id, set()))
            self.done.notify_all()

    def _return_shard(self, worker_id: str, shard_id: int) -> None:
        """Give a shard back without blaming the worker (deadline)."""
        with self.done:
            self.in_flight.get(worker_id, set()).discard(shard_id)
            if shard_id not in self.results and shard_id not in self.pending:
                self.pending.append(shard_id)
            self.done.notify_all()

    def _dispatch_loop(self, worker_id: str, url: str) -> None:
        while True:
            shard_id = self._next_shard(worker_id)
            if shard_id is None:
                return
            envelope = self.envelopes[shard_id]
            try:
                if self.deadline is not None:
                    # the wire carries the *remaining* budget (relative
                    # seconds — monotonic clocks are per-process)
                    self.deadline.require(f"dispatching shard {shard_id}")
                    envelope = dict(envelope)
                    envelope["deadline_seconds"] = self.deadline.remaining()
                response = self.coord.retry_policy.call(
                    lambda: post_json(
                        f"{url}/shard",
                        envelope,
                        token=self.coord.auth_token,
                        timeout=self.coord.request_timeout,
                        faults=self.coord.fault_plan,
                        site="dispatch",
                    ),
                    salt=f"{worker_id}:{shard_id}",
                    deadline=self.deadline,
                )
                msg = wire.decode_result(response)
                if msg.job_id != self.job_id or msg.shard_id != shard_id:
                    raise WireError(
                        f"worker {worker_id!r} answered for "
                        f"job={msg.job_id!r} shard={msg.shard_id} "
                        f"(wanted job={self.job_id!r} shard={shard_id})"
                    )
            except DeadlineExpiredError:
                # the *job* ran out of budget — the worker is blameless;
                # collect() surfaces the typed 504
                self._return_shard(worker_id, shard_id)
                return
            except TransportError as exc:
                if exc.status == 504:
                    # the worker refused a spent budget: same story
                    self._return_shard(worker_id, shard_id)
                    return
                # the retry policy already absorbed transient blips;
                # reaching here means exhausted retries (quarantine)
                # or a fatal class (dead)
                self._mark_failed(worker_id, fatal=not exc.transient)
                return
            except WireError:
                # a peer that speaks garbage cannot be trusted at all
                self._mark_failed(worker_id, fatal=True)
                return
            with self.coord._lock:
                record = self.coord._workers.get(worker_id)
                dead = record is None or not record.alive
                if record is not None:
                    record.shards_done += 1
            # recording is safe even if this worker was declared dead
            # (heartbeat timeout) while the call was hanging: its shards
            # were already requeued, and first-result-wins keeps the
            # merge exact because the duplicate is bit-identical
            self._record(worker_id, shard_id, msg, envelope=response)
            if dead:
                return

    # -- collect side ---------------------------------------------------
    def _live_workers(self) -> List[WorkerRecord]:
        with self.coord._lock:
            return [r for r in self.coord._workers.values() if r.alive]

    def _breathing_workers(self) -> List[WorkerRecord]:
        """Live *or* quarantined — anyone who might still do work."""
        with self.coord._lock:
            return [
                r
                for r in self.coord._workers.values()
                if r.state != STATE_DEAD
            ]

    def _reap_silent(self) -> None:
        """Declare heartbeat-silent workers dead; requeue their shards."""
        now = time.monotonic()
        stale: List[str] = []
        with self.coord._lock:
            for record in self.coord._workers.values():
                # quarantined workers are reaped too: re-admission
                # comes from a heartbeat, so heartbeat silence means
                # the quarantine can never lift — without this they
                # would keep the job "breathing" forever
                if record.state != STATE_DEAD and (
                    now - record.last_seen > self.coord.heartbeat_timeout
                ):
                    record.state = STATE_DEAD
                    stale.append(record.worker_id)
        for worker_id in stale:
            with self.done:
                self._requeue_locked(self.in_flight.pop(worker_id, set()))
                self.done.notify_all()

    def _ensure_dispatchers(self) -> None:
        """One dispatcher thread per live worker (join-late included)."""
        for record in self._live_workers():
            thread = self.dispatchers.get(record.worker_id)
            if thread is not None and thread.is_alive():
                continue
            with self.lock:
                if not self.pending:
                    continue
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(record.worker_id, record.url),
                name=f"dispatch-{record.worker_id}",
                daemon=True,
            )
            self.dispatchers[record.worker_id] = thread
            thread.start()

    def collect(self, plan: ExplainPlan) -> Tuple[ViewSet, Dict[str, int]]:
        with self.done:
            complete = len(self.results) == len(self.envelopes)
        if not complete and not self._live_workers():
            # a fully journal-resumed job needs no fleet at all
            raise ClusterError(
                "no live workers registered; start workers (repro.cli "
                "cluster-worker) or wait_for_workers() first"
            )
        poll = max(min(self.coord.heartbeat_timeout / 4, 0.5), 0.05)
        while not complete:
            if self.deadline is not None:
                self.deadline.require(f"job {self.job_id!r} completion")
            self._reap_silent()
            self._ensure_dispatchers()
            with self.done:
                if len(self.results) == len(self.envelopes):
                    break
                self.done.wait(timeout=poll)
                if len(self.results) == len(self.envelopes):
                    break
                unfinished = len(self.envelopes) - len(self.results)
            if unfinished and not self._live_workers():
                # quarantined workers may yet be re-admitted by a
                # heartbeat; only an all-dead fleet is hopeless
                if not self._breathing_workers():
                    raise ClusterError(
                        f"job {self.job_id!r}: every worker died with "
                        f"{unfinished} shard(s) unfinished "
                        f"(re-dispatched {self.redispatched})"
                    )
        calls = sum(self.results[sid].inference_calls for sid in self.results)
        merged = merge_results(
            [self.results[sid] for sid in sorted(self.results)], plan
        )
        return merged, {
            "inference_calls": calls,
            "redispatched": self.redispatched,
            "resumed": self.resumed,
            "workers_used": len({r.worker_id for r in self.results.values()}),
            "shards": len(self.envelopes),
        }


def merge_results(
    results: Iterable[wire.ResultMessage], plan: ExplainPlan
) -> ViewSet:
    """Union every result's subgraphs by label; one Psum per label.

    Only the subgraphs are read: patterns a partial view may carry
    (results journaled by workers that summarized their own shard) are
    ignored, because Psum must see the whole label group.
    :func:`~repro.runtime.plan.assemble_views` orders each group by
    graph index, as the serial shard loop does.
    """
    subgraphs: Dict[Any, List[ExplanationSubgraph]] = {l: [] for l in plan.labels}
    for msg in results:
        for view in msg.views:
            subgraphs.setdefault(view.label, []).extend(view.subgraphs)
    return assemble_views(subgraphs, plan.config, plan.labels)


class DistributedExecutor(Executor):
    """The cluster behind the standard ``Executor`` surface: every
    plan's shards ship over the wire."""

    name = "distributed"

    def __init__(self, coordinator: ClusterCoordinator):
        self.coordinator = coordinator

    def run(self, plan: ExplainPlan) -> Tuple[ViewSet, Dict[str, int]]:
        return self.coordinator.run(plan)


__all__ = [
    "ClusterCoordinator",
    "DistributedExecutor",
    "WorkerRecord",
    "merge_results",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_BREAKER_THRESHOLD",
    "STATE_LIVE",
    "STATE_QUARANTINED",
    "STATE_DEAD",
]
