"""Fault injection for the wire-level cluster: kill, hang, lie, vanish.

Every distributed failure mode the coordinator promises to absorb is
induced for real here:

* **SIGKILL mid-shard** — a worker *process* (fork) is killed while a
  shard is in flight; the coordinator re-dispatches to the survivor
  and the merged ``ViewSet``'s sha256 matches the serial reference,
  with zero lost shards.
* **heartbeat timeout** — a registered worker that accepts the TCP
  dispatch but never answers *and never heartbeats* is declared dead
  by the missed-heartbeat reaper while its request still hangs, its
  in-flight shard re-dispatched immediately (straggler re-dispatch —
  the job must finish long before the request timeout would fire).
* **coordinator shutdown** — workers notice the missed heartbeats and
  exit cleanly on their own.
* **malformed results** — a registered endpoint answering garbage
  (wrong schema, missing fields, not JSON) is rejected with a typed
  error, marked dead, and its shard re-dispatched; a late-joining
  honest worker finishes the job.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.config import GvexConfig
from repro.exceptions import ClusterError, JournalError
from repro.graphs.io import viewset_to_dict
from repro.runtime import FaultPlan, FaultSpec, SerialExecutor, build_plan
from repro.runtime.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    RetryPolicy,
    ShardJournal,
    plan_content_key,
    wire,
)
from repro.runtime.cluster.transport import post_json

AUTH = "fault-secret"


def sha256_of(views) -> str:
    """The ISSUE's acceptance fingerprint: sha256 of the canonical JSON."""
    payload = json.dumps(viewset_to_dict(views), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def small_plan(trained_model, mutagen_db, shard_size=2):
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)
    return build_plan(
        mutagen_db, trained_model, config, shard_size=shard_size
    )


class SlowWorker(ClusterWorker):
    """A worker that lingers on every shard (to lose dispatch races)."""

    delay = 0.1

    def run_dispatch(self, msg):
        time.sleep(self.delay)
        return super().run_dispatch(msg)


# ----------------------------------------------------------------------
# SIGKILL mid-shard
# ----------------------------------------------------------------------
def _victim_main(db, model, coord_url, auth, queue):
    """Fork child: a worker that reports, then stalls, on every shard."""
    from repro.runtime.cluster import worker as worker_mod

    original = worker_mod.ClusterWorker.run_dispatch

    def stalling(self, msg):
        queue.put(("shard", msg.shard_id))
        time.sleep(60)  # parent SIGKILLs long before this returns
        return original(self, msg)

    worker_mod.ClusterWorker.run_dispatch = stalling
    worker = worker_mod.ClusterWorker(
        db, model, coord_url, auth_token=auth, worker_id="victim",
    )
    worker.start()
    queue.put(("up", worker.url))
    worker.join()


def test_sigkill_mid_shard_redispatches_bit_identical(
    trained_model, mutagen_db
):
    """Kill a worker process holding a shard: zero lost shards, and the
    final view set is (sha256-)identical to the serial reference."""
    plan = small_plan(trained_model, mutagen_db)
    assert len(plan.shards) >= 2
    serial, _ = SerialExecutor().run(plan)

    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    with ClusterCoordinator(
        auth_token=AUTH, heartbeat_timeout=30.0
    ) as coord:
        victim = ctx.Process(
            target=_victim_main,
            args=(mutagen_db, trained_model, coord.url, AUTH, queue),
            daemon=True,
        )
        victim.start()
        kind, _ = queue.get(timeout=30)
        assert kind == "up"
        with ClusterWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH, worker_id="survivor",
        ):
            coord.wait_for_workers(2, timeout=15)
            done = {}
            runner = threading.Thread(
                target=lambda: done.update(
                    zip(("views", "stats"), coord.run(plan))
                ),
                daemon=True,
            )
            runner.start()
            # wait until the victim *holds* a shard, then SIGKILL it
            kind, shard_id = queue.get(timeout=30)
            assert kind == "shard"
            victim.kill()
            victim.join(timeout=10)
            runner.join(timeout=120)
            assert not runner.is_alive(), "cluster run hung after SIGKILL"

    stats = done["stats"]
    assert stats["redispatched"] >= 1, "killed worker's shard was not requeued"
    assert stats["shards"] == len(plan.shards)  # zero lost shards
    assert sha256_of(done["views"]) == sha256_of(serial)


# ----------------------------------------------------------------------
# heartbeat timeout: silent straggler
# ----------------------------------------------------------------------
class _BlackHole:
    """Accepts TCP connections and never answers (a hung worker)."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.accepted = []
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self.sock.getsockname()
        return f"http://{host}:{port}"

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted.append(conn)  # hold open, never reply

    def close(self):
        try:
            self.sock.close()
        finally:
            for conn in self.accepted:
                try:
                    conn.close()
                except OSError:
                    pass


def test_heartbeat_timeout_marks_silent_worker_dead_and_redispatches(
    trained_model, mutagen_db
):
    """A worker that hangs without heartbeating loses its shard to the
    reaper *while the dispatch call is still blocked* — the job must
    finish far sooner than the (long) request timeout."""
    plan = small_plan(trained_model, mutagen_db, shard_size=2)
    assert len(plan.shards) >= 3
    serial, _ = SerialExecutor().run(plan)

    hole = _BlackHole()
    with ClusterCoordinator(
        auth_token=AUTH, heartbeat_timeout=1.0, request_timeout=120.0
    ) as coord:
        # the black hole registers like any worker, then goes silent
        post_json(
            f"{coord.url}/register",
            wire.encode_register("straggler", hole.url),
            token=AUTH,
        )
        with SlowWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH, worker_id="honest",
            heartbeat_interval=0.2,
        ):
            coord.wait_for_workers(2, timeout=15)
            started = time.monotonic()
            views, stats = coord.run(plan)
            elapsed = time.monotonic() - started
    hole.close()

    assert stats["redispatched"] >= 1
    assert elapsed < 60, "straggler shard waited for the request timeout"
    assert sha256_of(views) == sha256_of(serial)
    dead = {w["worker_id"]: w["alive"] for w in coord.workers()}
    assert dead["straggler"] is False
    assert dead["honest"] is True


def test_dead_worker_heartbeat_is_rejected(trained_model, mutagen_db):
    """A worker declared dead cannot heartbeat itself back to life."""
    with ClusterCoordinator(auth_token=AUTH, heartbeat_timeout=0.3) as coord:
        record = coord.register(wire.RegisterMessage("zombie", "http://x:1"))
        assert record["worker_id"] == "zombie"
        time.sleep(0.5)
        # reaping happens in the collect loop; simulate one sweep by
        # running a job with no live... easier: heartbeat after the
        # registry marks it dead via a failed dispatch
        with pytest.raises(ClusterError):
            coord.run(small_plan(trained_model, mutagen_db))
        with pytest.raises(ClusterError):
            coord.heartbeat(wire.HeartbeatMessage("zombie", 1))


# ----------------------------------------------------------------------
# coordinator shutdown -> workers exit cleanly
# ----------------------------------------------------------------------
def test_coordinator_shutdown_workers_exit_cleanly(
    trained_model, mutagen_db
):
    coord = ClusterCoordinator(auth_token=AUTH, heartbeat_timeout=5.0).start()
    workers = [
        ClusterWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH, worker_id=f"w{i}",
            heartbeat_interval=0.1, max_missed_heartbeats=2,
        ).start()
        for i in (1, 2)
    ]
    assert all(not w.stopped.is_set() for w in workers)
    coord.close()
    for worker in workers:
        assert worker.join(timeout=15), (
            f"{worker.worker_id} kept serving after the coordinator died"
        )


def test_worker_shutdown_route(trained_model, mutagen_db):
    """POST /shutdown stops a worker remotely (clean exit, 200 first)."""
    with ClusterCoordinator(auth_token=AUTH) as coord:
        worker = ClusterWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH,
        ).start()
        response = post_json(
            f"{worker.url}/shutdown", {}, token=AUTH, timeout=10
        )
        assert response["stopping"] is True
        assert worker.join(timeout=10)


def test_worker_that_cannot_register_closes_its_server(
    trained_model, mutagen_db
):
    """A register POST that fails stops the worker and frees its port:
    ``start()`` raises, so no ``with`` block would ever close it."""
    from repro.exceptions import TransportError

    worker = ClusterWorker(
        mutagen_db, trained_model, "http://127.0.0.1:9",  # discard
        auth_token=AUTH, transport_timeout=5.0,
    )
    host, port = worker._server.server_address[:2]
    with pytest.raises(TransportError):
        worker.start()
    assert worker.stopped.is_set()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, port), timeout=5).close()


@pytest.mark.parametrize("endpoint", ["worker", "coordinator"])
def test_closing_an_unstarted_endpoint_returns(
    trained_model, mutagen_db, endpoint
):
    """``close()`` before ``start()`` frees the port without waiting for
    a serve loop that never ran."""
    if endpoint == "worker":
        server = ClusterWorker(
            mutagen_db, trained_model, "http://127.0.0.1:9", worker_id="idle"
        )
    else:
        server = ClusterCoordinator()
    host, port = server._server.server_address[:2]
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive(), "close() hung on an unstarted endpoint"
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, port), timeout=5).close()


# ----------------------------------------------------------------------
# malformed results
# ----------------------------------------------------------------------
class _RogueWorker:
    """An endpoint that answers ``POST /shard`` with garbage."""

    def __init__(self, mode: str):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        rogue = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                rogue.requests += 1
                if rogue.mode == "not-json":
                    raw = b"<html>very much not json</html>"
                elif rogue.mode == "bad-schema":
                    raw = json.dumps(
                        {"schema": 999, "type": "result"}
                    ).encode()
                else:  # partial: right schema, missing required fields
                    raw = json.dumps(
                        {
                            "schema": wire.WIRE_SCHEMA_VERSION,
                            "type": "result",
                            "job_id": "whatever",
                        }
                    ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def log_message(self, *args):
                pass

        self.mode = mode
        self.requests = 0
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        threading.Thread(
            target=self.server.serve_forever, daemon=True
        ).start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.mark.parametrize("mode", ["partial", "bad-schema", "not-json"])
def test_malformed_result_rejected_and_shard_redispatched(
    trained_model, mutagen_db, mode
):
    plan = small_plan(trained_model, mutagen_db, shard_size=2)
    assert len(plan.shards) >= 3
    serial, _ = SerialExecutor().run(plan)

    rogue = _RogueWorker(mode)
    with ClusterCoordinator(auth_token=AUTH, heartbeat_timeout=30.0) as coord:
        post_json(
            f"{coord.url}/register",
            wire.encode_register("rogue", rogue.url),
            token=AUTH,
        )
        with SlowWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH, worker_id="honest",
        ):
            coord.wait_for_workers(2, timeout=15)
            views, stats = coord.run(plan)
    rogue.close()

    assert rogue.requests >= 1, "rogue never received a dispatch"
    assert stats["redispatched"] >= 1
    assert sha256_of(views) == sha256_of(serial)
    alive = {w["worker_id"]: w["alive"] for w in coord.workers()}
    assert alive["rogue"] is False


def test_all_workers_dead_raises_cluster_error(trained_model, mutagen_db):
    """No survivors -> a typed error, never a hang."""
    with ClusterCoordinator(auth_token=AUTH, heartbeat_timeout=5.0) as coord:
        post_json(
            f"{coord.url}/register",
            wire.encode_register("doomed", "http://127.0.0.1:9"),  # discard
            token=AUTH,
        )
        with pytest.raises(ClusterError, match="died|unfinished"):
            coord.run(small_plan(trained_model, mutagen_db))


def test_auth_required_on_cluster_posts(trained_model, mutagen_db):
    """Unauthenticated register/heartbeat/shard POSTs are 401s."""
    from repro.exceptions import TransportError

    with ClusterCoordinator(auth_token=AUTH) as coord:
        with pytest.raises(TransportError, match="401"):
            post_json(
                f"{coord.url}/register",
                wire.encode_register("w", "http://x:1"),
                token="wrong",
            )
        worker = ClusterWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH,
        ).start()
        try:
            with pytest.raises(TransportError, match="401"):
                post_json(f"{worker.url}/shutdown", {}, token=None)
        finally:
            worker.close()


# ----------------------------------------------------------------------
# transient blip: retried in place (the one-strike-death regression)
# ----------------------------------------------------------------------
def test_transient_reset_is_retried_in_place(trained_model, mutagen_db):
    """One injected connection reset mid-dispatch: the *same* worker
    completes the shard on retry — zero re-dispatches, zero strikes."""
    plan = small_plan(trained_model, mutagen_db, shard_size=2)
    serial, _ = SerialExecutor().run(plan)
    faults = FaultPlan([FaultSpec("dispatch", 0, "reset")])
    with ClusterCoordinator(
        auth_token=AUTH,
        heartbeat_timeout=30.0,
        fault_plan=faults,
        retry_policy=RetryPolicy(attempts=3, base_delay=0.01),
    ) as coord:
        with ClusterWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH, worker_id="steady",
        ):
            coord.wait_for_workers(1, timeout=15)
            views, stats = coord.run(plan)
        record = coord.workers()[0]

    assert faults.stats()["injected"] == 1, "the reset never fired"
    assert stats["redispatched"] == 0, "a transient blip cost a re-dispatch"
    assert stats["workers_used"] == 1
    assert record["state"] == "live" and record["strikes"] == 0
    assert sha256_of(views) == sha256_of(serial)


def test_exhausted_retries_quarantine_heartbeat_readmits(
    trained_model, mutagen_db
):
    """Three consecutive resets exhaust the retry budget: the worker is
    quarantined (not killed), its shard requeued, and its next
    heartbeat re-admits it — the fleet finishes with the same hands."""
    plan = small_plan(trained_model, mutagen_db, shard_size=2)
    serial, _ = SerialExecutor().run(plan)
    faults = FaultPlan([FaultSpec("dispatch", i, "reset") for i in range(3)])
    with ClusterCoordinator(
        auth_token=AUTH,
        heartbeat_timeout=30.0,
        fault_plan=faults,
        retry_policy=RetryPolicy(attempts=3, base_delay=0.01),
    ) as coord:
        with ClusterWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH, worker_id="comeback",
            heartbeat_interval=0.2,
        ):
            coord.wait_for_workers(1, timeout=15)
            views, stats = coord.run(plan)
        record = coord.workers()[0]

    assert faults.stats()["injected"] == 3
    assert stats["redispatched"] >= 1, "the exhausted shard was not requeued"
    assert record["state"] == "live", "heartbeat re-admission never happened"
    assert record["strikes"] == 1  # strikes survive re-admission
    assert sha256_of(views) == sha256_of(serial)


# ----------------------------------------------------------------------
# journal: durability, resume, torn writes
# ----------------------------------------------------------------------
def _result_envelopes(db, model, plan, job_id="job-journal"):
    """Every shard's result envelope, computed offline (no HTTP) through
    the same ``run_dispatch`` path a live worker uses."""
    worker = ClusterWorker(
        db, model, "http://127.0.0.1:1", worker_id="offline",
    )
    envelopes = {}
    try:
        for shard_id, shard in enumerate(plan.shards):
            msg = wire.decode_dispatch(
                wire.encode_dispatch(
                    job_id=job_id,
                    shard_id=shard_id,
                    label=shard.label,
                    indices=shard.indices,
                    method=plan.method,
                    seed=plan.seed,
                    config=plan.config,
                    explainer_kwargs=plan.explainer_kwargs,
                )
            )
            envelopes[shard_id] = worker.run_dispatch(msg)
    finally:
        worker.close()  # never started: frees the bound socket
    return envelopes


class TestJournal:
    @pytest.fixture(scope="class")
    def plan_and_envelopes(self, trained_model, mutagen_db):
        plan = small_plan(trained_model, mutagen_db, shard_size=2)
        return plan, _result_envelopes(mutagen_db, trained_model, plan)

    def test_content_key_is_stable_and_layout_sensitive(
        self, trained_model, mutagen_db, plan_and_envelopes
    ):
        plan, _ = plan_and_envelopes
        again = small_plan(trained_model, mutagen_db, shard_size=2)
        assert plan_content_key(plan) == plan_content_key(again)
        other_seed = build_plan(
            mutagen_db, trained_model, plan.config, seed=99, shard_size=2
        )
        assert plan_content_key(plan) != plan_content_key(other_seed)

    def test_truncated_final_line_is_skipped_and_healed(
        self, plan_and_envelopes, tmp_path
    ):
        plan, envelopes = plan_and_envelopes
        path = tmp_path / "torn.journal"
        with ShardJournal.for_plan(str(path), plan) as journal:
            for envelope in envelopes.values():
                journal.append(envelope)
        # SIGKILL artifact: the final record half-written, no newline
        *whole, last, _ = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(whole) + b"\n" + last[: len(last) // 2])

        resumed = ShardJournal.for_plan(str(path), plan)
        assert len(resumed.completed) == len(envelopes) - 1
        assert resumed.skipped == 1
        # healing: the next append first terminates the fragment, so the
        # fragment stays one (skippable) corrupt line forever
        missing = sorted(set(envelopes) - set(resumed.completed))[0]
        resumed.append(envelopes[missing])
        resumed.close()
        healed = ShardJournal.for_plan(str(path), plan)
        assert set(healed.completed) == set(envelopes)
        assert healed.skipped == 1
        healed.close()

    def test_duplicate_records_first_wins(self, plan_and_envelopes, tmp_path):
        plan, envelopes = plan_and_envelopes
        path = tmp_path / "dup.journal"
        with ShardJournal.for_plan(str(path), plan) as journal:
            journal.append(envelopes[0])
            journal.append(envelopes[0])  # straggler duplicate
            journal.append(envelopes[1])
        resumed = ShardJournal.for_plan(str(path), plan)
        assert sorted(resumed.completed) == [0, 1]
        assert resumed.skipped == 1
        resumed.close()

    def test_foreign_plan_key_is_typed_error(
        self, trained_model, mutagen_db, plan_and_envelopes, tmp_path
    ):
        plan, envelopes = plan_and_envelopes
        path = tmp_path / "stale.journal"
        with ShardJournal.for_plan(str(path), plan) as journal:
            journal.append(envelopes[0])
        other = build_plan(
            mutagen_db, trained_model, plan.config, seed=99, shard_size=2
        )
        with pytest.raises(JournalError, match="different plan"):
            ShardJournal.for_plan(str(path), other)

    def test_resume_after_resume_is_idempotent(
        self, plan_and_envelopes, tmp_path
    ):
        plan, envelopes = plan_and_envelopes
        path = tmp_path / "twice.journal"
        with ShardJournal.for_plan(str(path), plan) as journal:
            journal.append(envelopes[0])
            journal.append(envelopes[1])
        first = ShardJournal.for_plan(str(path), plan)
        first.close()
        size_after_first = path.stat().st_size
        second = ShardJournal.for_plan(str(path), plan)
        second.close()
        assert sorted(second.completed) == sorted(first.completed) == [0, 1]
        assert second.skipped == 0
        assert path.stat().st_size == size_after_first  # resume writes nothing


# ----------------------------------------------------------------------
# crash-resume: SIGKILL the coordinator, resume bit-identical
# ----------------------------------------------------------------------
def _doomed_coordinator_main(db, model, journal_path, auth, queue):
    """Fork child: a coordinator + slow worker mid-job, built to die."""
    plan = small_plan(model, db, shard_size=2)
    coord = ClusterCoordinator(auth_token=auth, heartbeat_timeout=30.0).start()
    worker = SlowWorker(
        db, model, coord.url, auth_token=auth, worker_id="doomed-w",
    )
    worker.delay = 0.3  # a wide window for the parent's SIGKILL
    worker.start()
    coord.wait_for_workers(1, timeout=15)
    journal = ShardJournal.for_plan(journal_path, plan)
    queue.put("running")
    coord.run(plan, journal=journal)
    queue.put("finished")  # parent was too slow (tolerated: resume is total)


def test_sigkill_coordinator_resumes_bit_identical(
    trained_model, mutagen_db, tmp_path
):
    """SIGKILL the coordinator process mid-job: a fresh coordinator
    resuming from the fsync'd journal skips every durable shard and
    merges a ViewSet sha256-identical to the serial reference."""
    plan = small_plan(trained_model, mutagen_db, shard_size=2)
    serial, _ = SerialExecutor().run(plan)
    path = str(tmp_path / "crash.journal")

    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    victim = ctx.Process(
        target=_doomed_coordinator_main,
        args=(mutagen_db, trained_model, path, AUTH, queue),
        daemon=True,
    )
    victim.start()
    assert queue.get(timeout=60) == "running"
    # wait until >= 1 shard is durably journaled (header + 1 record),
    # then SIGKILL the whole coordinator process
    give_up = time.monotonic() + 60
    while time.monotonic() < give_up:
        if os.path.exists(path) and Path(path).read_bytes().count(b"\n") >= 2:
            break
        time.sleep(0.05)
    else:
        pytest.fail("no shard was journaled within 60s")
    victim.kill()
    victim.join(timeout=10)

    journal = ShardJournal.for_plan(path, plan)
    resumed = len(journal.completed)
    assert resumed >= 1, "the fsync'd record did not survive SIGKILL"
    with ClusterCoordinator(auth_token=AUTH, heartbeat_timeout=30.0) as coord:
        with ClusterWorker(
            mutagen_db, trained_model, coord.url,
            auth_token=AUTH, worker_id="phoenix",
        ):
            coord.wait_for_workers(1, timeout=15)
            views, stats = coord.run(plan, journal=journal)
    journal.close()

    assert stats["resumed"] == resumed, "resumed shards were re-dispatched"
    assert stats["shards"] == len(plan.shards)
    assert sha256_of(views) == sha256_of(serial)


@pytest.mark.parametrize("dataset", ["pcqm4m", "enzymes"])
def test_crash_resume_parity_across_zoo(dataset, tmp_path):
    """Resume from a half-written (torn) journal on two zoo datasets:
    replayed shards are skipped, the merge is sha256-identical, and a
    *complete* journal resumes with no fleet at all."""
    from repro.datasets import get_trained

    trained = get_trained(dataset, scale="test", seed=0)
    config = GvexConfig(theta=0.08, radius=0.35).with_bounds(0, 6)
    plan = build_plan(trained.db, trained.model, config, shard_size=2)
    assert len(plan.shards) >= 3
    serial, _ = SerialExecutor().run(plan)
    envelopes = _result_envelopes(trained.db, trained.model, plan)

    # the crash artifact: half the records, then a torn partial line
    path = tmp_path / f"{dataset}.journal"
    keep = len(plan.shards) // 2
    with ShardJournal.for_plan(str(path), plan) as journal:
        for shard_id in range(keep):
            journal.append(envelopes[shard_id])
    with open(path, "ab") as fh:
        fh.write(b'{"shard_id": 999, "sha')  # SIGKILL mid-append

    journal = ShardJournal.for_plan(str(path), plan)
    assert len(journal.completed) == keep
    assert journal.skipped == 1
    with ClusterCoordinator(auth_token=AUTH, heartbeat_timeout=30.0) as coord:
        with ClusterWorker(
            trained.db, trained.model, coord.url,
            auth_token=AUTH, worker_id="resumer",
        ):
            coord.wait_for_workers(1, timeout=15)
            views, stats = coord.run(plan, journal=journal)
    journal.close()
    assert stats["resumed"] == keep
    assert stats["shards"] == len(plan.shards)
    assert sha256_of(views) == sha256_of(serial)

    # resume-of-the-resume: the journal is now complete, so a fresh
    # coordinator finishes the job without a single worker
    final = ShardJournal.for_plan(str(path), plan)
    assert len(final.completed) == len(plan.shards)
    with ClusterCoordinator(auth_token=AUTH) as lone:
        views2, stats2 = lone.run(plan, journal=final)
    final.close()
    assert stats2["resumed"] == len(plan.shards)
    assert sha256_of(views2) == sha256_of(serial)


# ----------------------------------------------------------------------
# chaos soak: seeded faults, two workers, bit-identical views
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("seed", [11, 23, 47])
def test_chaos_soak_bit_identical(trained_model, mutagen_db, seed, tmp_path):
    """A live 2-worker cluster under a seeded fault schedule (drops,
    resets, timeouts, 503s, delays) still merges views sha256-identical
    to the serial reference — and the schedule is reproducible."""
    plan = small_plan(trained_model, mutagen_db, shard_size=2)
    serial, _ = SerialExecutor().run(plan)

    fault_args = dict(sites=("dispatch",), rate=0.2, horizon=96, delay=0.01)
    faults = FaultPlan.seeded(seed, **fault_args)
    # re-running a seed reproduces the identical fault sequence
    assert faults.schedule() == FaultPlan.seeded(seed, **fault_args).schedule()

    artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    out_dir = Path(artifact_dir) if artifact_dir else tmp_path
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / f"chaos-seed{seed}.journal"
    journal_path.unlink(missing_ok=True)

    with ClusterCoordinator(
        auth_token=AUTH,
        heartbeat_timeout=30.0,
        fault_plan=faults,
        retry_policy=RetryPolicy(attempts=4, base_delay=0.01, seed=seed),
    ) as coord:
        with ClusterWorker(
            mutagen_db, trained_model, coord.url, auth_token=AUTH,
            worker_id="chaos-0", heartbeat_interval=0.25,
        ), ClusterWorker(
            mutagen_db, trained_model, coord.url, auth_token=AUTH,
            worker_id="chaos-1", heartbeat_interval=0.25,
        ):
            coord.wait_for_workers(2, timeout=15)
            with ShardJournal.for_plan(str(journal_path), plan) as journal:
                views, stats = coord.run(plan, journal=journal)

    assert stats["shards"] == len(plan.shards)
    assert sha256_of(views) == sha256_of(serial)
    # the journal holds every shard: a crash *after* this run resumes free
    replay = ShardJournal.for_plan(str(journal_path), plan)
    assert len(replay.completed) == len(plan.shards)
    replay.close()
