"""Deadline propagation, retry classification, and budget accounting.

The fault-discipline contract (docs/faults.md, docs/api.md):

* a :class:`~repro.runtime.deadline.Deadline` is a monotonic budget —
  never wall clock — threaded from ``/explain`` through the work
  queue, the plan, the executors, and the cluster dispatch envelope;
* expiry surfaces as the typed
  :class:`~repro.exceptions.DeadlineExpiredError`, mapped to a
  structured ``504`` by every HTTP layer, and is accounted under the
  queue's ``expired`` counter — never ``failed`` — with zero depth
  leaks;
* :class:`~repro.runtime.cluster.transport.RetryPolicy` retries only
  *transient* transport errors, with deterministic seeded jitter, and
  never sleeps past the deadline;
* the serial and fork-pool executors re-check the budget between
  shards, in the parent, and raise instead of publishing views;
* workers refuse a dispatch whose wire budget is already spent.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ExplanationService, create_server
from repro.config import GvexConfig
from repro.exceptions import (
    DeadlineExpiredError,
    TransportError,
    ValidationError,
    WireError,
)
from repro.runtime import (
    BoundedWorkQueue,
    Deadline,
    ForkPoolExecutor,
    SerialExecutor,
    WorkerState,
    build_plan,
)
from repro.runtime.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    RetryPolicy,
    wire,
)
from repro.runtime.cluster.transport import post_json

AUTH = "deadline-secret"


# ----------------------------------------------------------------------
# Deadline: the monotonic budget primitive
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValidationError):
            Deadline.after(0.0)
        with pytest.raises(ValidationError):
            Deadline.after(-1.0)

    def test_from_budget_none_is_none(self):
        assert Deadline.from_budget(None) is None
        assert isinstance(Deadline.from_budget(5.0), Deadline)

    def test_remaining_clamps_and_expired_flips(self):
        d = Deadline.after(0.02)
        assert 0.0 < d.remaining() <= 0.02
        assert not d.expired
        time.sleep(0.03)
        assert d.remaining() == 0.0
        assert d.expired

    def test_require_raises_typed_with_context(self):
        d = Deadline.after(1e-4)
        time.sleep(0.002)
        with pytest.raises(DeadlineExpiredError, match="merging partials"):
            d.require("merging partials")


# ----------------------------------------------------------------------
# RetryPolicy: classification, determinism, deadline capping
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_jitter_is_deterministic_per_seed_and_salt(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.delay(i, "w0:3") for i in range(3)] == [
            b.delay(i, "w0:3") for i in range(3)
        ]
        assert a.delay(0, "w0:3") != a.delay(0, "w1:3")
        assert RetryPolicy(seed=8).delay(0, "w0:3") != a.delay(0, "w0:3")

    def test_delay_respects_cap(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.5)
        assert all(policy.delay(i) <= 1.5 for i in range(8))

    def test_transient_errors_are_retried_to_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransportError("connection reset", status=None)
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.001)
        assert policy.call(flaky) == "ok"
        assert len(calls) == 3

    def test_fatal_status_raises_immediately(self):
        calls = []

        def unauthorized():
            calls.append(1)
            raise TransportError("401 unauthorized", status=401)

        policy = RetryPolicy(attempts=5, base_delay=0.001)
        with pytest.raises(TransportError) as err:
            policy.call(unauthorized)
        assert len(calls) == 1
        assert err.value.transient is False

    def test_exhausted_retries_reraise_last(self):
        calls = []

        def always_503():
            calls.append(1)
            raise TransportError("503 busy", status=503)

        policy = RetryPolicy(attempts=3, base_delay=0.001)
        with pytest.raises(TransportError) as err:
            policy.call(always_503)
        assert len(calls) == 3
        assert err.value.status == 503

    def test_spent_deadline_preempts_the_attempt(self):
        deadline = Deadline.after(1e-4)
        time.sleep(0.002)
        calls = []
        with pytest.raises(DeadlineExpiredError):
            RetryPolicy().call(lambda: calls.append(1), deadline=deadline)
        assert calls == []

    def test_classification_table(self):
        for status in (408, 429, 500, 502, 503, 504):
            assert TransportError("x", status=status).transient is True
        for status in (400, 401, 403, 404):
            assert TransportError("x", status=status).transient is False
        # connection-level failures carry no status and are transient
        assert TransportError("refused").transient is True
        # explicit classification wins over the status heuristic
        assert TransportError("x", status=503, transient=False).transient is False


# ----------------------------------------------------------------------
# wire: the optional deadline_seconds dispatch field
# ----------------------------------------------------------------------
def _dispatch_env(plan, deadline_seconds=None):
    shard = plan.shards[0]
    return wire.encode_dispatch(
        job_id="job-x",
        shard_id=0,
        label=shard.label,
        indices=shard.indices,
        method=plan.method,
        seed=plan.seed,
        config=plan.config,
        explainer_kwargs=plan.explainer_kwargs,
        deadline_seconds=deadline_seconds,
    )


class TestWireDeadline:
    def test_omitted_when_none(self, trained_model, mutagen_db):
        plan = build_plan(mutagen_db, trained_model, GvexConfig())
        env = _dispatch_env(plan)
        assert "deadline_seconds" not in env  # schema-1 goldens unchanged
        assert wire.decode_dispatch(env).deadline_seconds is None

    def test_round_trips_as_float(self, trained_model, mutagen_db):
        plan = build_plan(mutagen_db, trained_model, GvexConfig())
        env = _dispatch_env(plan, deadline_seconds=2.5)
        assert env["deadline_seconds"] == 2.5
        assert wire.decode_dispatch(env).deadline_seconds == 2.5

    def test_rejects_non_numeric(self, trained_model, mutagen_db):
        plan = build_plan(mutagen_db, trained_model, GvexConfig())
        for bad in (True, "3.0", [1]):
            env = _dispatch_env(plan)
            env["deadline_seconds"] = bad
            with pytest.raises(WireError):
                wire.decode_dispatch(env)


# ----------------------------------------------------------------------
# BoundedWorkQueue: expiry accounting, zero depth leaks
# ----------------------------------------------------------------------
class TestQueueExpiry:
    def test_spent_deadline_refused_at_admission(self):
        q = BoundedWorkQueue(capacity=4)
        try:
            deadline = Deadline.after(1e-5)
            time.sleep(0.002)
            ran = []
            with pytest.raises(DeadlineExpiredError):
                q.submit(lambda: ran.append(1), deadline=deadline)
            assert ran == []
            stats = q.stats()
            assert stats["expired"] == 1
            assert stats["failed"] == 0
            assert stats["depth"] == 0
        finally:
            q.close()

    def test_backlog_expiry_never_runs_the_job(self):
        q = BoundedWorkQueue(capacity=8, workers=1)
        try:
            release = threading.Event()
            blocker = q.submit(release.wait)
            deadline = Deadline.after(0.05)
            ran = []
            item = q.submit(lambda: ran.append(1), deadline=deadline)
            time.sleep(0.1)  # the budget dies while queued
            release.set()
            blocker.result(timeout=10)
            with pytest.raises(DeadlineExpiredError):
                item.result(timeout=10)
            assert ran == []
            stats = q.stats()
            assert stats["expired"] == 1
            assert stats["failed"] == 0
            assert stats["depth"] == 0
        finally:
            q.close()

    def test_hundred_expiries_leak_nothing(self):
        """ISSUE acceptance: 100 induced expiries, zero depth leaks."""
        q = BoundedWorkQueue(capacity=16, workers=2)
        try:
            lock = threading.Lock()
            outcomes = []

            def hammer():
                for _ in range(25):
                    deadline = Deadline.after(1e-5)
                    time.sleep(0.001)
                    try:
                        q.run(lambda: "never", deadline=deadline, timeout=10)
                    except DeadlineExpiredError:
                        with lock:
                            outcomes.append("expired")

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert outcomes.count("expired") == 100
            stats = q.stats()
            assert stats["expired"] == 100
            assert stats["failed"] == 0
            assert stats["depth"] == 0 and stats["in_flight"] == 0
            per_tenant = stats["tenants"]
            assert sum(t["expired"] for t in per_tenant.values()) == 100
            assert all(t["depth"] == 0 for t in per_tenant.values())
        finally:
            q.close()


# ----------------------------------------------------------------------
# HTTP: the 504 contract end to end
# ----------------------------------------------------------------------
def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}")


def _post(base, path, body):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}")


@pytest.fixture()
def live(trained_model, mutagen_db):
    svc = ExplanationService(
        db=mutagen_db,
        model=trained_model,
        config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
    )
    server = create_server(svc, port=0, workers=2, queue_capacity=16)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url, server
    server.shutdown()
    server.server_close()


class TestServerDeadline:
    def test_invalid_budget_type_is_400(self, live):
        base, _ = live
        status, body = _post(
            base, "/explain", {"method": "gvex-approx",
                               "deadline_seconds": "soon"}
        )
        assert status == 400
        assert "deadline_seconds" in body["error"]

    def test_spent_budget_is_structured_504(self, live):
        base, _ = live
        status, body = _post(
            base, "/explain", {"method": "gvex-approx",
                               "deadline_seconds": 1e-7}
        )
        assert status == 504
        assert body["code"] == "deadline_expired"
        assert "deadline expired" in body["error"]
        assert body["queue"]["depth"] == 0
        _, health = _get(base, "/health")
        assert health["queue"]["expired"] >= 1

    def test_hundred_http_expiries_return_to_baseline(self, live):
        """100 induced expiries: counters return to baseline, no leaks."""
        base, _ = live
        _, before = _get(base, "/health")
        lock = threading.Lock()
        statuses = []

        def hammer():
            for _ in range(25):
                status, _ = _post(
                    base, "/explain", {"method": "gvex-approx",
                                       "deadline_seconds": 1e-7}
                )
                with lock:
                    statuses.append(status)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert statuses.count(504) == 100
        _, after = _get(base, "/health")
        queue = after["queue"]
        assert queue["expired"] == before["queue"]["expired"] + 100
        assert queue["failed"] == before["queue"]["failed"]
        assert queue["completed"] == before["queue"]["completed"]
        assert queue["depth"] == 0 and queue["in_flight"] == 0
        # the replica still serves real work afterwards
        status, _ = _post(base, "/explain", {"method": "gvex-approx"})
        assert status == 200

    def test_generous_budget_explains_normally(self, live):
        base, _ = live
        status, body = _post(
            base, "/explain", {"method": "gvex-approx",
                               "deadline_seconds": 300.0}
        )
        assert status == 200
        assert body["views"]


# ----------------------------------------------------------------------
# executors: the budget is re-checked between shards
# ----------------------------------------------------------------------
class CountdownDeadline(Deadline):
    """A deadline that expires after a fixed number of checks.

    Counts :meth:`require` calls instead of reading a clock, so a test
    decides exactly which check fails. Forked workers get no copy of it
    (plans reach them without their deadline), so every counted check
    ran in the parent.
    """

    __slots__ = ("checks_left", "checks")

    def __init__(self, checks: int) -> None:
        super().__init__(float("inf"))
        self.checks_left = checks
        self.checks = 0

    def require(self, what: str = "work") -> None:
        self.checks += 1
        if self.checks > self.checks_left:
            raise DeadlineExpiredError(
                f"deadline expired: budget exhausted before {what}"
            )


class TestExecutorDeadline:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ForkPoolExecutor(processes=2)],
        ids=lambda e: e.name,
    )
    def test_budget_rechecked_between_shards(
        self, trained_model, mutagen_db, monkeypatch, executor
    ):
        """An executor raises in the parent a few shards in, instead of
        running every shard and returning views; the fork pool cancels
        its queued shards rather than draining them."""
        ran = mp.get_context("fork").Value("i", 0)
        real = WorkerState.run_shard

        def counted(state, shard):
            with ran.get_lock():
                ran.value += 1
            time.sleep(0.02)  # keeps the queue behind the cancellation
            return real(state, shard)

        # patched before any fork, so pool workers inherit it
        monkeypatch.setattr(WorkerState, "run_shard", counted)
        deadline = CountdownDeadline(3)
        plan = build_plan(
            mutagen_db,
            trained_model,
            GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
            shard_size=1,
            deadline=deadline,
        )
        with pytest.raises(DeadlineExpiredError, match="the next shard"):
            executor.run(plan)
        # one check up front, then one per shard: the fourth fails
        assert deadline.checks == 4
        assert ran.value < len(plan.shards) == len(mutagen_db)


# ----------------------------------------------------------------------
# service + cluster: deadline threading below the HTTP layer
# ----------------------------------------------------------------------
class TestServiceDeadline:
    def test_expired_budget_publishes_no_views(self, trained_model, mutagen_db):
        svc = ExplanationService(
            db=mutagen_db,
            model=trained_model,
            config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
        )
        deadline = Deadline.after(1e-5)
        time.sleep(0.002)
        with pytest.raises(DeadlineExpiredError):
            svc.explain("gvex-approx", deadline=deadline)
        assert svc.has_views is False


class TestClusterDeadline:
    def test_worker_refuses_spent_wire_budget(self, trained_model, mutagen_db):
        """A dispatch arriving with zero budget is a typed 504 refusal."""
        plan = build_plan(
            mutagen_db,
            trained_model,
            GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
            shard_size=2,
        )
        with ClusterCoordinator(auth_token=AUTH) as coord:
            with ClusterWorker(
                mutagen_db, trained_model, coord.url,
                auth_token=AUTH, worker_id="refuser",
            ) as worker:
                coord.wait_for_workers(1, timeout=15)
                env = _dispatch_env(plan, deadline_seconds=0.0)
                with pytest.raises(TransportError) as err:
                    post_json(
                        f"{worker.url}/shard", env, token=AUTH, timeout=30
                    )
                assert err.value.status == 504
                assert err.value.transient is True
                # the refusal never ran the shard
                assert worker.shards_run == 0

    def test_expired_job_surfaces_typed_error_and_worker_survives(
        self, trained_model, mutagen_db
    ):
        plan = build_plan(
            mutagen_db,
            trained_model,
            GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
            shard_size=2,
            deadline=Deadline.after(1e-4),
        )
        with ClusterCoordinator(auth_token=AUTH) as coord:
            with ClusterWorker(
                mutagen_db, trained_model, coord.url,
                auth_token=AUTH, worker_id="survivor",
            ):
                coord.wait_for_workers(1, timeout=15)
                time.sleep(0.01)  # the budget dies before dispatch
                with pytest.raises(DeadlineExpiredError):
                    coord.run(plan)
                # the worker is blameless: still live, zero strikes
                record = coord.workers()[0]
                assert record["state"] == "live"
                assert record["strikes"] == 0
                # and the same fleet completes an unbudgeted plan
                fresh = build_plan(
                    mutagen_db,
                    trained_model,
                    GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
                    shard_size=2,
                )
                views, stats = coord.run(fresh)
                assert stats["shards"] == len(fresh.shards)
                assert len(views) >= 1
