"""Fault injection for the serving tier: crashes must stay contained.

Every failure mode a live replica meets — an explainer raising
mid-explain, a fork worker SIGKILLed mid-shard, malformed JSON,
oversized bodies — must surface as a clean 4xx/5xx, reclaim its queue
slot, and leave the server serving. The no-leak property is checked
the hard way: after 100 induced failures the queue depth is exactly
zero and every counter adds up.
"""

import contextlib
import json
import os
import signal
import socket
import threading
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.api import (
    ExplainerSpec,
    ExplanationService,
    create_server,
    register_explainer,
)
from repro.config import GvexConfig
from repro.exceptions import WorkerCrashError
from repro.explainers.random_baseline import RandomExplainer
from repro.runtime import build_plan, run_tasks


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}")


def _post_raw(base, path, data, headers=None):
    req = urllib.request.Request(
        base + path,
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}")


def _post(base, path, body):
    return _post_raw(base, path, json.dumps(body).encode())


class FaultyExplainer(RandomExplainer):
    """Raises partway through an explain (after real work started)."""

    def explain_graph(self, graph, label=None, max_nodes=None, graph_index=0):
        if graph_index >= 1:
            raise RuntimeError("injected mid-explain failure")
        return super().explain_graph(
            graph, label=label, max_nodes=max_nodes, graph_index=graph_index
        )


#: set at registration; the kamikaze only ever kills fork children
_PARENT_PID = os.getpid()


class KamikazeExplainer(RandomExplainer):
    """SIGKILLs its own process mid-shard — but only in a fork child."""

    def explain_graph(self, graph, label=None, max_nodes=None, graph_index=0):
        if os.getpid() == _PARENT_PID:
            raise RuntimeError(
                "kamikaze explainer must run in a fork pool (processes>=2)"
            )
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable")  # pragma: no cover


@pytest.fixture(scope="module", autouse=True)
def fault_explainers():
    """Register the fault injectors for this module only.

    Registry-wide tests (``test_api_service``) build and run every
    registered spec, so the injectors must not leak past this module.
    """
    register_explainer(ExplainerSpec(
        name="test-faulty",
        cls=FaultyExplainer,
        in_table1=False,
        description="test-only: raises mid-explain",
    ))
    register_explainer(ExplainerSpec(
        name="test-kamikaze",
        cls=KamikazeExplainer,
        in_table1=False,
        description="test-only: SIGKILLs the fork worker mid-shard",
    ))
    yield
    from repro.api import registry as reg

    for name in ("test-faulty", "test-kamikaze"):
        reg._REGISTRY.pop(name, None)
        reg._ALIASES.pop(name, None)


@pytest.fixture()
def live(trained_model, mutagen_db):
    svc = ExplanationService(
        db=mutagen_db,
        model=trained_model,
        config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
    )
    server = create_server(
        svc, port=0, workers=2, queue_capacity=16, max_body_bytes=4096
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url, server
    server.shutdown()
    server.server_close()


class TestExplainFailures:
    def test_mid_explain_raise_is_500_with_slot_reclaimed(self, live):
        base, server = live
        status, body = _post(base, "/explain", {"method": "test-faulty"})
        assert status == 500
        assert "injected" in body["error"]
        _, health = _get(base, "/health")
        queue = health["queue"]
        assert queue["failed"] == 1
        assert queue["depth"] == 0 and queue["in_flight"] == 0
        # the replica keeps serving after the failure
        status, _ = _post(base, "/explain", {"method": "gvex-approx"})
        assert status == 200

    def test_hundred_induced_failures_leak_nothing(self, live):
        """100 failing explains from 4 threads: depth ends exactly 0."""
        base, server = live
        lock = threading.Lock()
        statuses = []

        def hammer():
            for _ in range(25):
                status, _ = _post(base, "/explain", {"method": "test-faulty"})
                with lock:
                    statuses.append(status)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert statuses.count(500) == 100
        _, health = _get(base, "/health")
        queue = health["queue"]
        assert queue["submitted"] == 100
        assert queue["failed"] == 100
        assert queue["completed"] == 0
        assert queue["depth"] == 0 and queue["in_flight"] == 0
        tenants = queue["tenants"]
        assert sum(t["failed"] for t in tenants.values()) == 100
        assert all(t["depth"] == 0 for t in tenants.values())
        # still alive and correct afterwards
        status, _ = _post(base, "/explain", {"method": "gvex-approx"})
        assert status == 200


class TestWorkerCrash:
    def test_sigkilled_fork_worker_is_clean_500(self, live):
        """A SIGKILL mid-shard surfaces promptly as 500, then recovery."""
        base, server = live
        status, body = _post(
            base, "/explain", {"method": "test-kamikaze", "processes": 2}
        )
        assert status == 500
        assert "worker died" in body["error"]
        _, health = _get(base, "/health")
        assert health["queue"]["failed"] == 1
        assert health["queue"]["depth"] == 0
        # the pool is rebuilt per explain: the replica recovers fully
        status, _ = _post(
            base, "/explain", {"method": "gvex-approx", "processes": 2}
        )
        assert status == 200

    def test_run_tasks_raises_worker_crash_error(
        self, trained_model, mutagen_db
    ):
        """The runtime maps BrokenProcessPool to WorkerCrashError."""
        plan = build_plan(
            mutagen_db,
            trained_model,
            GvexConfig().with_bounds(0, 6),
            method="test-kamikaze",
            processes=2,
        )
        with pytest.raises(WorkerCrashError, match="worker died"):
            run_tasks(plan, processes=2)

    def test_kamikaze_refuses_to_kill_the_parent(
        self, trained_model, mutagen_db
    ):
        """Serial scheduling must never let the kamikaze reach os.kill."""
        svc = ExplanationService(db=mutagen_db, model=trained_model)
        with pytest.raises(Exception, match="fork pool"):
            svc.explain("test-kamikaze")


class TestMalformedRequests:
    def test_malformed_json_is_400(self, live):
        base, _ = live
        status, body = _post_raw(base, "/explain", b"{not json!")
        assert status == 400
        assert "JSONDecodeError" in body["error"]

    def test_non_object_body_is_400(self, live):
        base, _ = live
        status, body = _post_raw(base, "/query", b'["a", "list"]')
        assert status == 400
        assert "JSON object" in body["error"]

    def test_oversized_body_is_413_before_admission(self, live):
        base, server = live
        blob = json.dumps({"method": "x", "pad": "y" * 8192}).encode()
        assert len(blob) > server.max_body_bytes
        status, body = _post_raw(base, "/explain", blob)
        assert status == 413
        assert "exceeds" in body["error"]
        _, health = _get(base, "/health")
        assert health["queue"]["submitted"] == 0  # never reached the queue

    def test_bad_tenant_type_is_400(self, live):
        base, _ = live
        status, body = _post(
            base, "/explain", {"method": "gvex-approx", "tenant": 7}
        )
        assert status == 400
        assert "tenant must be a string" in body["error"]

    @pytest.mark.parametrize(
        "pattern",
        [
            {"node_types": [10**30]},  # past int64: was a 500
            {"node_types": [1.5]},  # was silently type 1
            {"node_types": [True]},  # was silently type 1
            {"node_types": [-1]},
            {"node_types": "12"},
            {"node_types": [1, 2], "edges": [[0, 1]]},
            {"node_types": [1, 2], "edges": [[0, 1, 0.5]]},
            {"node_types": [1, 2], "edges": [[0, True, 0]]},
            {"node_types": [1], "directed": "yes"},  # was directed
        ],
    )
    def test_malformed_wire_pattern_is_400(self, live, pattern):
        base, _ = live
        status, body = _post(base, "/query", {"pattern": pattern})
        assert status == 400
        assert body["error"].startswith("ValidationError")
        status, health = _get(base, "/health")
        assert status == 200 and health["status"] == "ok"

    def test_failure_storm_then_counters_still_exact(self, live):
        """Mixed malformed + failing + good traffic: arithmetic holds."""
        base, _ = live
        _post_raw(base, "/explain", b"broken{")
        _post(base, "/explain", {"method": "test-faulty"})
        _post(base, "/explain", {"method": "no-such-method"})
        status, _ = _post(base, "/explain", {"method": "gvex-approx"})
        assert status == 200
        _, health = _get(base, "/health")
        queue = health["queue"]
        # malformed JSON never reaches the queue (pre-admission 400);
        # the unknown-method job is admitted and fails inside its slot
        assert queue["submitted"] == 3
        assert queue["completed"] == 1
        assert queue["failed"] == 2
        assert queue["depth"] == 0


@contextlib.contextmanager
def _endpoint(kind, model, db):
    """A live serve, coordinator or worker endpoint: ``(url, route)``."""
    from repro.runtime.cluster import ClusterCoordinator, ClusterWorker

    if kind == "serve":
        server = create_server(ExplanationService(db=db, model=model), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.url, "/query"
        finally:
            server.shutdown()
            server.server_close()
        return
    with ClusterCoordinator() as coord:
        if kind == "coordinator":
            yield coord.url, "/register"
            return
        worker = ClusterWorker(db, model, coord.url).start()
        try:
            yield worker.url, "/shard"
        finally:
            worker.close()


@pytest.mark.parametrize("kind", ["serve", "coordinator", "worker"])
def test_negative_content_length_is_400(kind, trained_model, mutagen_db):
    """``Content-Length: -1`` is refused before the body is read: a
    read of -1 bytes would block the handler until the client closes."""
    with _endpoint(kind, trained_model, mutagen_db) as (url, route):
        address = urlparse(url)
        request = (
            f"POST {route} HTTP/1.1\r\nHost: {address.hostname}\r\n"
            "Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
        )
        with socket.create_connection(
            (address.hostname, address.port), timeout=5
        ) as sock:
            sock.sendall(request.encode())
            status_line = sock.makefile("rb").readline()
    assert status_line.split()[1] == b"400", status_line
