"""Concurrent multi-tenant serving: identity, isolation, exact counters.

A live :class:`ExplanationServer` with a multi-worker explain pool and
two resident tenants is hammered from many client threads. The claims
under test are the serving tier's whole contract (docs/runtime.md):

* concurrent explains produce **bit-identical** views to a serial
  in-process baseline, per tenant;
* no cross-tenant bleed — each tenant's views, queries, and counters
  are its own;
* ``/health`` queue counters stay **exact** under concurrency
  (completed + failed + rejected account for every submission, depth
  drains to zero);
* burst admission at capacity rejects an exact, accounted-for number
  of requests;
* the :class:`TenantRegistry` unit contract: lazy materialization, LRU
  eviction past ``max_residents``, pinned and in-use residents never
  evicted.
"""

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import (
    DEFAULT_TENANT,
    ExplanationService,
    TenantRegistry,
    TenantSpec,
    create_server,
)
from repro.config import GvexConfig
from repro.exceptions import TenantError
from repro.graphs.io import viewset_to_dict

from tests.conftest import make_mutagen_db


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


def _fingerprint(payload):
    body = {k: v for k, v in payload.items() if k != "tenant"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def _config():
    return GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)


@pytest.fixture(scope="module")
def beta_db():
    return make_mutagen_db(12, seed=11)


@pytest.fixture(scope="module")
def tenant_dbs(mutagen_db, beta_db):
    return {"alpha": mutagen_db, "beta": beta_db}


@pytest.fixture()
def multi_live(trained_model, tenant_dbs):
    """A 4-worker server hosting tenants alpha and beta (fresh per test)."""
    registry = TenantRegistry()
    for name, db in tenant_dbs.items():
        registry.add_service(
            name,
            ExplanationService(db=db, model=trained_model, config=_config()),
        )
    server = create_server(registry=registry, port=0, workers=4,
                           queue_capacity=32)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url, registry
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def serial_fingerprints(trained_model, tenant_dbs):
    """Expected views per tenant from a plain serial explain."""
    out = {}
    for name, db in tenant_dbs.items():
        svc = ExplanationService(db=db, model=trained_model, config=_config())
        out[name] = _fingerprint(viewset_to_dict(svc.explain("gvex-approx")))
    return out


class TestConcurrentServing:
    def test_interleaved_explains_bit_identical_per_tenant(
        self, multi_live, serial_fingerprints
    ):
        """8 threads interleaving both tenants; served views == serial."""
        base, _ = multi_live
        statuses = []
        lock = threading.Lock()

        def hammer(i):
            tenant = ("alpha", "beta")[i % 2]
            for _ in range(2):
                status, body = _post(
                    base, "/explain",
                    {"method": "gvex-approx", "tenant": tenant},
                )
                with lock:
                    statuses.append((status, body.get("tenant")))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(s == 200 for s, _ in statuses)
        # responses echo the tenant they ran for
        assert {t for _, t in statuses} == {"alpha", "beta"}
        for tenant, expected in serial_fingerprints.items():
            _, payload = _get(base, f"/views?tenant={tenant}")
            assert payload["tenant"] == tenant
            assert _fingerprint(payload) == expected, (
                f"tenant {tenant} served views diverged from serial"
            )

    def test_no_cross_tenant_bleed(self, multi_live, serial_fingerprints):
        """Explaining one tenant never touches the other's state."""
        base, registry = multi_live
        _post(base, "/explain", {"method": "gvex-approx", "tenant": "alpha"})
        assert registry.peek("alpha").has_views
        assert not registry.peek("beta").has_views
        status, _ = _get(base, "/views?tenant=beta")
        assert status == 404  # beta still has nothing to serve
        _post(base, "/explain", {"method": "gvex-approx", "tenant": "beta"})
        _, alpha = _get(base, "/views?tenant=alpha")
        _, beta = _get(base, "/views?tenant=beta")
        assert _fingerprint(alpha) == serial_fingerprints["alpha"]
        assert _fingerprint(beta) == serial_fingerprints["beta"]
        assert _fingerprint(alpha) != _fingerprint(beta)

    def test_queries_route_per_tenant(self, multi_live):
        base, registry = multi_live
        for tenant in ("alpha", "beta"):
            _post(base, "/explain",
                  {"method": "gvex-approx", "tenant": tenant})
        for tenant in ("alpha", "beta"):
            status, result = _post(base, "/query", {
                "tenant": tenant,
                "pattern": {"node_types": [1, 2], "edges": [[0, 1, 0]]},
            })
            assert status == 200
            assert result["tenant"] == tenant
        # both tenants now hold their own warm index
        assert registry.peek("alpha")._index is not None
        assert registry.peek("beta")._index is not None

    def test_health_counters_exact_after_load(self, multi_live):
        base, _ = multi_live
        n = 6
        threads = [
            threading.Thread(
                target=_post,
                args=(base, "/explain",
                      {"method": "gvex-approx",
                       "tenant": ("alpha", "beta")[i % 2]}),
            )
            for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        _, health = _get(base, "/health")
        queue = health["queue"]
        assert queue["submitted"] == n
        assert queue["completed"] == n
        assert queue["failed"] == 0
        assert queue["rejected"] == 0
        assert queue["depth"] == 0 and queue["in_flight"] == 0
        per_tenant = queue["tenants"]
        assert per_tenant["alpha"]["completed"] == n // 2
        assert per_tenant["beta"]["completed"] == n // 2
        assert all(t["depth"] == 0 for t in per_tenant.values())

    def test_unknown_tenant_is_404_and_consumes_no_slot(self, multi_live):
        base, _ = multi_live
        status, body = _post(
            base, "/explain", {"method": "gvex-approx", "tenant": "ghost"}
        )
        assert status == 404
        assert "ghost" in body["error"]
        _, health = _get(base, "/health")
        assert health["queue"]["submitted"] == 0
        assert "ghost" not in health["queue"]["tenants"]

    def test_tenants_route_lists_registry(self, multi_live):
        base, _ = multi_live
        status, body = _get(base, "/tenants")
        assert status == 200
        assert set(body["tenants"]) == {"alpha", "beta"}
        assert body["tenants"]["alpha"]["pinned"] is True
        # two pinned in-memory tenants, no default registered
        assert body["default_tenant"] is None

    def test_no_default_tenant_requires_explicit_field(self, multi_live):
        base, _ = multi_live
        status, body = _post(base, "/explain", {"method": "gvex-approx"})
        assert status == 404
        assert "tenant" in body["error"]


class TestBurstAdmission:
    def test_burst_rejections_are_exact(self, trained_model, mutagen_db):
        """At capacity, accepted + rejected == attempted, all accounted."""
        svc = ExplanationService(
            db=mutagen_db, model=trained_model, config=_config()
        )
        gate = threading.Event()
        real_explain = svc.explain

        def gated_explain(*args, **kwargs):
            gate.wait(timeout=30)
            return real_explain(*args, **kwargs)

        svc.explain = gated_explain
        server = create_server(svc, port=0, workers=1, queue_capacity=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            results = []
            lock = threading.Lock()

            def fire():
                status, body = _post(
                    server.url, "/explain", {"method": "gvex-approx"}
                )
                with lock:
                    results.append((status, body))

            burst = [threading.Thread(target=fire) for _ in range(8)]
            for t in burst:
                t.start()
            # open the gate once the overflow beyond capacity+workers has
            # been answered, however long the burst takes to land
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                with lock:
                    if sum(1 for status, _ in results if status == 503) >= 8 - 3:
                        break
                time.sleep(0.01)
            gate.set()
            for t in burst:
                t.join()

            accepted = [r for r in results if r[0] == 200]
            rejected = [r for r in results if r[0] == 503]
            assert len(accepted) + len(rejected) == 8
            # 1 in flight + 2 queued admitted at most while gated; at
            # least the overflow beyond capacity+workers was shed
            assert len(rejected) >= 8 - 3
            for _, body in rejected:
                assert body["scope"] == "global"
                assert body["queue"]["capacity"] == 2
            _, health = _get(server.url, "/health")
            queue = health["queue"]
            assert queue["completed"] == len(accepted)
            assert queue["rejected"] == len(rejected)
            assert queue["depth"] == 0
        finally:
            gate.set()
            server.shutdown()
            server.server_close()


class TestTenantRegistry:
    def test_lazy_materialization_and_hits(self):
        registry = TenantRegistry()
        registry.register(TenantSpec(name="t1", dataset="mutagenicity"))
        assert registry.resident_names() == []
        with registry.acquire("t1") as svc:
            assert svc.dataset == "mutagenicity"
        assert registry.resident_names() == ["t1"]
        assert registry.stats()["misses"] == 1
        with registry.acquire("t1"):
            pass
        assert registry.stats()["hits"] == 1

    def test_lru_eviction_past_max_residents(self):
        registry = TenantRegistry(max_residents=1)
        registry.register(TenantSpec(name="t1", dataset="mutagenicity"))
        registry.register(TenantSpec(name="t2", dataset="ba_synthetic"))
        with registry.acquire("t1"):
            pass
        with registry.acquire("t2"):
            pass
        assert registry.resident_names() == ["t2"]  # t1 was LRU
        assert registry.stats()["evictions"] == 1
        # t1 transparently re-materializes (and t2 is evicted in turn)
        with registry.acquire("t1") as svc:
            assert svc.dataset == "mutagenicity"
        assert registry.resident_names() == ["t1"]
        assert registry.peek("t1").dataset == "mutagenicity"

    def test_in_use_tenants_survive_eviction(self):
        registry = TenantRegistry(max_residents=1)
        registry.register(TenantSpec(name="busy", dataset="mutagenicity"))
        registry.register(TenantSpec(name="idle", dataset="ba_synthetic"))
        with registry.acquire("busy"):
            with registry.acquire("idle"):
                pass
            # both resident, over budget, but busy is in use: the idle
            # one must have been the victim
            assert "busy" in registry.resident_names()
        assert registry.stats()["tenants"]["busy"]["in_use"] == 0

    def test_pinned_services_never_evicted(self, trained_model, mutagen_db):
        registry = TenantRegistry(max_residents=1)
        svc = ExplanationService(db=mutagen_db, model=trained_model)
        registry.add_service("pinned", svc)
        registry.register(TenantSpec(name="t2", dataset="mutagenicity"))
        with registry.acquire("t2"):
            pass
        assert registry.peek("pinned") is svc
        assert "pinned" in registry.resident_names()

    def test_duplicate_and_unknown_tenants_raise(self):
        registry = TenantRegistry()
        registry.register(TenantSpec(name="t1", dataset="mutagenicity"))
        with pytest.raises(TenantError):
            registry.register(TenantSpec(name="t1", dataset="mutagenicity"))
        registry.register(
            TenantSpec(name="t1", dataset="ba_synthetic"), replace=True
        )
        with pytest.raises(TenantError):
            registry.ensure("nope")
        with pytest.raises(TenantError):
            with registry.acquire("nope"):
                pass

    def test_concurrent_cold_acquires_build_once(self):
        registry = TenantRegistry()
        registry.register(TenantSpec(name="cold", dataset="mutagenicity"))
        seen = []
        barrier = threading.Barrier(4)

        def grab():
            barrier.wait(timeout=10)
            with registry.acquire("cold") as svc:
                seen.append(svc)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 4
        assert len({id(s) for s in seen}) == 1  # one build, shared
        assert registry.stats()["tenants"]["cold"]["materializations"] == 1


class TestDefaultTenantBackCompat:
    def test_single_service_server_keeps_old_shape(
        self, trained_model, mutagen_db
    ):
        svc = ExplanationService(
            db=mutagen_db, model=trained_model, config=_config()
        )
        server = create_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert server.default_tenant == DEFAULT_TENANT
            assert server.service is svc
            _, health = _get(server.url, "/health")
            assert health["has_model"] is True  # old top-level key
            assert health["default_tenant"] == DEFAULT_TENANT
            status, _ = _post(
                server.url, "/explain", {"method": "gvex-approx"}
            )
            assert status == 200  # no tenant field needed
            _, views = _get(server.url, "/views")
            assert views["schema"] == 2
            assert views["tenant"] == DEFAULT_TENANT
        finally:
            server.shutdown()
            server.server_close()
