"""The ``repro.runtime`` execution engine contract.

Three levels:

* **plan** — label-group sharding: ascending order preserved, shard
  sizing respects the verifier cache geometry and worker balance, a
  per-group ApproxGVEX label group is one shard, GVEX constructor
  overrides rejected;
* **executor parity** — the serial and fork-pool executors and the
  cluster's merge (each shard's subgraphs round-tripped through a
  ``result`` envelope, then the coordinator's union and Psum) produce
  *bit-identical* view sets (nodes, scores, flags, patterns, edge
  loss) on the trained motif model and across the synthetic zoo, in
  paper and soft verification modes, for ApproxGVEX under both
  coverage scopes and for StreamGVEX; a plan restricted by
  ``predicted`` explains only its tasks, whatever the method;
* **work queue** — admission control: FIFO results, immediate
  ``QueueFullError`` past capacity, counters; plus the serve path
  under load (503 + queue metrics on /health) and bearer-token auth.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.registry import explainer_names
from repro.config import (
    SCOPE_PER_GRAPH,
    SCOPE_PER_GROUP,
    GvexConfig,
    VERIFY_PAPER,
    VERIFY_SOFT,
)
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.exceptions import QueueFullError, RegistryError
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.runtime import (
    APPROX_METHOD,
    BoundedWorkQueue,
    ForkPoolExecutor,
    SerialExecutor,
    build_plan,
    run_plan,
    run_tasks,
    shard_size_for,
)
from repro.runtime.cluster import wire
from repro.runtime.cluster.coordinator import merge_results
from repro.runtime.cluster.worker import shard_views
from tests.test_golden_views import view_set_fingerprint

ZOO = sorted(DATASETS)
GRAPHS_PER_LABEL = 2
MODES = [VERIFY_PAPER, VERIFY_SOFT]

#: the (method, coverage scope) inputs of the parity suites; the first
#: keeps the suites' bare test ids
METHOD_SCOPES = [
    (APPROX_METHOD, SCOPE_PER_GRAPH),
    (APPROX_METHOD, SCOPE_PER_GROUP),
    ("gvex-stream", SCOPE_PER_GRAPH),
]

#: constructor overrides that keep the baselines quick
FAST_OVERRIDES = {
    "subgraphx": dict(rollouts=2, shapley_samples=2),
    "gnnexplainer": dict(epochs=3),
    "gstarx": dict(coalition_samples=4),
}


def parity_cases(*axes):
    """``pytest.param``\\ s over ``axes`` × :data:`METHOD_SCOPES`."""
    cases = []
    for values in itertools.product(*axes):
        for method, scope in METHOD_SCOPES:
            case_id = "-".join(values)
            if (method, scope) != METHOD_SCOPES[0]:
                case_id += f"-{method}-{scope}"
            cases.append(pytest.param(*values, method, scope, id=case_id))
    return cases


def zoo_model(dataset: str) -> GnnClassifier:
    info = dataset_info(dataset)
    return GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0
    )


def limited_predicted(db, model, per_label: int):
    """Predictions with each label group truncated to ``per_label``."""
    seen = {}
    out = []
    for g in db:
        label = model.predict(g)
        if label is not None:
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > per_label:
                label = None
        out.append(label)
    return out


def wire_merge(plan, tasks):
    """Merge task results the way the cluster does, without sockets.

    ``tasks`` are a plan's per-task results in shard order (what
    :func:`~repro.runtime.run_tasks` returns). Each shard's slice is
    packed as a worker packs it, round-tripped through the wire bytes
    of a ``result`` envelope, and the decoded results are merged by the
    coordinator's union + Psum. Returns ``(views, inference_calls)``.
    """
    results, start = [], 0
    for shard_id, shard in enumerate(plan.shards):
        chunk = tasks[start : start + len(shard)]
        start += len(shard)
        envelope = wire.encode_result(
            job_id="job-m",
            shard_id=shard_id,
            worker_id="w0",
            views=shard_views(shard.label, chunk),
            inference_calls=sum(calls for _, _, _, calls in chunk),
        )
        results.append(
            wire.decode_result(json.loads(wire.canonical_bytes(envelope)))
        )
    assert start == len(tasks)
    return merge_results(results, plan), sum(m.inference_calls for m in results)


# ----------------------------------------------------------------------
# plan level
# ----------------------------------------------------------------------
class TestPlan:
    def test_shards_preserve_group_order(self, trained_model, mutagen_db):
        plan = build_plan(
            mutagen_db, trained_model, GvexConfig().with_bounds(0, 4),
            shard_size=3,
        )
        for label in plan.labels:
            indices = plan.group_indices(label)
            assert indices == sorted(indices)
            for shard in plan.shards_for(label):
                assert len(shard) <= 3
        assert plan.n_tasks == sum(len(s) for s in plan.shards)

    def test_shard_size_balances_workers(self, trained_model, mutagen_db):
        config = GvexConfig().with_bounds(0, 4)
        indices = list(range(len(mutagen_db)))
        one = shard_size_for(mutagen_db, indices, config, 1, processes=1)
        four = shard_size_for(mutagen_db, indices, config, 1, processes=4)
        assert four <= one
        assert four >= 1
        # small graphs: the cache budget admits more than the balance
        # cap, so balance decides
        import math

        assert four == math.ceil(len(indices) / 4)

    def test_shard_size_respects_cache_budget(self, mutagen_db):
        """A tiny element budget caps the shard regardless of balance."""
        from repro.core.verifiers import BatchedGnnVerifier

        config = GvexConfig().with_bounds(0, 4)
        indices = list(range(len(mutagen_db)))
        budget = BatchedGnnVerifier.BATCH_ELEMENT_BUDGET
        widest = max(mutagen_db[i].n_nodes for i in indices)
        try:
            BatchedGnnVerifier.BATCH_ELEMENT_BUDGET = widest * widest * 4 * 2
            assert shard_size_for(mutagen_db, indices, config, 1) <= 2
        finally:
            BatchedGnnVerifier.BATCH_ELEMENT_BUDGET = budget

    def test_approx_rejects_constructor_overrides(
        self, trained_model, mutagen_db
    ):
        for method in ("gvex-approx", "gvex-stream"):
            with pytest.raises(RegistryError):
                build_plan(
                    mutagen_db,
                    trained_model,
                    GvexConfig(),
                    method=method,
                    explainer_kwargs={"rollouts": 3},
                )

    def test_per_group_approx_group_is_one_shard(
        self, trained_model, mutagen_db
    ):
        """The per-group budget threads through a whole label group, so
        neither ``shard_size`` nor the worker count splits it."""
        config = GvexConfig(coverage_scope=SCOPE_PER_GROUP).with_bounds(0, 8)
        plan = build_plan(
            mutagen_db, trained_model, config, shard_size=2, processes=4
        )
        assert len(plan.shards) == len(plan.labels) == 2
        stream = build_plan(
            mutagen_db, trained_model, config, method="gvex-stream",
            shard_size=2,
        )
        assert len(stream.shards) > len(stream.labels)

    def test_labels_subset(self, trained_model, mutagen_db):
        plan = build_plan(
            mutagen_db, trained_model, GvexConfig().with_bounds(0, 4),
            labels=[1],
        )
        assert plan.labels == (1,)
        assert all(s.label == 1 for s in plan.shards)


# ----------------------------------------------------------------------
# executor parity: serial == fork-pool == the cluster's merge, bit for bit
# ----------------------------------------------------------------------
class TestExecutorParity:
    @pytest.mark.parametrize("mode,method,scope", parity_cases(MODES))
    def test_trained_model_parity(
        self, trained_model, mutagen_db, mode, method, scope
    ):
        config = GvexConfig(
            theta=0.08, radius=0.3, verification=mode, coverage_scope=scope
        ).with_bounds(0, 6 if scope == SCOPE_PER_GRAPH else 14)
        plan = build_plan(
            mutagen_db, trained_model, config, method=method, processes=2
        )
        if method == APPROX_METHOD and scope == SCOPE_PER_GROUP:
            assert len(plan.shards) == len(plan.labels)  # one per group
        else:
            assert len(plan.shards) > len(plan.labels)  # the merge has work
        serial, _ = SerialExecutor().run(plan)
        fork, _ = ForkPoolExecutor(processes=2).run(plan)
        merged, _ = wire_merge(plan, run_tasks(plan))
        want = view_set_fingerprint(serial)
        assert view_set_fingerprint(fork) == want
        assert view_set_fingerprint(merged) == want

    @pytest.mark.parametrize(
        "dataset,mode,method,scope", parity_cases(ZOO, MODES)
    )
    def test_zoo_parity(self, dataset, mode, method, scope):
        """Bit-identical views on every synthetic-zoo dataset."""
        db = load_dataset(dataset, scale="test", seed=0)
        model = zoo_model(dataset)
        config = GvexConfig(
            verification=mode, coverage_scope=scope
        ).with_bounds(0, 5 if scope == SCOPE_PER_GRAPH else 8)
        predicted = limited_predicted(db, model, GRAPHS_PER_LABEL)
        plan = build_plan(
            db, model, config, predicted=predicted, method=method, processes=2
        )
        assert plan.n_tasks > 0
        serial, serial_stats = SerialExecutor().run(plan)
        fork, fork_stats = ForkPoolExecutor(processes=2).run(plan)
        merged, merged_calls = wire_merge(plan, run_tasks(plan))
        want = view_set_fingerprint(serial)
        case = (dataset, mode, method, scope)
        assert view_set_fingerprint(fork) == want, case
        assert view_set_fingerprint(merged) == want, case
        # every schedule runs the same work: same launch count
        assert fork_stats["inference_calls"] == serial_stats["inference_calls"]
        assert merged_calls == serial_stats["inference_calls"]

    def test_per_group_budget_threads_through_the_group(
        self, trained_model, mutagen_db
    ):
        """One result per task: graphs after the spent budget get None,
        and the group's subgraphs stay within ``u_l`` in total."""
        config = GvexConfig(
            theta=0.08, radius=0.3, coverage_scope=SCOPE_PER_GROUP
        ).with_bounds(0, 10)
        plan = build_plan(mutagen_db, trained_model, config)
        tasks = run_tasks(plan, processes=2)
        assert [i for i, _, _, _ in tasks] == [
            i for s in plan.shards for i in s.indices
        ]
        assert any(sub is None for _, _, sub, _ in tasks)
        views, _ = SerialExecutor().run(plan)
        for view in views:
            assert 0 < view.n_subgraph_nodes <= 10

    def test_per_group_group_below_lower_bound_is_empty(
        self, trained_model, mutagen_db
    ):
        """A group whose subgraphs miss ``b_l`` gets no subgraph at all."""
        config = GvexConfig(
            theta=0.08, radius=0.3, coverage_scope=SCOPE_PER_GROUP
        ).with_bounds(10_000, 10_000)
        plan = build_plan(mutagen_db, trained_model, config)
        tasks = run_tasks(plan)
        assert len(tasks) == plan.n_tasks
        assert all(sub is None for _, _, sub, _ in tasks)
        views, _ = SerialExecutor().run(plan)
        for view in views:
            assert view.subgraphs == [] and view.patterns == []
            assert view.score == 0.0 and isinstance(view.score, float)

    @pytest.mark.parametrize("method", explainer_names())
    def test_restricted_plan_explains_only_its_tasks(
        self, trained_model, mutagen_db, method
    ):
        """A plan restricted by ``predicted`` explains its tasks and no
        other graph, whatever the method."""
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 4)
        predicted = limited_predicted(mutagen_db, trained_model, 3)
        plan = build_plan(
            mutagen_db, trained_model, config, predicted=predicted,
            method=method, explainer_kwargs=FAST_OVERRIDES.get(method, {}),
        )
        tasks = {i for s in plan.shards for i in s.indices}
        assert len(tasks) == 6 < len(mutagen_db)
        views, _ = SerialExecutor().run(plan)
        explained = {s.graph_index for v in views for s in v.subgraphs}
        assert explained <= tasks
        if method == "gvex-stream":
            assert explained == tasks

    def test_sharded_composes_with_fork_pool(self, trained_model, mutagen_db):
        """Shards explained in forked workers merge like cluster results."""
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)
        plan = build_plan(mutagen_db, trained_model, config, shard_size=3)
        serial, _ = SerialExecutor().run(plan)
        combo, _ = wire_merge(plan, run_tasks(plan, processes=2))
        assert view_set_fingerprint(combo) == view_set_fingerprint(serial)

    def test_run_plan_helper(self, trained_model, mutagen_db):
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)
        plan = build_plan(mutagen_db, trained_model, config, processes=2)
        views, stats = run_plan(plan, return_stats=True)
        assert stats["inference_calls"] > 0
        forked, forked_stats = run_plan(plan, processes=2, return_stats=True)
        assert view_set_fingerprint(forked) == view_set_fingerprint(views)
        assert forked_stats == stats

    def test_stream_plan_counts_forward_passes(
        self, trained_model, mutagen_db
    ):
        """A StreamGVEX plan reports its verifiers' launches, and the
        same count under serial, fork-pool and wire-merge schedules."""
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)
        plan = build_plan(
            mutagen_db, trained_model, config, method="gvex-stream",
            processes=2,
        )
        _, serial = SerialExecutor().run(plan)
        _, fork = ForkPoolExecutor(processes=2).run(plan)
        _, merged_calls = wire_merge(plan, run_tasks(plan))
        assert serial["inference_calls"] > 0
        assert fork["inference_calls"] == serial["inference_calls"]
        assert merged_calls == serial["inference_calls"]

    @pytest.mark.parametrize("method", [APPROX_METHOD, "gvex-stream"])
    def test_shards_share_one_classifier(
        self, trained_model, mutagen_db, monkeypatch, method
    ):
        """Every graph of every shard a worker state runs gets the
        state's one subset classifier, not one per shard."""
        from repro.core.streaming import StreamGvex
        from repro.runtime import executors

        seen = []
        real_explain = executors.explain_graph
        real_stream = StreamGvex.explain_graph_stream

        def spy_explain(*args, classifier=None, **kwargs):
            seen.append(classifier)
            return real_explain(*args, classifier=classifier, **kwargs)

        def spy_stream(self, *args, classifier=None, **kwargs):
            seen.append(classifier)
            return real_stream(self, *args, classifier=classifier, **kwargs)

        monkeypatch.setattr(executors, "explain_graph", spy_explain)
        monkeypatch.setattr(StreamGvex, "explain_graph_stream", spy_stream)
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 4)
        plan = build_plan(
            mutagen_db, trained_model, config, method=method, shard_size=2
        )
        assert len(plan.shards) > 1
        SerialExecutor().run(plan)
        assert len(seen) == plan.n_tasks
        assert seen[0] is not None
        assert all(classifier is seen[0] for classifier in seen)

    def test_baseline_method_through_executors(
        self, trained_model, mutagen_db
    ):
        """Non-GVEX registry methods schedule through the runtime too.

        The random baseline is seeded per worker, so the contract is
        structural: same label groups, same explained graphs, size
        bounds honored.
        """
        config = GvexConfig().with_bounds(0, 4)
        plan = build_plan(
            mutagen_db, trained_model, config, method="random", seed=3
        )
        serial, _ = SerialExecutor().run(plan)
        fork, _ = ForkPoolExecutor(processes=2).run(plan)
        assert serial.labels == fork.labels
        for label in serial.labels:
            assert [s.graph_index for s in serial[label].subgraphs] == [
                s.graph_index for s in fork[label].subgraphs
            ]
            assert all(s.n_nodes <= 4 for s in fork[label].subgraphs)


# ----------------------------------------------------------------------
# the bounded work queue
# ----------------------------------------------------------------------
class TestBoundedWorkQueue:
    def test_fifo_results(self):
        q = BoundedWorkQueue(capacity=8)
        try:
            items = [q.submit(lambda i=i: i * i) for i in range(5)]
            assert [item.result(timeout=5) for item in items] == [
                0, 1, 4, 9, 16
            ]
            stats = q.stats()
            assert stats["submitted"] == 5
            assert stats["completed"] == 5
            assert stats["rejected"] == 0
            assert stats["depth"] == 0
        finally:
            q.close()

    def test_rejects_past_capacity(self):
        release = threading.Event()
        q = BoundedWorkQueue(capacity=2)
        try:
            blocker = q.submit(release.wait)  # occupies the worker
            time.sleep(0.05)  # let the worker pick it up
            q.submit(lambda: 1)
            q.submit(lambda: 2)
            with pytest.raises(QueueFullError):
                q.submit(lambda: 3)
            assert q.stats()["rejected"] == 1
            release.set()
            blocker.result(timeout=5)
        finally:
            release.set()
            q.close()

    def test_error_propagates_and_counts(self):
        q = BoundedWorkQueue(capacity=2)
        try:
            item = q.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                item.result(timeout=5)
            assert q.stats()["failed"] == 1
            # the queue keeps draining after a failure
            assert q.run(lambda: 7, timeout=5) == 7
        finally:
            q.close()

    def test_closed_queue_rejects(self):
        q = BoundedWorkQueue(capacity=1)
        q.close()
        with pytest.raises(QueueFullError):
            q.submit(lambda: 1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedWorkQueue(capacity=0)
        with pytest.raises(ValueError):
            BoundedWorkQueue(capacity=1, workers=0)
        with pytest.raises(ValueError):
            BoundedWorkQueue(capacity=1, tenant_capacity=0)


class TestTenantWorkQueue:
    def test_workers_run_truly_concurrently(self):
        """Barrier(4) only releases if 4 jobs are in flight at once."""
        q = BoundedWorkQueue(capacity=8, workers=4)
        barrier = threading.Barrier(4)
        try:
            items = [
                q.submit(lambda: barrier.wait(timeout=10)) for _ in range(4)
            ]
            # would raise BrokenBarrierError via result() if the pool
            # ran jobs one at a time
            assert sorted(item.result(timeout=15) for item in items) == [
                0, 1, 2, 3
            ]
        finally:
            q.close()

    def test_per_tenant_capacity_isolates_hot_tenant(self):
        release = threading.Event()
        q = BoundedWorkQueue(capacity=8, workers=1, tenant_capacity=2)
        try:
            q.submit(release.wait, tenant="hot")
            q.submit(release.wait, tenant="hot")
            with pytest.raises(QueueFullError) as err:
                q.submit(lambda: 1, tenant="hot")
            assert err.value.scope == "tenant"
            assert err.value.tenant == "hot"
            # a different tenant is still admitted
            item = q.submit(lambda: "cold ok", tenant="cold")
            release.set()
            assert item.result(timeout=5) == "cold ok"
            stats = q.stats()
            assert stats["tenants"]["hot"]["rejected"] == 1
            assert stats["tenants"]["cold"]["rejected"] == 0
        finally:
            release.set()
            q.close()

    def test_tenant_depth_counts_in_flight(self):
        """tenant_capacity bounds queued + running, not just the backlog."""
        release = threading.Event()
        q = BoundedWorkQueue(capacity=8, workers=1, tenant_capacity=1)
        try:
            q.submit(release.wait, tenant="t")
            time.sleep(0.05)  # worker picks it up: queued=0, in_flight=1
            assert q.depth_for("t") == 1
            with pytest.raises(QueueFullError):
                q.submit(lambda: 1, tenant="t")
            release.set()
        finally:
            release.set()
            q.close()

    def test_global_rejection_reports_global_scope(self):
        release = threading.Event()
        q = BoundedWorkQueue(capacity=1, workers=1)
        try:
            q.submit(release.wait, tenant="a")
            time.sleep(0.05)
            q.submit(lambda: 1, tenant="b")  # fills the backlog
            with pytest.raises(QueueFullError) as err:
                q.submit(lambda: 2, tenant="c")
            assert err.value.scope == "global"
            assert err.value.tenant is None
            release.set()
        finally:
            release.set()
            q.close()

    def test_counters_exact_under_concurrent_submitters(self):
        """Racing submitters + drain: every event lands in one bucket."""
        q = BoundedWorkQueue(capacity=4, workers=2)
        outcomes = {"ok": 0, "rejected": 0, "failed": 0}
        lock = threading.Lock()

        def submitter(tid):
            for i in range(20):
                fail = (i % 5) == 0
                try:
                    item = q.submit(
                        (lambda: 1 / 0) if fail else (lambda: i),
                        tenant=f"t{tid % 2}",
                    )
                except QueueFullError:
                    with lock:
                        outcomes["rejected"] += 1
                    continue
                try:
                    item.result(timeout=10)
                    with lock:
                        outcomes["ok"] += 1
                except ZeroDivisionError:
                    with lock:
                        outcomes["failed"] += 1

        try:
            threads = [
                threading.Thread(target=submitter, args=(t,))
                for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = q.stats()
            assert stats["completed"] == outcomes["ok"]
            assert stats["failed"] == outcomes["failed"]
            assert stats["rejected"] == outcomes["rejected"]
            assert stats["submitted"] == outcomes["ok"] + outcomes["failed"]
            assert stats["depth"] == 0 and stats["in_flight"] == 0
            per_tenant = stats["tenants"]
            assert sum(
                t["completed"] for t in per_tenant.values()
            ) == outcomes["ok"]
            assert all(t["depth"] == 0 for t in per_tenant.values())
        finally:
            q.close()


# ----------------------------------------------------------------------
# serve under load: backpressure + auth over a live socket
# ----------------------------------------------------------------------
def _get(base, path, token=None):
    req = urllib.request.Request(base + path)
    if token:
        req.add_header("Authorization", f"Bearer {token}")
    with urllib.request.urlopen(req, timeout=10) as r:
        return r.status, json.loads(r.read())


def _post(base, path, body, token=None):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    if token:
        req.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.fixture()
def slow_server(trained_model, mutagen_db, monkeypatch):
    """A live server whose explains block until released (capacity 1)."""
    from repro.api import ExplanationService, create_server

    svc = ExplanationService(
        db=mutagen_db,
        model=trained_model,
        config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
    )
    release = threading.Event()

    real_explain = svc.explain

    def gated_explain(*args, **kwargs):
        release.wait(timeout=30)
        return real_explain(*args, **kwargs)

    monkeypatch.setattr(svc, "explain", gated_explain)
    server = create_server(svc, port=0, queue_capacity=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url, release
    release.set()
    server.shutdown()
    server.server_close()


class TestServeUnderLoad:
    def test_queue_full_is_503_with_metrics(self, slow_server):
        base, release = slow_server
        statuses = []
        lock = threading.Lock()

        def fire():
            status, _ = _post(base, "/explain", {"method": "gvex-approx"})
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for t in threads:
            t.start()
            time.sleep(0.05)  # deterministic arrival order

        # while the first explain blocks, the queue holds one more;
        # the rest must be rejected with 503 immediately
        deadline = time.time() + 10
        while time.time() < deadline:
            with lock:
                if statuses.count(503) >= 2:
                    break
            time.sleep(0.05)
        with lock:
            assert statuses.count(503) >= 2, statuses

        _, health = _get(base, "/health")
        assert health["queue"]["capacity"] == 1
        assert health["queue"]["rejected"] >= 2
        assert health["queue"]["depth"] >= 1

        release.set()
        for t in threads:
            t.join(timeout=60)
        # at least the in-flight explain finishes; depending on worker
        # pickup timing the queued slot held one more
        accepted = statuses.count(200)
        assert accepted >= 1 and accepted + statuses.count(503) == 4, statuses
        _, health = _get(base, "/health")
        assert health["queue"]["completed"] == accepted
        assert health["queue"]["depth"] == 0
        assert health["queue"]["avg_run_seconds"] > 0


    def test_tenant_capacity_503_contract(self, trained_model, mutagen_db):
        """Tenant-scope backpressure: one hot tenant is shed at its own
        depth bound with scope='tenant' and Retry-After, while the other
        tenant keeps being admitted through the same pool."""
        from repro.api import ExplanationService, TenantRegistry, create_server

        release = threading.Event()
        registry = TenantRegistry()
        for name in ("a", "b"):
            svc = ExplanationService(
                db=mutagen_db,
                model=trained_model,
                config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
            )
            real = svc.explain
            svc.explain = (
                lambda *args, _real=real, **kw: (
                    release.wait(timeout=30), _real(*args, **kw)
                )[1]
            )
            registry.add_service(name, svc)
        server = create_server(
            registry=registry,
            port=0,
            workers=2,
            queue_capacity=8,
            tenant_queue_capacity=1,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:

            def fire(tenant, out):
                req = urllib.request.Request(
                    server.url + "/explain",
                    data=json.dumps(
                        {"method": "gvex-approx", "tenant": tenant}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(req, timeout=60) as r:
                        out.append((r.status, json.loads(r.read()), {}))
                except urllib.error.HTTPError as err:
                    out.append(
                        (err.code, json.loads(err.read()), dict(err.headers))
                    )

            hot_ok, hot_shed, cold = [], [], []
            t1 = threading.Thread(target=fire, args=("a", hot_ok))
            t1.start()
            time.sleep(0.2)  # tenant a's explain is now gated in flight
            fire("a", hot_shed)  # depth 1 >= bound: immediate 503
            t2 = threading.Thread(target=fire, args=("b", cold))
            t2.start()
            release.set()
            t1.join(timeout=60)
            t2.join(timeout=60)

            status, body, headers = hot_shed[0]
            assert status == 503
            assert body["scope"] == "tenant"
            assert body["tenant"] == "a"
            assert headers.get("Retry-After") == "1"
            assert hot_ok[0][0] == 200
            assert cold[0][0] == 200
            _, health = _get(server.url, "/health")
            tenants = health["queue"]["tenants"]
            assert tenants["a"]["rejected"] == 1
            assert tenants["b"]["rejected"] == 0
            assert health["queue"]["depth"] == 0
        finally:
            release.set()
            server.shutdown()
            server.server_close()


@pytest.fixture(scope="module")
def auth_server(trained_model, mutagen_db):
    from repro.api import ExplanationService, create_server

    svc = ExplanationService(
        db=mutagen_db,
        model=trained_model,
        config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
    )
    server = create_server(svc, port=0, auth_token="sesame-42")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url
    server.shutdown()
    server.server_close()


class TestAuthToken:
    def test_post_requires_bearer_token(self, auth_server):
        status, body = _post(auth_server, "/explain", {"method": "gvex-approx"})
        assert status == 401
        assert "token" in body["error"]
        status, _ = _post(
            auth_server, "/explain", {"method": "gvex-approx"}, token="wrong"
        )
        assert status == 401

    def test_post_with_token_succeeds_and_reads_stay_open(self, auth_server):
        status, health = _get(auth_server, "/health")
        assert status == 200
        assert health["auth"] is True
        status, summary = _post(
            auth_server,
            "/explain",
            {"method": "gvex-approx"},
            token="sesame-42",
        )
        assert status == 200
        assert summary["method"] == "gvex-approx"
        status, result = _post(
            auth_server,
            "/query",
            {"pattern": {"node_types": [1, 2], "edges": [[0, 1, 0]]}},
            token="sesame-42",
        )
        assert status == 200
        assert "matches" in result
