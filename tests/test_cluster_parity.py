"""Bit-parity of the wire path against the serial reference.

Three layers, increasingly physical:

* **merge-over-the-wire property (hypothesis)** — random shard
  assignments and worker counts: every shard's partial view set is
  pushed through an actual ``result`` envelope (encode -> canonical
  bytes -> decode) before merging, including duplicated results from a
  simulated re-dispatch; the merge must equal ``SerialExecutor``'s
  views bit for bit. The partials here carry their own Psum patterns,
  the shape workers sent (and journals recorded) before Psum moved
  wholly into the coordinator, so old envelopes keep merging to the
  serial views. No sockets, so this runs in the default lane.
* **Psum once** — serial, fork-pool and live-cluster runs of one plan
  each summarize every label group exactly once, in the parent.
* **every plan ships** — a StreamGVEX plan and a per-group ApproxGVEX
  plan run on the fork pool's and a live cluster's workers, and equal
  serial.
* **live localhost cluster** — a real coordinator + two real workers
  over HTTP on >= 2 zoo datasets. Marked ``slow`` (CI's bench lane).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SCOPE_PER_GROUP, GvexConfig
from repro.datasets.registry import load_dataset
from repro.graphs.io import viewset_from_dict, viewset_to_dict
from repro.runtime import ForkPoolExecutor, SerialExecutor, WorkerState, build_plan
from repro.runtime.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    DistributedExecutor,
    wire,
)
from repro.runtime.cluster.coordinator import merge_results
from repro.runtime.plan import Shard, assemble_views
from tests.test_golden_views import view_set_fingerprint
from tests.test_runtime import limited_predicted, zoo_model

AUTH = "cluster-secret"


def shard_result_envelope(state: WorkerState, shard, shard_id, job_id="job-p"):
    """A result envelope for one shard, as wire bytes, in the older
    shape whose partial view carries the shard's own Psum patterns."""
    results = state.run_shard(shard)
    views = assemble_views(
        {shard.label: [s for _, _, s, _ in results if s is not None]},
        state.config,
        [shard.label],
    )
    envelope = wire.encode_result(
        job_id=job_id,
        shard_id=shard_id,
        worker_id=f"w{shard_id % 3}",
        views=views,
        inference_calls=sum(calls for _, _, _, calls in results),
    )
    # the actual bytes a socket would carry
    return json.loads(wire.canonical_bytes(envelope))


# ----------------------------------------------------------------------
# merge-over-the-wire property (no sockets)
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_wire_merge_matches_serial(data):
    """Random re-sharding + wire round-trip + re-dispatch == serial."""
    dataset = data.draw(
        st.sampled_from(["ba_synthetic", "pcqm4m", "enzymes"]), label="dataset"
    )
    db = load_dataset(dataset, scale="test", seed=0)
    model = zoo_model(dataset)
    config = GvexConfig().with_bounds(0, 5)
    predicted = limited_predicted(db, model, 3)
    plan = build_plan(db, model, config, predicted=predicted)
    serial, serial_stats = SerialExecutor().run(plan)

    # random re-partition of each label group into 1..4 shards
    shards = []
    for label in plan.labels:
        indices = plan.group_indices(label)
        if not indices:
            continue
        n_chunks = data.draw(
            st.integers(1, min(4, len(indices))), label=f"chunks-{label}"
        )
        bounds = sorted(
            data.draw(
                st.lists(
                    st.integers(1, len(indices) - 1),
                    min_size=n_chunks - 1,
                    max_size=n_chunks - 1,
                    unique=True,
                ),
                label=f"cuts-{label}",
            )
            if len(indices) > 1
            else []
        )
        prev = 0
        for cut in bounds + [len(indices)]:
            shards.append(Shard(label, tuple(indices[prev:cut])))
            prev = cut

    state = WorkerState.from_plan(plan)
    envelopes = [
        shard_result_envelope(state, shard, sid)
        for sid, shard in enumerate(shards)
    ]
    # induced re-dispatch: some shards answered twice (a worker died
    # after answering late); first result wins, duplicates identical
    dupes = data.draw(
        st.lists(st.integers(0, max(len(envelopes) - 1, 0)), max_size=2),
        label="dupes",
    )
    results = {}
    for envelope in envelopes + [envelopes[i] for i in dupes if envelopes]:
        msg = wire.decode_result(envelope)
        results.setdefault(msg.shard_id, msg)

    merged = merge_results([results[sid] for sid in sorted(results)], plan)
    assert view_set_fingerprint(merged) == view_set_fingerprint(serial)
    calls = sum(m.inference_calls for m in results.values())
    assert calls == serial_stats["inference_calls"]


def test_merge_results_unions_partials(trained_model, mutagen_db, small_config):
    """Partials split anyhow, across labels, merge to the serial views,
    and the patterns summarized over the union cover every node."""
    from repro.graphs.view import ExplanationView, ViewSet
    from repro.matching.coverage import CoverageIndex

    plan = build_plan(mutagen_db, trained_model, small_config)
    serial, _ = SerialExecutor().run(plan)
    assert len(plan.labels) == 2
    # one result per (label, half): label order and halves interleaved
    parts = []
    for label in reversed(plan.labels):
        subs = serial[label].subgraphs
        for chunk in (subs[len(subs) // 2 :], subs[: len(subs) // 2]):
            views = ViewSet()
            views.add(ExplanationView(label=label, subgraphs=list(chunk)))
            parts.append(
                wire.decode_result(
                    wire.encode_result("job-u", len(parts), "w0", views)
                )
            )
    merged = merge_results(parts, plan)
    assert view_set_fingerprint(merged) == view_set_fingerprint(serial)
    for view in merged:
        index = CoverageIndex([s.subgraph for s in view.subgraphs])
        assert index.covers_all_nodes(view.patterns)


def test_psum_runs_once_per_label_on_every_executor(
    trained_model, mutagen_db, monkeypatch
):
    """The one Psum tail runs once per label group on each executor.

    A worker that summarized its own shard would add one call per shard.
    """
    import repro.runtime.plan as plan_module

    calls = []
    real = plan_module.summarize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_module, "summarize", counting)
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)
    plan = build_plan(mutagen_db, trained_model, config, shard_size=4)
    assert len(plan.shards) > len(plan.labels)

    counts = {}
    serial, _ = SerialExecutor().run(plan)
    counts["serial"] = len(calls)
    fork, _ = ForkPoolExecutor(processes=2).run(plan)
    counts["fork-pool"] = len(calls) - counts["serial"]
    with ClusterCoordinator(auth_token=AUTH) as coord:
        with ClusterWorker(
            mutagen_db, trained_model, coord.url, auth_token=AUTH, worker_id="w1"
        ), ClusterWorker(
            mutagen_db, trained_model, coord.url, auth_token=AUTH, worker_id="w2"
        ):
            coord.wait_for_workers(2, timeout=15)
            before = len(calls)
            cluster, _ = DistributedExecutor(coord).run(plan)
            counts["cluster"] = len(calls) - before

    n_labels = len(plan.labels)
    assert counts == {
        "serial": n_labels, "fork-pool": n_labels, "cluster": n_labels
    }
    want = view_set_fingerprint(serial)
    assert view_set_fingerprint(fork) == want
    assert view_set_fingerprint(cluster) == want


def test_stream_and_per_group_plans_run_on_the_workers(
    trained_model, mutagen_db
):
    """No plan stays home: StreamGVEX and per-group ApproxGVEX shards
    are dispatched to forked and remote workers, with serial's views."""
    config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)
    per_group = GvexConfig(
        theta=0.08, radius=0.3, coverage_scope=SCOPE_PER_GROUP
    ).with_bounds(0, 14)
    plans = {
        "stream": build_plan(
            mutagen_db, trained_model, config, method="gvex-stream",
            processes=2,
        ),
        "per-group": build_plan(mutagen_db, trained_model, per_group),
    }
    with ClusterCoordinator(auth_token=AUTH) as coord:
        with ClusterWorker(
            mutagen_db, trained_model, coord.url, auth_token=AUTH, worker_id="w1"
        ) as w1, ClusterWorker(
            mutagen_db, trained_model, coord.url, auth_token=AUTH, worker_id="w2"
        ) as w2:
            coord.wait_for_workers(2, timeout=15)
            for name, plan in plans.items():
                serial, _ = SerialExecutor().run(plan)
                fork, _ = ForkPoolExecutor(processes=2).run(plan)
                before = w1.shards_run + w2.shards_run
                cluster, stats = DistributedExecutor(coord).run(plan)
                assert w1.shards_run + w2.shards_run > before, name
                assert stats["shards"] == len(plan.shards), name
                want = view_set_fingerprint(serial)
                assert view_set_fingerprint(fork) == want, name
                assert view_set_fingerprint(cluster) == want, name


# ----------------------------------------------------------------------
# live localhost cluster (slow lane)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("dataset", ["ba_synthetic", "pcqm4m"])
def test_live_cluster_bit_identical_to_serial(dataset):
    """ISSUE acceptance: 2 real workers over HTTP == SerialExecutor."""
    db = load_dataset(dataset, scale="test", seed=0)
    model = zoo_model(dataset)
    config = GvexConfig().with_bounds(0, 5)
    predicted = limited_predicted(db, model, 3)
    plan = build_plan(db, model, config, predicted=predicted)
    serial, serial_stats = SerialExecutor().run(plan)

    with ClusterCoordinator(auth_token=AUTH) as coord:
        with ClusterWorker(
            db, model, coord.url, auth_token=AUTH, worker_id="w1"
        ), ClusterWorker(
            db, model, coord.url, auth_token=AUTH, worker_id="w2"
        ):
            coord.wait_for_workers(2, timeout=15)
            views, stats = DistributedExecutor(coord).run(plan)

    assert view_set_fingerprint(views) == view_set_fingerprint(serial)
    assert stats["inference_calls"] == serial_stats["inference_calls"]
    assert stats["redispatched"] == 0
    assert stats["shards"] == len(plan.shards)


@pytest.mark.slow
def test_live_cluster_views_survive_json_roundtrip(trained_model, mutagen_db):
    """The merged result is the same persisted artifact serial writes."""
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 6)
    plan = build_plan(mutagen_db, trained_model, config)
    serial, _ = SerialExecutor().run(plan)
    with ClusterCoordinator(auth_token=AUTH) as coord:
        with ClusterWorker(mutagen_db, trained_model, coord.url, auth_token=AUTH):
            coord.wait_for_workers(1, timeout=15)
            views, _ = coord.run(plan)
    reloaded = viewset_from_dict(viewset_to_dict(views))
    assert view_set_fingerprint(reloaded) == view_set_fingerprint(serial)
