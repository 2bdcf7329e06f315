"""Host-slice vs induced-prefix ``IncEVerify`` parity (StreamGVEX, §5).

Production builds each chunk's oracle from the host's slices
(docs/streaming.md); the reference
:class:`~repro.reference.RebuildEVerify` builds the seen prefix as a
graph first. Both must give the same oracle bit for bit on every chunk
and count one full refresh per chunk. Checked at three levels:

* oracle level — every chunk's relations ``B``/``R`` equal the
  reference's with ``==`` (hypothesis property over random directed
  and undirected hosts, every conv, shuffled arrival orders, and a
  pinned draw whose ``I2`` lies one ulp past ``θ``); exact Jacobians
  and prefixes past ``SPARSE_THRESHOLD`` too;
* algorithm level — ``StreamGvex`` selects byte-identical node sets,
  patterns, and snapshot objectives on every dataset of the synthetic
  zoo in both ``paper`` and ``soft`` verification modes. The reference
  arm runs the production ``StreamGvex`` with
  :func:`repro.reference.rebuild_everify` substituting
  :class:`~repro.reference.RebuildEVerify` for the production class;
* scheduling level — the frontier-reuse fast path
  (``prefetch_extensions`` / ``extension_index_matrix``) fills the
  verifier cache with values bit-identical to the per-subset schedule.
"""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import JACOBIAN_EXACT, GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.inc_everify import IncrementalEVerify
from repro.core.streaming import StreamGvex
from repro.core.verifiers import BatchedGnnVerifier, GnnVerifier
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.batch import extension_index_matrix
from repro.gnn.model import CONV_TYPES, GnnClassifier
from repro.graphs.graph import Graph
from repro.reference import RebuildEVerify, rebuild_everify, serial_verifier
from repro.utils.rng import ensure_rng

GRAPHS_PER_DATASET = 2
ZOO = sorted(DATASETS)


def stream_fingerprint(result):
    nodes = None if result.subgraph is None else result.subgraph.nodes
    score = None if result.subgraph is None else result.subgraph.score
    return (
        nodes,
        score,
        tuple(p.graph.content_key() for p in result.patterns),
        tuple(s.objective for s in result.snapshots),
        tuple(s.selected_nodes for s in result.snapshots),
    )


def run_stream(model, graph, label, config, rebuild=False, **kwargs):
    """One stream, on the rebuild reference when ``rebuild``."""
    with rebuild_everify() if rebuild else nullcontext():
        algo = StreamGvex(model, config)
        return algo.explain_graph_stream(graph, label, **kwargs)


def assert_one_refresh_per_chunk(*results):
    for result in results:
        assert result.oracle_stats.full_refreshes == len(result.snapshots)


def assert_chunks_match_rebuild(model, graph, config, order, batch=1):
    """Feed ``order`` in chunks of ``batch``: every chunk's relations
    equal :class:`RebuildEVerify`'s on the induced prefix, bit for bit."""
    production = IncrementalEVerify(model, config)
    reference = RebuildEVerify(model, config)
    for end in range(batch, len(order) + batch, batch):
        ids = sorted(order[:end])
        got, want = production.refresh(graph, ids), reference.refresh(graph, ids)
        assert got.B.shape == want.B.shape == (len(ids), len(ids))
        assert (got.B == want.B).all(), ids
        assert (got.R == want.R).all(), ids
    assert production.stats.full_refreshes == reference.stats.full_refreshes


# ----------------------------------------------------------------------
# algorithm level: the zoo sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
@pytest.mark.parametrize("dataset", ZOO)
def test_stream_inc_parity_across_zoo(dataset, mode):
    """Byte-identical streaming selections on every zoo dataset, with
    one full oracle refresh per chunk on both schedules."""
    db = load_dataset(dataset, scale="test", seed=0)
    info = dataset_info(dataset)
    model = GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0
    )
    config = replace(
        GvexConfig(verification=mode).with_bounds(0, 5), stream_batch_size=4
    )
    checked = 0
    for idx in range(len(db)):
        if checked >= GRAPHS_PER_DATASET:
            break
        graph = db[idx]
        label = model.predict(graph)
        if label is None:
            continue
        checked += 1
        rr = run_stream(model, graph, label, config, rebuild=True)
        ri = run_stream(model, graph, label, config)
        assert stream_fingerprint(ri) == stream_fingerprint(rr), (
            dataset,
            mode,
            idx,
        )
        assert_one_refresh_per_chunk(ri, rr)
    assert checked > 0


@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
@pytest.mark.parametrize("serial", [True, False])
def test_stream_inc_parity_trained_model(
    trained_model, mutagen_db, mode, serial
):
    """Same contract on a trained classifier, across verifier schedules
    (all four IncEVerify × EVerify schedule combinations agree)."""
    config = replace(
        GvexConfig(theta=0.08, radius=0.3, verification=mode).with_bounds(0, 6),
        stream_batch_size=3,
    )
    for idx in (0, 1, 5):
        graph = mutagen_db[idx]
        label = trained_model.predict(graph)
        with serial_verifier() if serial else nullcontext():
            rr = run_stream(trained_model, graph, label, config, rebuild=True)
            ri = run_stream(trained_model, graph, label, config)
        assert stream_fingerprint(ri) == stream_fingerprint(rr), (mode, idx)
        assert_one_refresh_per_chunk(ri, rr)


def test_shuffled_stream_orders_agree(trained_model, mutagen_db):
    """Arrivals interleave with the sorted prefix under shuffled orders,
    so each chunk's slices of the host follow new sorted ids."""
    config = replace(
        GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5),
        stream_batch_size=3,
    )
    graph = mutagen_db[1]
    label = trained_model.predict(graph)
    rng = np.random.default_rng(7)
    for _ in range(3):
        order = list(rng.permutation(graph.n_nodes))
        rr = run_stream(
            trained_model, graph, label, config, rebuild=True, order=order
        )
        ri = run_stream(trained_model, graph, label, config, order=order)
        assert stream_fingerprint(ri) == stream_fingerprint(rr)


def test_exact_jacobian_falls_back_to_rebuild(trained_model, mutagen_db):
    """Exact-mode Jacobians run through the forward of the host's slices,
    the rebuild reference's through the induced prefix's: every chunk's
    oracle and the view agree."""
    config = replace(
        GvexConfig(theta=0.08, radius=0.3, jacobian=JACOBIAN_EXACT).with_bounds(
            0, 5
        ),
        stream_batch_size=3,
    )
    graph = mutagen_db[0]
    label = trained_model.predict(graph)
    rr = run_stream(trained_model, graph, label, config, rebuild=True)
    ri = run_stream(trained_model, graph, label, config)
    assert stream_fingerprint(ri) == stream_fingerprint(rr)
    assert len(ri.snapshots) > 1
    assert_one_refresh_per_chunk(ri, rr)
    assert_chunks_match_rebuild(
        trained_model, graph, config, list(graph.nodes()), batch=3
    )


def test_large_prefix_uses_sparse_influence(
    trained_model, mutagen_db, monkeypatch
):
    """Past SPARSE_THRESHOLD both schedules take ``Q^k`` by sparse
    products over the prefix's ``Q``: every chunk's oracle and the view
    agree."""
    from repro.gnn import propagation

    monkeypatch.setattr(propagation, "SPARSE_THRESHOLD", 4)
    sparse_calls = []
    sparse_power = propagation.sparse_propagation_power
    monkeypatch.setattr(
        propagation,
        "sparse_propagation_power",
        lambda Q, k: sparse_calls.append(len(Q)) or sparse_power(Q, k),
    )
    config = replace(
        GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5),
        stream_batch_size=3,
    )
    graph = mutagen_db[1]
    label = trained_model.predict(graph)
    rr = run_stream(trained_model, graph, label, config, rebuild=True)
    ri = run_stream(trained_model, graph, label, config)
    assert stream_fingerprint(ri) == stream_fingerprint(rr)
    assert len(ri.snapshots) > 1
    assert_one_refresh_per_chunk(ri, rr)
    # the prefix crosses the (patched) threshold after its second chunk
    assert sparse_calls and min(sparse_calls) > 4
    assert_chunks_match_rebuild(
        trained_model, graph, config, list(graph.nodes()), batch=3
    )


# ----------------------------------------------------------------------
# oracle level: every chunk equals the induced-prefix reference
# ----------------------------------------------------------------------
@st.composite
def stream_case(draw, max_nodes=10):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=2), min_size=n, max_size=n
        )
    )
    directed = draw(st.booleans())
    possible = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (directed or u < v)
    ]
    edges = draw(st.lists(st.sampled_from(possible), max_size=2 * n, unique=True))
    order = draw(st.permutations(range(n)))
    prefix = draw(st.integers(min_value=1, max_value=n))
    conv = draw(st.sampled_from(CONV_TYPES))
    return types, edges, directed, order[:prefix], conv


def assert_one_node_extension_matches_scratch(types, edges, directed, order, conv):
    """Feed ``order`` one node at a time: every chunk's relations equal
    the reference's on the same prefix."""
    graph = Graph(types, directed=directed)
    for u, v in edges:
        graph.add_edge(u, v)
    model = GnnClassifier(3, 2, hidden_dims=(6, 6), conv=conv, seed=1)
    assert_chunks_match_rebuild(model, graph, GvexConfig(), list(order))


@given(stream_case())
@settings(max_examples=40, deadline=None)
def test_one_node_extension_matches_scratch(case):
    """Every chunk's oracle equals the induced-prefix reference's, with
    no exemption for ``I2`` within ulps of ``θ``: both compute it by
    the same operations on the same arrays."""
    assert_one_node_extension_matches_scratch(*case)


def test_one_node_extension_one_ulp_past_theta():
    """A pinned draw whose scratch ``I2`` is 0.10000000000000002, one
    ulp past ``θ = 0.1``, so rounding decides ``I2 >= θ``: a schedule
    that computes ``I2`` by other operations, a rank update of cached
    powers say, can put it on the other side."""
    types = [0] * 8
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (3, 5)]
    order = list(reversed(range(8)))
    assert_one_node_extension_matches_scratch(types, edges, False, order, "sage")


# ----------------------------------------------------------------------
# scheduling level: frontier tensor reuse
# ----------------------------------------------------------------------
def test_extension_index_matrix_matches_normalize():
    rng = ensure_rng(3)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        base = sorted(
            rng.choice(n, size=int(rng.integers(0, n - 1)), replace=False)
        )
        pool = [v for v in range(n) if v not in set(base)]
        cands = [int(v) for v in rng.permutation(pool)[: max(1, len(pool) // 2)]]
        idx = extension_index_matrix(base, cands)
        want = [tuple(sorted(set(base) | {v})) for v in cands]
        assert [tuple(row) for row in idx.tolist()] == want
    assert extension_index_matrix([1, 2], []).shape == (0, 3)


def test_prefetch_extensions_bitwise_and_fewer_launches(mutagen_db):
    model = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=3)
    graph = mutagen_db[1]
    base = {0, 2}
    pool = [v for v in graph.nodes() if v not in base]
    fast = BatchedGnnVerifier(model, graph)
    assert fast.prefetch_extensions(base, pool) == len(pool)
    assert fast.inference_calls == 1  # one spliced launch
    slow = BatchedGnnVerifier(model, graph)
    slow.prefetch_subsets([frozenset(base) | {v} for v in pool])
    serial = GnnVerifier(model, graph)
    for v in pool:
        key = frozenset(base) | {v}
        for label in range(model.n_classes):
            p = fast.subset_probability(key, label)
            assert p == slow.subset_probability(key, label)
            assert p == serial.subset_probability(key, label)
    # idempotent on a warm cache: no extra launches
    calls = fast.inference_calls
    assert fast.prefetch_extensions(base, pool) == 0
    assert fast.inference_calls == calls


def test_prefetch_extensions_empty_base_and_serial_fallback(mutagen_db):
    model = GnnClassifier(3, 2, hidden_dims=(8,), seed=0)
    graph = mutagen_db[2]
    batched = BatchedGnnVerifier(model, graph)
    batched.prefetch_extensions(set(), [0, 1, 2])
    serial = GnnVerifier(model, graph)
    serial.prefetch_extensions(set(), [0, 1, 2])
    for v in (0, 1, 2):
        assert serial.subset_probability(
            {v}, 0
        ) == batched.subset_probability({v}, 0)
    assert serial.inference_calls == 3  # lazy reference schedule kept
