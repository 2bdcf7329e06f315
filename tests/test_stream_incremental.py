"""Rebuild-vs-incremental ``IncEVerify`` parity (StreamGVEX, §5).

The incremental engine's contract mirrors the batched verifier's
(docs/streaming.md, docs/verification.md): extending the persistent
influence/diversity accumulators when a chunk arrives must select
*identical* views to re-deriving the oracle on the seen prefix, while
issuing strictly fewer full oracle refreshes per stream. Checked at
three levels:

* engine level — after any sequence of one-node extensions the
  accumulated relations ``B``/``R`` equal a from-scratch
  :class:`ExplainabilityOracle`'s on the same prefix (hypothesis
  property over random graphs, conv types included);
* algorithm level — ``StreamGvex`` selects byte-identical node sets,
  patterns, and snapshot objectives on every dataset of the synthetic
  zoo in both ``paper`` and ``soft`` verification modes, with
  ``oracle_forwards`` strictly smaller whenever the stream spans more
  than one chunk. The rebuild arm runs the production ``StreamGvex``
  with :func:`repro.reference.rebuild_everify` substituting
  :class:`~repro.reference.RebuildEVerify` for the engine;
* scheduling level — the frontier-reuse fast path
  (``prefetch_extensions`` / ``extension_index_matrix``) fills the
  verifier cache with values bit-identical to the per-subset schedule.
"""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import JACOBIAN_EXACT, GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.explainability import ExplainabilityOracle
from repro.core.inc_everify import IncrementalEVerify
from repro.core.streaming import StreamGvex
from repro.core.verifiers import BatchedGnnVerifier, GnnVerifier
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.batch import extension_index_matrix
from repro.gnn.jacobian import influence_matrix, normalized_influence
from repro.gnn.model import CONV_TYPES, GnnClassifier
from repro.graphs.graph import Graph
from repro.reference import rebuild_everify, serial_verifier
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


# ----------------------------------------------------------------------
# algorithm level: the zoo sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [VERIFY_PAPER, VERIFY_SOFT])
@pytest.mark.parametrize("dataset", ZOO)
def test_stream_inc_parity_across_zoo(dataset, mode):
    """Byte-identical streaming selections on every zoo dataset, with
    strictly fewer full oracle refreshes for the incremental engine."""
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
        chunks = len(rr.snapshots)
        assert rr.oracle_stats.oracle_forwards == chunks
        assert ri.oracle_stats.oracle_forwards == (1 if chunks else 0)
        assert ri.oracle_stats.incremental_updates == max(0, chunks - 1)
        if chunks > 1:  # strictly fewer launches per chunk
            assert (
                ri.oracle_stats.oracle_forwards
                < rr.oracle_stats.oracle_forwards
            )
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
        if len(rr.snapshots) > 1:
            assert (
                ri.oracle_stats.oracle_forwards
                < rr.oracle_stats.oracle_forwards
            )


def test_shuffled_stream_orders_agree(trained_model, mutagen_db):
    """Arrivals interleave with the sorted prefix under shuffled orders,
    exercising the permutation-scatter path of every accumulator."""
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
    """Exact-mode Jacobians have no incremental structure: the engine
    re-derives per chunk (counted as fallbacks) and still agrees."""
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
    chunks = len(ri.snapshots)
    assert chunks > 1
    assert ri.oracle_stats.full_refreshes == 1
    assert ri.oracle_stats.fallback_rebuilds == chunks - 1
    assert ri.oracle_stats.oracle_forwards == chunks  # no savings here


def test_large_prefix_uses_sparse_influence(
    trained_model, mutagen_db, monkeypatch
):
    """Past SPARSE_THRESHOLD the engine mirrors rebuild's sparse
    big-graph influence program instead of caching dense powers, and
    still selects the identical view."""
    import repro.gnn.sparse as sparse_mod

    monkeypatch.setattr(sparse_mod, "SPARSE_THRESHOLD", 4)
    config = replace(
        GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5),
        stream_batch_size=3,
    )
    graph = mutagen_db[1]
    label = trained_model.predict(graph)
    rr = run_stream(trained_model, graph, label, config, rebuild=True)
    ri = run_stream(trained_model, graph, label, config)
    assert stream_fingerprint(ri) == stream_fingerprint(rr)
    chunks = len(ri.snapshots)
    assert chunks > 1
    # prefix crosses the (patched) threshold: later chunks take the
    # sparse path, embeddings stay incremental (still 1 full forward)
    assert ri.oracle_stats.sparse_power_builds > 0
    assert ri.oracle_stats.oracle_forwards == 1
    assert ri.oracle_stats.oracle_forwards < rr.oracle_stats.oracle_forwards


# ----------------------------------------------------------------------
# engine level: one-node extensions never change the oracle
# ----------------------------------------------------------------------
@st.composite
def graph_and_split(draw, max_nodes=10):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=2), min_size=n, max_size=n
        )
    )
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=2 * n, unique=True)
    ) if possible else []
    prefix = draw(st.integers(min_value=1, max_value=n))
    conv = draw(st.sampled_from(CONV_TYPES))
    return types, edges, prefix, conv


def assert_one_node_extension_matches_scratch(types, edges, prefix, conv):
    """Feed the first ``prefix`` nodes, in reverse id order, one at a
    time through the engine; its relations equal a from-scratch
    oracle's on the same prefix."""
    graph, model, config = extension_case(types, edges, conv)
    engine = IncrementalEVerify(model, config)
    # arrival order: a fixed permutation so ids interleave when sorted
    order = list(reversed(range(graph.n_nodes)))
    seen = []
    oracle = None
    for v in order[:prefix]:
        seen.append(v)
        oracle = engine.refresh(graph, sorted(seen))
    prefix_sub, _ = graph.induced_subgraph(seen)
    scratch = ExplainabilityOracle(model, prefix_sub, config)
    assert np.array_equal(oracle.B, scratch.B)
    assert np.array_equal(oracle.R, scratch.R)
    assert engine.stats.full_refreshes == 1
    assert engine.stats.incremental_updates == prefix - 1


def extension_case(types, edges, conv):
    graph = Graph(types)
    for u, v in edges:
        graph.add_edge(u, v)
    model = GnnClassifier(3, 2, hidden_dims=(6, 6), conv=conv, seed=1)
    return graph, model, GvexConfig()


def near_theta(types, edges, prefix, conv, ulps=4):
    """Whether some scratch ``I2`` on the prefix lies within ``ulps``
    of ``θ``, where ``I2 >= θ`` is decided by rounding."""
    graph, model, config = extension_case(types, edges, conv)
    prefix_nodes = list(reversed(range(graph.n_nodes)))[:prefix]
    prefix_sub, _ = graph.induced_subgraph(prefix_nodes)
    I2 = normalized_influence(influence_matrix(model, prefix_sub, config.jacobian))
    return bool(np.any(np.abs(I2 - config.theta) <= ulps * np.spacing(config.theta)))


@given(graph_and_split())
@settings(max_examples=30, deadline=None)
def test_one_node_extension_matches_scratch(case):
    """Feeding nodes one at a time through the engine yields relations
    (hence selections) identical to a from-scratch oracle on the same
    prefix — the invariant behind the parity sweeps above. Both
    schedules compute ``I2`` in a different order, so where it sits
    within ulps of ``θ`` rounding decides ``I2 >= θ``; those draws
    are left to the pinned case below."""
    assume(not near_theta(*case))
    assert_one_node_extension_matches_scratch(*case)


@pytest.mark.xfail(
    strict=True,
    reason="the scratch I2 is 0.10000000000000002, one ulp past theta = 0.1, "
    "so rounding decides I2 >= theta (ROADMAP: Views that rounding cannot flip)",
)
def test_one_node_extension_one_ulp_past_theta():
    """A falsifying draw of the property above, pinned: the engine's
    ``B`` differs from the scratch oracle's in column 1."""
    types = [0] * 8
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (3, 5)]
    assert_one_node_extension_matches_scratch(types, edges, 8, "sage")


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


# ----------------------------------------------------------------------
# extend_power_sequence: factored rank update + correction re-anchoring
# ----------------------------------------------------------------------
def _grown_propagation(m_old, b, seed):
    """(P_old, P_new, positions) for a graph grown by ``b`` nodes.

    Arrivals interleave: the old nodes scatter into the new index
    space, exactly like StreamGVEX's permutation-scatter case. The
    old propagation matrix is the induced block of the new adjacency,
    so unchanged entries are bit-equal (the elementwise construction
    the factored update relies on).
    """
    from repro.gnn.propagation import normalize_dense

    rng = np.random.default_rng(seed)
    m = m_old + b
    A = np.zeros((m, m))
    n_edges = int(rng.integers(m, 2 * m + 1))
    for _ in range(n_edges):
        u, v = (int(x) for x in rng.integers(0, m, size=2))
        if u != v:
            A[u, v] = A[v, u] = 1.0
    pos = np.sort(rng.choice(m, size=m_old, replace=False))
    A_old = A[np.ix_(pos, pos)]
    return normalize_dense(A_old), normalize_dense(A), pos


def _correction_rank(P_new, prev_powers, pos):
    """Replicate the routine's rank computation for branch assertions."""
    m = P_new.shape[0]
    E = np.zeros((m, m))
    E[np.ix_(pos, pos)] = prev_powers[0]
    delta = P_new - E
    rows = np.nonzero(np.any(delta != 0.0, axis=1))[0]
    rest = delta.copy()
    rest[rows] = 0.0
    cols = np.nonzero(np.any(rest != 0.0, axis=0))[0]
    return rows.size + cols.size


@given(
    m_old=st.integers(3, 9),
    b=st.integers(1, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_extend_power_sequence_matches_dense(m_old, b, k, seed):
    """Factored + re-anchored powers equal the dense recursion."""
    from repro.gnn.propagation import extend_power_sequence, power_sequence

    P_old, P_new, pos = _grown_propagation(m_old, b, seed)
    prev = power_sequence(P_old, k)
    got = extend_power_sequence(prev, P_new, pos)
    want = power_sequence(P_new, k)
    assert len(got) == k
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, atol=1e-10, rtol=1e-9)


def test_reanchor_path_replaces_dense_rebuild():
    """A case the old code sent to the full dense rebuild now re-anchors.

    The regression target: ``b + rank < m`` (first step is low-rank,
    the factored path starts) but ``b + k·rank >= m`` (the old upfront
    check would have abandoned it entirely). The result must still
    match the dense recursion.
    """
    from repro.gnn.propagation import extend_power_sequence, power_sequence

    found = 0
    for seed in range(200):
        m_old, b, k = 8, 3, 3
        P_old, P_new, pos = _grown_propagation(m_old, b, seed)
        prev = power_sequence(P_old, k)
        rank = _correction_rank(P_new, prev, pos)
        m = P_new.shape[0]
        if not (b + rank < m and b + k * rank >= m):
            continue  # not the re-anchor regime
        found += 1
        got = extend_power_sequence(prev, P_new, pos)
        want = power_sequence(P_new, k)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-10, rtol=1e-9)
        if found >= 5:
            break
    assert found >= 1, "no seed exercised the re-anchor branch"
