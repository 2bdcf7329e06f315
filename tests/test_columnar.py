"""Columnar CSR storage: round-trip, staleness, and consumer parity.

The columnar tier (:mod:`repro.graphs.columnar`) is pure layout — it
must never change a single observable number. These tests pin that:

* a hypothesis property checks :class:`ColumnarDatabase` round-trips
  bit-identically with the edge-dict representation (adjacency,
  directional CSRs, node/edge types, degrees) for mixed
  directed/undirected groups, including through incremental
  :meth:`ColumnarDatabase.extend` patches;
* ``MatchContext`` built from a group slice equals the standalone
  per-graph build field by field;
* ``GnnClassifier.predict_proba_db`` / ``predict_db`` over the
  columnar mirror equal per-graph ``predict_proba`` / ``predict``
  bit-for-bit across the dataset zoo (stacked whole-shard forwards);
* stale slices (graph mutated after the build) are detected and fall
  back to the per-graph path with identical results.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn.batch import scattered_adjacency_batch, symmetrized_adjacency
from repro.gnn.model import GnnClassifier
from repro.graphs.columnar import (
    ColumnarDatabase,
    ColumnarGroup,
    columnar_slice_of,
    edge_index_arrays,
)
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.matching.context import MatchContext
from repro.datasets.registry import DATASETS, dataset_info, load_dataset

ZOO = sorted(DATASETS)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def typed_graph(draw, max_nodes=8, max_types=3):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_types - 1),
            min_size=n,
            max_size=n,
        )
    )
    directed = draw(st.booleans())
    g = Graph(types, directed=directed)
    possible = (
        [(u, v) for u in range(n) for v in range(n) if u != v]
        if directed
        else list(combinations(range(n), 2))
    )
    if possible:
        for (u, v) in draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=2 * n)
        ):
            g.add_edge(u, v, draw(st.integers(min_value=0, max_value=2)))
    return g


@st.composite
def graph_lists(draw, min_size=1, max_size=6):
    return draw(st.lists(typed_graph(), min_size=min_size, max_size=max_size))


# ----------------------------------------------------------------------
# round-trip property
# ----------------------------------------------------------------------
def csr_to_dense(indptr, indices, n):
    A = np.zeros((n, n))
    for v in range(n):
        A[v, indices[indptr[v] : indptr[v + 1]]] = 1.0
    return A


def assert_slice_matches(sl, g):
    assert sl.n == g.n_nodes
    assert sl.directed == g.directed
    assert np.array_equal(sl.node_type, g.node_types)
    assert sl.content_key == g.content_key()
    n = g.n_nodes
    A = g.adjacency_matrix()
    A_sym = np.maximum(A, A.T) if g.directed else A
    # union flavor: exactly the symmetrized nonzeros, ascending per row
    assert np.array_equal(
        csr_to_dense(sl.indptr("all"), sl.indices("all"), n), A_sym
    )
    assert np.array_equal(sl.degrees("all"), [g.degree(v) for v in g.nodes()])
    for v in range(n):
        row = sl.indices("all")[sl.indptr("all")[v] : sl.indptr("all")[v + 1]]
        assert np.array_equal(row, np.sort(row))
    if g.directed:
        assert np.array_equal(
            csr_to_dense(sl.indptr("out"), sl.indices("out"), n), A
        )
        assert np.array_equal(
            csr_to_dense(sl.indptr("in"), sl.indices("in"), n), A.T
        )
    # aligned edge types on the typed flavors
    kinds = ("out", "in") if g.directed else ("all",)
    for kind in kinds:
        indptr, cols, ets = sl.indptr(kind), sl.indices(kind), sl.etypes(kind)
        for v in range(n):
            for c, t in zip(
                cols[indptr[v] : indptr[v + 1]], ets[indptr[v] : indptr[v + 1]]
            ):
                u, w = (v, int(c)) if kind != "in" else (int(c), v)
                assert g.edge_type(u, w) == int(t)


@given(graph_lists())
@settings(max_examples=40, deadline=None)
def test_columnar_round_trip(graphs):
    col = ColumnarDatabase.from_graphs(graphs)
    for i, g in enumerate(graphs):
        sl = col.fresh_slice(i, g)
        assert sl is not None
        assert_slice_matches(sl, g)


@given(graph_lists(min_size=2))
@settings(max_examples=30, deadline=None)
def test_columnar_extend_equals_bulk_build(graphs):
    half = len(graphs) // 2
    labels = [g.n_nodes % 2 for g in graphs]
    col = ColumnarDatabase.from_graphs(graphs[:half], labels=labels[:half])
    col.extend(graphs[half:], labels=labels[half:], start=half)
    bulk = ColumnarDatabase.from_graphs(graphs, labels=labels)
    for i, g in enumerate(graphs):
        for db in (col, bulk):
            sl = db.fresh_slice(i, g)
            assert sl is not None
            assert_slice_matches(sl, g)
        a, b = col.slice_of(i), bulk.slice_of(i)
        for kind in ("all", "out", "in"):
            assert np.array_equal(a.indptr(kind), b.indptr(kind))
            assert np.array_equal(a.indices(kind), b.indices(kind))
            assert np.array_equal(a.etypes(kind), b.etypes(kind))
        ra, rb = a.rows("all"), b.rows("all")
        assert (ra is None) == (rb is None)
        if ra is not None:
            assert np.array_equal(ra, rb)


@given(typed_graph())
@settings(max_examples=40, deadline=None)
def test_edge_index_arrays_round_trip(g):
    u, v, t = edge_index_arrays(g)
    assert {(int(a), int(b)): int(c) for a, b, c in zip(u, v, t)} == dict(
        g.edge_types
    )


# ----------------------------------------------------------------------
# MatchContext: group slice == standalone build
# ----------------------------------------------------------------------
@given(graph_lists())
@settings(max_examples=30, deadline=None)
def test_context_from_group_slice_equals_standalone(graphs):
    col = ColumnarDatabase.from_graphs(graphs)
    for i, g in enumerate(graphs):
        a = MatchContext(g, columnar=col.fresh_slice(i, g))
        b = MatchContext(g)
        assert np.array_equal(a.node_types, b.node_types)
        assert np.array_equal(a.degrees, b.degrees)
        for direction in ("", "o", "i"):
            for etype in {t for t in g.edge_types.values()}:
                for ntype in set(int(x) for x in g.node_types):
                    key = (direction, int(etype), ntype)
                    assert np.array_equal(
                        a.sig_counts(key), b.sig_counts(key)
                    ), key
        kinds = ("all", "out", "in") if g.directed else ("all",)
        for kind in kinds:
            assert list(a.rows(kind)) == list(b.rows(kind)), kind


def test_stale_slice_detected_and_fallback_correct():
    g = Graph([0, 1, 2])
    g.add_edge(0, 1, 0)
    col = ColumnarDatabase.from_graphs([g])
    assert col.fresh_slice(0, g) is not None
    g.add_edge(1, 2, 1)  # mutate after the columnar build
    assert col.fresh_slice(0, g) is None
    # consumers fall back per graph and stay correct
    ctx = MatchContext(g)
    assert np.array_equal(ctx.degrees, [1, 2, 1])
    model = GnnClassifier(in_dim=3, n_classes=2, hidden_dims=(4,), seed=0)
    probas = model.predict_proba_db([g], columnar=col)
    assert np.array_equal(probas[0], model.predict_proba(g))


# ----------------------------------------------------------------------
# GNN tier: stacked whole-shard forwards
# ----------------------------------------------------------------------
def test_scattered_adjacency_batch_matches_dense():
    graphs = [Graph([0, 1, 2]), Graph([1, 2, 0], directed=True)]
    graphs[0].add_edge(0, 1, 0)
    graphs[0].add_edge(1, 2, 1)
    graphs[1].add_edge(0, 2, 0)
    graphs[1].add_edge(2, 0, 1)  # reciprocal pair collapses in the union
    slices = [columnar_slice_of(g) for g in graphs]
    A_b = scattered_adjacency_batch(slices)
    for k, g in enumerate(graphs):
        assert np.array_equal(A_b[k], symmetrized_adjacency(g))


def test_symmetrized_adjacency_memoized_and_invalidated():
    g = Graph([0, 1])
    g.add_edge(0, 1, 0)
    A1 = symmetrized_adjacency(g)
    assert symmetrized_adjacency(g) is A1
    assert not A1.flags.writeable
    g2 = Graph([0, 1, 2])
    g2.add_edge(0, 1, 0)
    before = symmetrized_adjacency(g2)
    g2.add_edge(1, 2, 0)
    after = symmetrized_adjacency(g2)
    assert after is not before
    assert after[1, 2] == 1.0


@pytest.mark.parametrize("dataset", ZOO)
def test_zoo_predict_db_bit_identical(dataset):
    info = dataset_info(dataset)
    db = load_dataset(dataset, scale="test", seed=0)
    model = GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0
    )
    probas = model.predict_proba_db(db.graphs, columnar=db.columnar)
    preds = model.predict_db(db.graphs, columnar=db.columnar)
    for i, g in enumerate(db):
        assert np.array_equal(probas[i], model.predict_proba(g)), (dataset, i)
        assert preds[i] == model.predict(g), (dataset, i)


@pytest.mark.parametrize("conv,readout", [("gcn", "max"), ("gin", "mean"), ("sage", "sum")])
def test_predict_db_parity_across_convs(conv, readout):
    rng = np.random.default_rng(3)
    graphs = []
    for _ in range(10):
        n = int(rng.integers(0, 7))
        g = Graph(rng.integers(0, 3, n), directed=bool(rng.integers(0, 2)))
        for _ in range(n):
            u, v = (int(x) for x in rng.integers(0, max(n, 1), 2))
            if u != v and not g.has_edge(u, v):
                try:
                    g.add_edge(u, v, int(rng.integers(0, 2)))
                except Exception:
                    pass
        graphs.append(g)
    db = GraphDatabase(graphs, [0] * len(graphs), name="parity")
    model = GnnClassifier(
        in_dim=3, n_classes=3, hidden_dims=(6, 6), conv=conv, readout=readout, seed=5
    )
    probas = model.predict_proba_db(db.graphs, columnar=db.columnar)
    for i, g in enumerate(graphs):
        assert np.array_equal(probas[i], model.predict_proba(g)), i


def test_database_extend_patches_columnar():
    g1, g2 = Graph([0, 1]), Graph([1, 0])
    g1.add_edge(0, 1, 0)
    g2.add_edge(0, 1, 1)
    db = GraphDatabase([g1], [0], name="ext")
    col = db.columnar()
    db.extend([g2], labels=[1])
    assert db.columnar() is col  # patched in place, not rebuilt
    sl = col.fresh_slice(1, g2)
    assert sl is not None
    assert_slice_matches(sl, g2)


def test_group_row_table_shared_and_sliced():
    graphs = [Graph([0, 1, 2]), Graph([0, 1])]
    graphs[0].add_edge(0, 2, 0)
    graphs[1].add_edge(0, 1, 0)
    group = ColumnarGroup([0, 1], graphs)
    table = group.row_table("all")
    assert table is not None and table.shape[0] == 5
    for pos, g in enumerate(graphs):
        rows = group.rows_of(pos, "all")
        standalone = columnar_slice_of(g).rows("all")
        assert np.array_equal(rows, standalone)
