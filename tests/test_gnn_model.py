"""Tests for the numpy GNN: forward/backward correctness via finite
differences, and stacked whole-database forwards bit-identical to the
per-graph ones."""

import numpy as np
import pytest

from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.exceptions import ModelError
from repro.gnn.batch import aggregation_matrices, symmetrized_adjacency
from repro.gnn.loss import softmax, softmax_cross_entropy
from repro.gnn.model import GnnClassifier
from repro.gnn.node_model import NodeGnnClassifier
from repro.gnn.propagation import propagation_power
from repro.gnn.training import LabelEncoder, Trainer
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph, graph_from_edges
from repro.matching.context import MatchContext
from repro.utils.rng import ensure_rng


def _toy_graph(n=5, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    X = rng.normal(size=(n, 3))
    return graph_from_edges([0] * n, edges, features=X)


def _numeric_param_grads(model, graph, label, eps=1e-5):
    """Central finite differences on every parameter entry."""
    grads = []
    for p in model.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp, _ = softmax_cross_entropy(model.forward_graph(graph).logits, label)
            p[idx] = orig - eps
            lm, _ = softmax_cross_entropy(model.forward_graph(graph).logits, label)
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def _gcn_q(graph):
    """The GCN aggregation matrix ``D^{-1/2} (A + I) D^{-1/2}``."""
    return aggregation_matrices("gcn", 0.0, symmetrized_adjacency(graph))


class TestPropagation:
    def test_normalized_adjacency_symmetric(self):
        g = _toy_graph()
        P = _gcn_q(g)
        assert np.allclose(P, P.T)
        assert np.all(P >= 0)

    def test_spectral_radius_bounded(self):
        g = _toy_graph(8)
        P = _gcn_q(g)
        eigs = np.linalg.eigvalsh(P)
        assert eigs.max() <= 1.0 + 1e-9

    def test_isolated_node_self_loop(self):
        g = graph_from_edges([0, 0], [])
        P = _gcn_q(g)
        assert np.allclose(P, np.eye(2))

    def test_directed_symmetrized(self):
        g = graph_from_edges([0, 0], [(0, 1)], directed=True)
        P = _gcn_q(g)
        assert P[0, 1] > 0 and P[1, 0] > 0

    def test_propagation_power(self):
        g = _toy_graph()
        P = _gcn_q(g)
        assert np.allclose(propagation_power(P, 0), np.eye(g.n_nodes))
        assert np.allclose(propagation_power(P, 2), P @ P)

    def test_propagation_power_negative_k(self):
        with pytest.raises(ValueError):
            propagation_power(np.eye(2), -1)

    def test_normalize_dense_rejects_nonsquare(self):
        for shape in [(2, 3), (3, 2), (3,), (2, 2, 3)]:
            with pytest.raises(ValueError):
                aggregation_matrices("gcn", 0.0, np.zeros(shape))

    def test_normalize_dense_matches_graph(self):
        """Node- and graph-level GCNs normalize a graph's adjacency
        with the one ``aggregation_matrices``, bit for bit."""
        g = _toy_graph()
        Q = aggregation_matrices("gcn", 0.0, g.adjacency_matrix())
        assert np.array_equal(NodeGnnClassifier(3, 2).aggregation_matrix(g), Q)
        assert np.array_equal(GnnClassifier(3, 2).aggregation_matrix(g), Q)


class TestLoss:
    def test_softmax_sums_to_one(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        assert p.sum() == pytest.approx(1.0)
        assert p[2] > p[1] > p[0]

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(p, [0.5, 0.5])

    def test_cross_entropy_gradient_matches_numeric(self):
        logits = np.array([0.3, -0.7, 1.2])
        _, dlogits = softmax_cross_entropy(logits, 1)
        eps = 1e-6
        for j in range(3):
            bumped = logits.copy()
            bumped[j] += eps
            lp, _ = softmax_cross_entropy(bumped, 1)
            bumped[j] -= 2 * eps
            lm, _ = softmax_cross_entropy(bumped, 1)
            assert dlogits[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(2), 5)


class TestModelConstruction:
    def test_repr_and_shapes(self):
        m = GnnClassifier(4, 3, hidden_dims=(8, 8))
        assert m.n_layers == 2
        assert m.weights[0].shape == (4, 8)
        assert m.head_weight.shape == (8, 3)
        assert "gcn" in repr(m)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(in_dim=0, n_classes=2),
            dict(in_dim=2, n_classes=1),
            dict(in_dim=2, n_classes=2, hidden_dims=()),
            dict(in_dim=2, n_classes=2, conv="magic"),
            dict(in_dim=2, n_classes=2, readout="median"),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ModelError):
            GnnClassifier(**kwargs)

    def test_deterministic_init(self):
        a = GnnClassifier(3, 2, seed=42)
        b = GnnClassifier(3, 2, seed=42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_feature_width_checked(self):
        m = GnnClassifier(3, 2)
        g = graph_from_edges([0, 1], [(0, 1)], features=np.zeros((2, 5)))
        with pytest.raises(ModelError):
            m.predict(g)


class TestInference:
    def test_predict_proba_distribution(self):
        m = GnnClassifier(3, 4, hidden_dims=(8,), seed=1)
        p = m.predict_proba(_toy_graph())
        assert p.shape == (4,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_empty_graph_uniform(self):
        m = GnnClassifier(3, 2)
        g = graph_from_edges([], [])
        assert np.allclose(m.predict_proba(g), [0.5, 0.5])
        assert m.predict(g) is None

    def test_node_embeddings_shape(self):
        m = GnnClassifier(3, 2, hidden_dims=(7, 5))
        emb = m.node_embeddings(_toy_graph())
        assert emb.shape == (5, 5)

    def test_onehot_fallback_features(self):
        m = GnnClassifier(3, 2)
        g = graph_from_edges([0, 1, 2], [(0, 1), (1, 2)])
        assert m.predict(g) in (0, 1)


@pytest.mark.parametrize("conv", ["gcn", "gin", "sage"])
@pytest.mark.parametrize("readout", ["max", "mean", "sum"])
class TestGradients:
    def test_param_grads_match_finite_differences(self, conv, readout):
        m = GnnClassifier(
            3, 2, hidden_dims=(4, 4), conv=conv, readout=readout, seed=3
        )
        g = _toy_graph(seed=7)
        _, grads = m.loss_and_grads(g, 1)
        numeric = _numeric_param_grads(m, g, 1)
        for got, want in zip(grads, numeric):
            assert np.allclose(got, want, atol=1e-5), f"{conv}/{readout}"


class TestInputGradients:
    def test_dx_matches_finite_differences(self):
        m = GnnClassifier(3, 2, hidden_dims=(4,), seed=5)
        g = _toy_graph(seed=11)
        X = m.features_for(g)
        Q = m.aggregation_matrix(g)
        cache = m.forward(X, Q)
        _, dlogits = softmax_cross_entropy(cache.logits, 0)
        res = m.backward(cache, dlogits, need_input_grads=True)
        eps = 1e-6
        for v in range(X.shape[0]):
            for j in range(X.shape[1]):
                Xp = X.copy()
                Xp[v, j] += eps
                lp, _ = softmax_cross_entropy(m.forward(Xp, Q).logits, 0)
                Xm = X.copy()
                Xm[v, j] -= eps
                lm, _ = softmax_cross_entropy(m.forward(Xm, Q).logits, 0)
                assert res.dX[v, j] == pytest.approx(
                    (lp - lm) / (2 * eps), abs=1e-5
                )

    def test_dq_matches_finite_differences(self):
        m = GnnClassifier(3, 2, hidden_dims=(4, 3), seed=5)
        g = _toy_graph(seed=11)
        X = m.features_for(g)
        Q = m.aggregation_matrix(g)
        cache = m.forward(X, Q)
        _, dlogits = softmax_cross_entropy(cache.logits, 1)
        res = m.backward(cache, dlogits, need_input_grads=True)
        eps = 1e-6
        rng = np.random.default_rng(0)
        # spot-check a handful of entries
        for _ in range(10):
            u, v = rng.integers(0, Q.shape[0], size=2)
            Qp = Q.copy()
            Qp[u, v] += eps
            lp, _ = softmax_cross_entropy(m.forward(X, Qp).logits, 1)
            Qm = Q.copy()
            Qm[u, v] -= eps
            lm, _ = softmax_cross_entropy(m.forward(X, Qm).logits, 1)
            assert res.dQ[u, v] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        m = GnnClassifier(3, 2, hidden_dims=(6, 4), conv="sage", seed=9)
        g = _toy_graph()
        path = tmp_path / "model.npz"
        m.save(path)
        loaded = GnnClassifier.load(path)
        assert np.allclose(loaded.predict_proba(g), m.predict_proba(g))
        assert loaded.conv == "sage"

    def test_set_parameters_validates(self):
        m = GnnClassifier(3, 2)
        with pytest.raises(ModelError):
            m.set_parameters([np.zeros(1)])


def bond_task_db(n_per_class=12, seed=0):
    """Same skeletons and node types; class 1 differs ONLY by one double
    bond (edge type 1). A vanilla GCN is blind to this by construction."""
    rng = ensure_rng(seed)
    graphs, labels = [], []
    for i in range(2 * n_per_class):
        label = i % 2
        size = int(rng.integers(5, 8))
        g = Graph([0] * size)
        for j in range(size - 1):
            g.add_edge(j, j + 1, 0)
        if label == 1:
            # upgrade one interior bond to a double bond
            j = int(rng.integers(0, size - 1))
            key = (j, j + 1)
            g.edge_types[key] = 1
        graphs.append(g)
        labels.append(label)
    return GraphDatabase(graphs, labels=labels, name="bond-task")


class TestEdgeTypeLearning:
    def test_vanilla_gcn_cannot(self):
        """The type-blind GCN stays at chance when only an edge type
        carries the class."""
        db = bond_task_db(12, seed=1)
        model = GnnClassifier(1, 2, hidden_dims=(16, 16), seed=0)
        trainer = Trainer(model, max_epochs=60, patience=60, seed=0)
        trainer.fit(db, encoder=LabelEncoder(db.labels))
        acc = trainer.evaluate(db, LabelEncoder(db.labels))
        assert acc <= 0.7  # chance-ish: identical topology and node types


# ----------------------------------------------------------------------
# stacked whole-database forwards (predict_proba_db / predict_db)
# ----------------------------------------------------------------------
def test_symmetrized_adjacency_memoized_and_invalidated():
    g = Graph([0, 1])
    g.add_edge(0, 1, 0)
    A1 = symmetrized_adjacency(g)
    assert symmetrized_adjacency(g) is A1
    assert not A1.flags.writeable
    g2 = Graph([0, 1, 2])
    g2.add_edge(0, 1, 0)
    before = symmetrized_adjacency(g2)
    model = GnnClassifier(in_dim=3, n_classes=2, hidden_dims=(4,), seed=0)
    stale = model.predict_proba_db([g2])[0]
    g2.add_edge(1, 2, 1)  # mutate after the memo and a stacked forward
    after = symmetrized_adjacency(g2)
    assert after is not before
    assert after[1, 2] == 1.0
    # every reader sees the mutation: the matcher's host context and
    # the stacked forward
    assert np.array_equal(MatchContext(g2).degrees, [1, 2, 1])
    probas = model.predict_proba_db([g2])
    assert np.array_equal(probas[0], model.predict_proba(g2))
    assert not np.array_equal(probas[0], stale)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_zoo_predict_db_bit_identical(dataset):
    info = dataset_info(dataset)
    db = load_dataset(dataset, scale="test", seed=0)
    model = GnnClassifier(
        info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0
    )
    probas = model.predict_proba_db(db.graphs)
    preds = model.predict_db(db.graphs)
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
                g.add_edge(u, v, int(rng.integers(0, 2)))
        graphs.append(g)
    model = GnnClassifier(
        in_dim=3, n_classes=3, hidden_dims=(6, 6), conv=conv, readout=readout, seed=5
    )
    probas = model.predict_proba_db(graphs)
    for i, g in enumerate(graphs):
        assert np.array_equal(probas[i], model.predict_proba(g)), i


def test_database_predictions_follow_extend():
    """A streamed chunk appended after a stacked pass is predicted like
    every other graph: the whole-database pass and a pass restricted to
    the new indices both equal per-graph ``predict``."""
    from repro.core.approx import database_predictions

    db = load_dataset("mutagenicity", scale="test", seed=0)
    info = dataset_info("mutagenicity")
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    half = len(db) // 2
    grown = GraphDatabase(db.graphs[:half], db.labels[:half], name="grown")
    assert database_predictions(model, grown) == [model.predict(g) for g in grown]
    added = grown.extend(db.graphs[half:], labels=db.labels[half:])
    assert database_predictions(model, grown) == [model.predict(g) for g in db]
    assert database_predictions(model, grown, indices=added) == [
        model.predict(db[i]) for i in added
    ]


def test_database_pickle_round_trip_after_stacked_forward():
    """A database pickled after a stacked forward filled its graphs'
    adjacency memos ships without them and predicts bit-identically."""
    import pickle

    db = load_dataset("mutagenicity", scale="test", seed=0)
    info = dataset_info("mutagenicity")
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    probas = model.predict_proba_db(db.graphs)
    copy = pickle.loads(pickle.dumps(db))
    assert copy.name == db.name and copy.labels == db.labels
    assert [g.content_key() for g in copy] == [g.content_key() for g in db]
    assert all(g._sym_adj is None for g in copy)
    assert np.array_equal(model.predict_proba_db(copy.graphs), probas)
