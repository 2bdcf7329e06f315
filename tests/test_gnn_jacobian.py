"""Tests for feature-influence Jacobians (Eq. 3-4)."""

import numpy as np
import pytest

from repro.config import GvexConfig
from repro.core.explainability import ExplainabilityOracle
from repro.exceptions import ConfigurationError, ModelError
from repro.gnn.jacobian import exact_influence, normalized_influence
from repro.gnn.model import GnnClassifier
from repro.gnn.propagation import propagation_power
from repro.graphs.graph import graph_from_edges


def _path(n=6, feat_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return graph_from_edges(
        [0] * n,
        [(i, i + 1) for i in range(n - 1)],
        features=rng.normal(size=(n, feat_dim)),
    )


def _expected(m, g):
    """Expected-mode ``I1``: ``Q^k`` of the model's aggregation matrix."""
    return propagation_power(m.aggregation_matrix(g), m.n_layers)


def _exact(m, g):
    return exact_influence(m, m.forward_graph(g))


class TestExpectedInfluence:
    def test_shape_and_nonnegative(self):
        m = GnnClassifier(3, 2, hidden_dims=(4, 4), seed=0)
        I1 = _expected(m, _path())
        assert I1.shape == (6, 6)
        assert np.all(I1 >= 0)

    def test_beyond_k_hops_zero(self):
        # a 2-layer GCN cannot propagate influence farther than 2 hops
        m = GnnClassifier(3, 2, hidden_dims=(4, 4), seed=0)
        I1 = _expected(m, _path(8))
        assert I1[0, 3] == 0.0
        assert I1[0, 7] == 0.0
        assert I1[0, 2] > 0.0

    def test_empty_graph(self):
        m = GnnClassifier(3, 2)
        oracle = ExplainabilityOracle(m, graph_from_edges([], []), GvexConfig())
        assert oracle.B.shape == (0, 0)


class TestExactInfluence:
    def test_zero_for_disconnected(self):
        m = GnnClassifier(3, 2, hidden_dims=(4,), seed=1)
        g = graph_from_edges(
            [0, 0, 0, 0],
            [(0, 1), (2, 3)],
            features=np.random.default_rng(0).normal(size=(4, 3)),
        )
        I1 = _exact(m, g)
        assert I1[0, 2] == 0.0 and I1[0, 3] == 0.0
        assert I1[1, 0] > 0.0

    def test_matches_expected_support(self):
        # non-zero structure of exact influence is a subset of P^k support
        m = GnnClassifier(3, 2, hidden_dims=(6, 6), seed=2)
        g = _path(7)
        exact = _exact(m, g)
        expected = _expected(m, g)
        assert np.all(exact[expected == 0] == 0)

    def test_identity_activation_matches_linear_theory(self):
        # with identity activation and 1 layer, J[v,u] = Q[v,u] * ||W||_1stack
        m = GnnClassifier(2, 2, hidden_dims=(3,), activation="identity", seed=3)
        g = _path(4, feat_dim=2)
        Q = m.aggregation_matrix(g)
        exact = _exact(m, g)
        w_l1 = np.abs(m.weights[0]).sum()
        assert np.allclose(exact, np.abs(Q) * w_l1)

    def test_budget_guard(self):
        m = GnnClassifier(64, 2, hidden_dims=(256, 256), seed=0)
        big = graph_from_edges([0] * 2000, [(i, i + 1) for i in range(1999)])
        with pytest.raises(ModelError):
            _exact(m, big)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            GvexConfig(jacobian="bogus")


class TestNormalizedInfluence:
    def test_columns_sum_to_one(self):
        # I2[u, v] sums to 1 over u for every v with incoming influence
        m = GnnClassifier(3, 2, hidden_dims=(4, 4), seed=0)
        I1 = _expected(m, _path())
        I2 = normalized_influence(I1)
        assert np.allclose(I2.sum(axis=0), 1.0)

    def test_zero_row_safe(self):
        I1 = np.array([[0.0, 0.0], [1.0, 1.0]])
        I2 = normalized_influence(I1)
        assert np.allclose(I2[:, 0], 0.0)
        assert np.allclose(I2[:, 1], 0.5)

    def test_orientation(self):
        # I1[v, u] (influence of u on v) becomes I2[u, v]
        I1 = np.array([[0.0, 2.0], [0.0, 1.0]])
        I2 = normalized_influence(I1)
        assert I2[1, 0] == pytest.approx(1.0)  # u=1 fully influences v=0
        assert I2[0, 0] == pytest.approx(0.0)
