"""Tests for the large-graph influence backends (sparse + Monte Carlo)."""

import numpy as np
import pytest

from repro.gnn.jacobian import expected_influence
from repro.gnn.model import GnnClassifier
from repro.gnn.propagation import normalized_adjacency, propagation_power
from repro.gnn.sparse import (
    auto_expected_influence,
    montecarlo_expected_influence,
    sparse_expected_influence,
    sparse_normalized_adjacency,
)
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.graph import Graph, graph_from_edges


class TestSparseNormalizedAdjacency:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense(self, seed):
        g = erdos_renyi(20, 0.2, seed=seed)
        dense = normalized_adjacency(g)
        sparse = sparse_normalized_adjacency(g).todense()
        assert np.allclose(dense, sparse)

    def test_directed_symmetrized(self):
        g = graph_from_edges([0, 0, 0], [(0, 1), (1, 2)], directed=True)
        dense = normalized_adjacency(g)
        sparse = sparse_normalized_adjacency(g).todense()
        assert np.allclose(dense, sparse)

    def test_typed_reciprocal_edges_collapse(self):
        """Edge pairs come from the typed edge map: a directed pair
        ``u -> v``, ``v -> u`` of different types is one undirected
        neighbor pair, like in the dense operator."""
        g = Graph([0, 1, 2, 0], directed=True)
        for (u, v), t in zip([(0, 1), (1, 0), (1, 2), (3, 1)], [0, 1, 2, 1]):
            g.add_edge(u, v, t)
        dense = normalized_adjacency(g)
        sparse = sparse_normalized_adjacency(g).todense()
        assert np.array_equal(sparse != 0, dense != 0)
        assert np.allclose(dense, sparse)

    def test_isolated_nodes(self):
        g = graph_from_edges([0, 0, 0], [])
        assert np.allclose(
            sparse_normalized_adjacency(g).todense(), np.eye(3)
        )


class TestSparseExpectedInfluence:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_dense_power(self, k):
        g = barabasi_albert(30, 2, seed=1)
        dense = propagation_power(normalized_adjacency(g), k)
        sparse = sparse_expected_influence(g, k)
        assert np.allclose(dense, sparse, atol=1e-10)

    def test_empty_graph(self):
        assert sparse_expected_influence(graph_from_edges([], []), 3).shape == (0, 0)

    def test_auto_dispatch_equivalence(self):
        g = barabasi_albert(40, 2, seed=2)
        dense = auto_expected_influence(g, 2, threshold=1000)
        sparse = auto_expected_influence(g, 2, threshold=10)
        assert np.allclose(dense, sparse)

    def test_model_level_dispatch(self):
        """expected_influence picks the sparse path for big GCN graphs
        and produces identical numbers."""
        g = barabasi_albert(60, 1, seed=3)
        model = GnnClassifier(1, 2, hidden_dims=(4, 4), seed=0)
        from repro.gnn import sparse as sparse_mod

        dense_result = expected_influence(model, g)
        old = sparse_mod.SPARSE_THRESHOLD
        try:
            sparse_mod.SPARSE_THRESHOLD = 10
            # re-import path uses module attr at call time
            import repro.gnn.jacobian as jac

            sparse_result = jac.expected_influence(model, g)
        finally:
            sparse_mod.SPARSE_THRESHOLD = old
        assert np.allclose(dense_result, sparse_result)


class TestMonteCarloInfluence:
    def test_rows_are_distributions(self):
        g = barabasi_albert(15, 2, seed=0)
        est = montecarlo_expected_influence(g, k=2, walks_per_node=32, seed=0)
        assert np.allclose(est.sum(axis=1), 1.0)
        assert np.all(est >= 0)

    def test_converges_to_walk_distribution(self):
        """With many walks, the estimate approaches ``(rownorm Q)^k``."""
        g = barabasi_albert(12, 1, seed=1)
        Q = normalized_adjacency(g)
        P = Q / Q.sum(axis=1, keepdims=True)
        exact = np.linalg.matrix_power(P, 2)
        est = montecarlo_expected_influence(g, k=2, walks_per_node=3000, seed=0)
        assert np.abs(est - exact).max() < 0.06
        # same support as the influence matrix it approximates
        assert np.all(est[exact == 0] == 0)

    def test_zero_steps_identity(self):
        g = barabasi_albert(8, 1, seed=2)
        est = montecarlo_expected_influence(g, k=0, walks_per_node=8, seed=0)
        assert np.allclose(est, np.eye(8))

    def test_deterministic_given_seed(self):
        g = barabasi_albert(10, 1, seed=3)
        a = montecarlo_expected_influence(g, k=2, walks_per_node=16, seed=7)
        b = montecarlo_expected_influence(g, k=2, walks_per_node=16, seed=7)
        assert np.array_equal(a, b)
