"""Tests for §6.2's big-graph influence program: ``Q^k`` by sparse products.

``repro.core.explainability.oracle_relations`` takes
``sparse_propagation_power`` over its own ``Q`` for GCN graphs past
``SPARSE_THRESHOLD`` nodes, and only that branch imports scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import GvexConfig
from repro.core.explainability import oracle_relations
from repro.gnn import propagation
from repro.gnn.batch import aggregation_matrices, symmetrized_adjacency
from repro.gnn.model import GnnClassifier
from repro.gnn.propagation import propagation_power, sparse_propagation_power
from repro.graphs.generators import barabasi_albert
from repro.graphs.graph import Graph, graph_from_edges

REPO = Path(__file__).resolve().parents[1]


def _gcn_q(g):
    return aggregation_matrices("gcn", 0.0, symmetrized_adjacency(g))


def _typed_reciprocal():
    """A directed pair ``u -> v``, ``v -> u`` of different types is one
    undirected neighbor pair."""
    g = Graph([0, 1, 2, 0], directed=True)
    for (u, v), t in zip([(0, 1), (1, 0), (1, 2), (3, 1)], [0, 1, 2, 1]):
        g.add_edge(u, v, t)
    return g


class TestSparseExpectedInfluence:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_dense_power(self, k):
        Q = _gcn_q(barabasi_albert(30, 2, seed=1))
        assert np.allclose(
            sparse_propagation_power(Q, k), propagation_power(Q, k), atol=1e-10
        )

    @pytest.mark.parametrize(
        "graph",
        [
            graph_from_edges([0, 0, 0], [(0, 1), (1, 2)], directed=True),
            _typed_reciprocal(),
            graph_from_edges([0, 0, 0], []),
        ],
        ids=["directed", "typed-reciprocal", "isolated"],
    )
    def test_low_powers_are_exact(self, graph):
        """The CSR copy holds ``Q`` itself: ``Q^0`` is ``I`` and ``Q^1``
        is ``Q``, bit for bit."""
        Q = _gcn_q(graph)
        assert np.array_equal(sparse_propagation_power(Q, 0), np.eye(len(Q)))
        assert np.array_equal(sparse_propagation_power(Q, 1), Q)

    def test_empty_graph(self):
        assert sparse_propagation_power(np.zeros((0, 0)), 3).shape == (0, 0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            sparse_propagation_power(np.eye(2), -1)

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        real = propagation.sparse_propagation_power

        def spy(Q, k):
            calls.append((Q, k))
            return real(Q, k)

        monkeypatch.setattr(propagation, "sparse_propagation_power", spy)
        return calls

    def test_model_level_dispatch(self, monkeypatch):
        """Past the threshold a GCN oracle takes ``Q^k`` by sparse
        products over its own ``Q``, which agree with the dense power."""
        g = barabasi_albert(60, 1, seed=3)
        model = GnnClassifier(1, 2, hidden_dims=(4, 4), seed=0)
        config = GvexConfig()
        calls = self._spy(monkeypatch)
        _, dense_R = oracle_relations(model, g, config)
        assert not calls
        monkeypatch.setattr(propagation, "SPARSE_THRESHOLD", 10)
        _, sparse_R = oracle_relations(model, g, config)
        [(Q, k)] = calls
        assert k == model.n_layers
        assert np.array_equal(Q, _gcn_q(g))
        assert np.allclose(sparse_propagation_power(Q, k), propagation_power(Q, k))
        assert np.array_equal(sparse_R, dense_R)

    @pytest.mark.parametrize("conv", ["gin", "sage"])
    def test_other_convs_stay_dense(self, monkeypatch, conv):
        calls = self._spy(monkeypatch)
        monkeypatch.setattr(propagation, "SPARSE_THRESHOLD", 10)
        model = GnnClassifier(1, 2, hidden_dims=(4, 4), conv=conv, seed=0)
        oracle_relations(model, barabasi_albert(60, 1, seed=3), GvexConfig())
        assert not calls


_STARTUP = r"""
import sys

import repro.api, repro.cli
from repro.config import GvexConfig
from repro.core import ApproxGvex, ExplainabilityOracle, StreamGvex
from repro.datasets.registry import dataset_info, load_dataset
from repro.gnn import propagation
from repro.gnn.model import GnnClassifier


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


db = load_dataset("mutagenicity", scale="test", seed=0)
model = GnnClassifier(
    dataset_info("mutagenicity").n_features, 2, hidden_dims=(8, 8), seed=0
)
config = GvexConfig().with_bounds(0, 4)
assert len(ApproxGvex(model, config).explain(db)) > 0
assert len(StreamGvex(model, config).explain(db)) > 0
assert not scipy_modules(), scipy_modules()

calls = []
real = propagation.sparse_propagation_power
propagation.sparse_propagation_power = lambda Q, k: calls.append(len(Q)) or real(Q, k)
graph = max(db.graphs, key=lambda g: g.n_nodes)
propagation.SPARSE_THRESHOLD = graph.n_nodes - 1
ExplainabilityOracle(model, graph, config)
assert calls == [graph.n_nodes], calls
assert "scipy.sparse" in scipy_modules()
print("sparse branch ok")
"""


def test_startup_stays_scipy_free():
    """The CLI, the API and both algorithms load no scipy module; the
    sparse branch, once the threshold is below the graph, does."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "sparse branch ok" in proc.stdout
