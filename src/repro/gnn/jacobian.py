"""Feature-influence Jacobians (Eq. 3 of the paper).

``I1(v, u) = || E[∂X^k_v / ∂X^0_u] ||_1`` measures how sensitive node
``v``'s final-layer representation is to node ``u``'s input features.

Two modes (``GvexConfig.jacobian``):

* ``"exact"`` — propagates the true Jacobian tensor through the trained
  network using its actual ReLU masks and weights. O(n² · d_hidden ·
  d_in) memory, so it is intended for small graphs; a budget guard
  raises before allocating something pathological.
* ``"expected"`` — the expected Jacobian of a ReLU GCN is proportional
  to the k-step propagation matrix ``P^k`` (Xu et al., ICML 2018,
  Theorem 1). The proportionality constant cancels in the paper's row
  normalization (Eq. 4), so ``I1 := P^k`` is exact *in expectation* and
  costs O(k·n²). This is the default, matching the paper's
  random-walk-based reading of influence.
"""

from __future__ import annotations

import numpy as np

from repro.config import JACOBIAN_EXACT, JACOBIAN_EXPECTED
from repro.exceptions import ModelError
from repro.gnn.model import GnnClassifier
from repro.gnn.propagation import propagation_power
from repro.graphs.graph import Graph

#: refuse to allocate an exact-Jacobian tensor above this many floats
EXACT_BUDGET_FLOATS = 200_000_000


def influence_matrix(
    model: GnnClassifier,
    graph: Graph,
    mode: str = JACOBIAN_EXPECTED,
) -> np.ndarray:
    """The ``(n, n)`` matrix ``I1[v, u]`` of Eq. 3.

    Row ``v`` holds the influence *of every node u on v*.
    """
    if graph.n_nodes == 0:
        return np.zeros((0, 0))
    if mode == JACOBIAN_EXPECTED:
        return expected_influence(model, graph)
    if mode == JACOBIAN_EXACT:
        return exact_influence(model, graph)
    raise ModelError(f"unknown jacobian mode {mode!r}")


def expected_influence(model: GnnClassifier, graph: Graph) -> np.ndarray:
    """``I1 = Q^k`` — expected Jacobian magnitude up to a constant.

    For GCN aggregation on large graphs this dispatches to sparse
    matmuls (§6.2's big-graph optimization); other aggregation kinds
    (GIN/SAGE) use their model-specific dense matrix.
    """
    if sparse_influence(model, graph.n_nodes):
        from repro.gnn.sparse import sparse_expected_influence

        return sparse_expected_influence(graph, model.n_layers)
    Q = model.aggregation_matrix(graph)
    return propagation_power(Q, model.n_layers)


def sparse_influence(model: GnnClassifier, n_nodes: int) -> bool:
    """Whether :func:`expected_influence` takes the sparse big-graph path
    on an ``n_nodes`` graph: GCN aggregation past ``SPARSE_THRESHOLD``."""
    from repro.gnn.sparse import SPARSE_THRESHOLD

    return getattr(model, "conv", "gcn") == "gcn" and n_nodes > SPARSE_THRESHOLD


def exact_influence(model: GnnClassifier, graph: Graph) -> np.ndarray:
    """Exact per-pair Jacobian L1 norms through the trained network.

    Maintains the tensor ``T[v, a, u, b] = ∂H^l_v[a] / ∂X_u[b]`` layer
    by layer with the real ReLU masks from a forward pass.
    """
    n = graph.n_nodes
    d0 = model.in_dim
    d_max = max(model.hidden_dims)
    if n * n * d_max * d0 > EXACT_BUDGET_FLOATS:
        raise ModelError(
            f"exact Jacobian for n={n}, d={d_max}, d0={d0} exceeds the memory "
            "budget; use the 'expected' mode for graphs this large"
        )
    cache = model.forward_graph(graph)
    Q = cache.Q
    # T starts as identity: dX_v[a]/dX_u[b] = 1 iff v==u, a==b
    T = np.einsum("vu,ab->vaub", np.eye(n), np.eye(d0))
    for i in range(model.n_layers):
        W = model.weights[i]
        mask = model._act_grad(cache.pre_activations[i])  # (n, d_out)
        # aggregate: K[v, c, u, b] = sum_w Q[v, w] T[w, c, u, b]
        K = np.einsum("vw,wcub->vcub", Q, T)
        # mix channels: S[v, a, u, b] = sum_c K[v, c, u, b] W[c, a]
        S = np.einsum("ca,vcub->vaub", W, K)
        if model.conv == "sage":
            S = S + np.einsum("ca,vcub->vaub", model.sage_self_weights[i], T)
        T = mask[:, :, None, None] * S
    return np.abs(T).sum(axis=(1, 3))


def normalized_influence(I1: np.ndarray) -> np.ndarray:
    """Eq. 4: ``I2[u, v] = I1(v, u) / Σ_w I1(v, w)``.

    Note the transpose — ``I2`` is indexed ``[source u, target v]`` to
    match the paper's reading "influence score of a node u on v".
    Rows of ``I1`` with zero mass normalize to zero.
    """
    row_sums = I1.sum(axis=1, keepdims=True)
    safe = np.where(row_sums <= 0, 1.0, row_sums)
    return (I1 / safe).T


__all__ = [
    "influence_matrix",
    "expected_influence",
    "exact_influence",
    "sparse_influence",
    "normalized_influence",
    "EXACT_BUDGET_FLOATS",
]
