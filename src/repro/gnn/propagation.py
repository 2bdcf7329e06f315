"""Graph propagation operators for message passing (Eq. 1).

The GCN propagation matrix is ``P = D^{-1/2} (A + I) D^{-1/2}`` with
``D`` the degree matrix of ``A + I``. Directed graphs are symmetrized
before normalization (standard practice for spectral-style GNNs; the
direction information stays available to datasets via edge types).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.exceptions import ValidationError


def normalized_adjacency(graph: Graph) -> np.ndarray:
    """GCN propagation matrix ``D^{-1/2} (A + I) D^{-1/2}``.

    Isolated nodes keep their self-loop (degree 1), so the matrix is
    well-defined for any graph, including the disconnected remainders
    ``G \\ G_s`` produced by counterfactual checks.
    """
    A = graph.adjacency_matrix()
    if graph.directed:
        A = np.maximum(A, A.T)
    A_hat = A + np.eye(graph.n_nodes)
    deg = A_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return A_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def normalize_dense(A: np.ndarray) -> np.ndarray:
    """Same normalization applied to an arbitrary dense adjacency.

    Used by explainers that perturb adjacency weights (e.g. soft edge
    masks) and need to re-normalize: entries must be non-negative.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"adjacency must be square, got {A.shape}")
    A_hat = A + np.eye(A.shape[0])
    deg = A_hat.sum(axis=1)
    deg = np.where(deg <= 0, 1.0, deg)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return A_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def propagation_power(P: np.ndarray, k: int) -> np.ndarray:
    """``P^k`` — the k-step random-walk/propagation matrix.

    This equals the *expected* input-output Jacobian magnitude of a
    k-layer ReLU GCN up to a constant factor (Xu et al., ICML 2018),
    which cancels under the paper's row normalization (Eq. 4).
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    return np.linalg.matrix_power(P, k)


__all__ = [
    "normalized_adjacency",
    "normalize_dense",
    "propagation_power",
]
