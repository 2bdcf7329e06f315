"""Powers of the aggregation matrix: Eq. 3's expected influence ``Q^k``.

``Q`` is the matrix :func:`repro.gnn.batch.aggregation_matrices`
builds, the one normalization of every forward. The expected Jacobian
of a k-layer ReLU GNN is proportional to ``Q^k`` (Xu et al., ICML
2018), and the constant cancels under the paper's row normalization
(Eq. 4). :func:`repro.core.explainability.oracle_relations` picks the
program: dense :func:`propagation_power`, or for GCN graphs past
:data:`SPARSE_THRESHOLD` nodes :func:`sparse_propagation_power`, the
sparse products of §6.2's big-graph optimization.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

#: GCN graphs with more nodes than this take ``Q^k`` by sparse products
SPARSE_THRESHOLD = 512


def propagation_power(P: np.ndarray, k: int) -> np.ndarray:
    """``P^k`` — the k-step random-walk/propagation matrix."""
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    return np.linalg.matrix_power(P, k)


def sparse_propagation_power(Q: np.ndarray, k: int) -> np.ndarray:
    """``Q^k`` by CSR products over a CSR copy of ``Q``; returned dense.

    The result is dense by nature (k-hop balls overlap), but every
    intermediate product stays sparse, which is the §6.2 trick. scipy
    is imported here, so only a graph that takes this branch loads it.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    from scipy import sparse

    step = sparse.csr_matrix(Q)
    result = sparse.identity(len(Q), format="csr")
    for _ in range(k):
        result = (result @ step).tocsr()
    return result.toarray()


__all__ = ["SPARSE_THRESHOLD", "propagation_power", "sparse_propagation_power"]
