"""Neighborhood-diversity scores ``D(V_s)`` (Eq. 6).

For each node ``v``, the ball ``r(v, d)`` collects nodes whose
final-layer GNN embeddings are within distance ``r`` of ``v``'s.
``D(V_s)`` is the size of the union of balls around every node
influenced by ``V_s`` — again monotone submodular.

The distance is the normalized Euclidean distance: embeddings are
L2-normalized first, so ``d`` ranges in [0, 2] and the radius threshold
``r`` is scale-free across models and datasets. The balls ``R`` are
built with the influence relation by
:func:`repro.core.explainability.oracle_relations`.
"""

from __future__ import annotations

import numpy as np


def embedding_distances(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise normalized Euclidean distances between embedding rows."""
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    safe = np.where(norms <= 1e-12, 1.0, norms)
    unit = embeddings / safe
    sq = (unit**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (unit @ unit.T)
    return np.sqrt(np.maximum(d2, 0.0))


def diversity_score(R: np.ndarray, influenced_mask: np.ndarray) -> int:
    """``D(V_s)`` — union size of balls around influenced nodes."""
    if not influenced_mask.any():
        return 0
    return int(R[influenced_mask].any(axis=0).sum())


__all__ = ["embedding_distances", "diversity_score"]
