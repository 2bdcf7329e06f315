"""Large-graph influence backends (§6.2's SYN/PRO optimizations).

For the paper's largest workloads (0.4M-node SYNTHETIC, millions-node
PRODUCTS) the authors "use sparse matrix multiplication and random walk
technique to optimize the computation on large graphs". This module
provides both:

* :func:`sparse_expected_influence` — the expected-Jacobian influence
  ``Q^k`` computed with scipy CSR matmuls. Exact, memory-light for
  sparse graphs, and substantially faster than dense ``matrix_power``
  once ``n`` is in the thousands.
* :func:`montecarlo_expected_influence` — unbiased estimation of
  ``Q^k`` rows by sampling k-step random walks (Avrachenkov et al.
  2007, the PageRank Monte-Carlo technique the paper cites). Error
  decays as ``O(1/sqrt(walks))``; used when even sparse powers are too
  large to materialize.

``influence_matrix``'s ``auto`` dispatch picks dense vs sparse by node
count; Monte Carlo is opt-in (it changes numbers within sampling noise).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng

#: switch from dense to sparse expected influence above this node count
SPARSE_THRESHOLD = 512


def sparse_normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """CSR version of ``D^{-1/2} (A + I) D^{-1/2}`` (symmetrized)."""
    n = graph.n_nodes
    # (u, v) rows in edge order; each edge enters in both orientations
    pairs = np.array(list(graph.edge_types), dtype=np.int64).reshape(-1, 2)
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([pairs.ravel(), diag])
    cols = np.concatenate([pairs[:, ::-1].ravel(), diag])
    data = np.ones(rows.size)
    A_hat = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    # duplicate symmetric entries collapse via >0 thresholding
    A_hat.data = np.minimum(A_hat.data, 1.0)
    deg = np.asarray(A_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(np.where(deg <= 0, 1.0, deg))
    D = sp.diags(inv_sqrt)
    return (D @ A_hat @ D).tocsr()


def sparse_expected_influence(graph: Graph, k: int) -> np.ndarray:
    """``Q^k`` via sparse multiplication; returned dense (n, n).

    The result is dense by nature (k-hop balls overlap), but every
    intermediate product stays sparse, which is the §6.2 trick.
    """
    if graph.n_nodes == 0:
        return np.zeros((0, 0))
    Q = sparse_normalized_adjacency(graph)
    result: sp.csr_matrix = sp.identity(graph.n_nodes, format="csr")
    for _ in range(max(k, 0)):
        result = (result @ Q).tocsr()
    return np.asarray(result.todense())


def montecarlo_expected_influence(
    graph: Graph,
    k: int,
    walks_per_node: int = 64,
    seed: RngLike = 0,
) -> np.ndarray:
    """Monte-Carlo estimate of the k-step walk distribution per node.

    Simulates ``walks_per_node`` random walks of length ``k`` from every
    node over the row-normalized propagation kernel and returns the
    empirical endpoint distribution — an unbiased estimate of
    ``(rownorm Q)^k``, the classic random-walk influence distribution
    (per-step normalization does not commute with the matrix power, so
    this is the standard walk reading rather than ``rownorm(Q^k)``;
    both are valid influence normalizations and agree on support).
    Error decays as ``O(1/sqrt(walks_per_node))``.
    """
    n = graph.n_nodes
    if n == 0:
        return np.zeros((0, 0))
    rng = ensure_rng(seed)
    Q = sparse_normalized_adjacency(graph).tolil()
    # build per-node transition tables (row-normalized kernel)
    neighbors = []
    probs = []
    for v in range(n):
        cols = np.asarray(Q.rows[v], dtype=np.int64)
        weights = np.asarray(Q.data[v], dtype=np.float64)
        total = weights.sum()
        neighbors.append(cols)
        probs.append(weights / total if total > 0 else weights)

    estimate = np.zeros((n, n))
    for start in range(n):
        endpoints = np.full(walks_per_node, start, dtype=np.int64)
        for _ in range(max(k, 0)):
            for w in range(walks_per_node):
                v = endpoints[w]
                endpoints[w] = rng.choice(neighbors[v], p=probs[v])
        idx, counts = np.unique(endpoints, return_counts=True)
        estimate[start, idx] = counts / walks_per_node
    return estimate


def auto_expected_influence(
    graph: Graph, k: int, threshold: int = SPARSE_THRESHOLD
) -> np.ndarray:
    """Dense for small graphs, sparse matmuls beyond ``threshold``."""
    if graph.n_nodes <= threshold:
        from repro.gnn.propagation import normalized_adjacency, propagation_power

        return propagation_power(normalized_adjacency(graph), k)
    return sparse_expected_influence(graph, k)


__all__ = [
    "sparse_normalized_adjacency",
    "sparse_expected_influence",
    "montecarlo_expected_influence",
    "auto_expected_influence",
    "SPARSE_THRESHOLD",
]
