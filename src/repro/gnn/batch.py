"""Batched (stacked) GNN inference over many node subsets of one graph.

GVEX's greedy explain loop evaluates ``M`` on a frontier of candidate
subsets every round — ``selected ∪ {v}`` for each candidate ``v``, plus
the matching remainders for counterfactual probes. The serial path
builds an induced :class:`~repro.graphs.graph.Graph` per candidate
(Python dict/set churn over every edge) and runs one dense forward per
subset; that is the dominant cost of the explain phase (§6.2's
efficiency discussion). This module instead gathers all same-size
subsets into ``(B, k, ·)`` tensors with one fancy-indexing pass over
the *parent* graph's adjacency/feature matrices and runs the
message-passing layers as stacked matmuls.

Bitwise parity with the serial path is load-bearing: the greedy makes
near-tie comparisons on the returned probabilities, and the batched
verifier must make the serial reference's decisions. Two facts make exact parity
possible:

* numpy dispatches a stacked ``(B, k, k) @ (B, k, d)`` matmul to the
  same per-slice BLAS GEMM the 2-D serial path uses, so every layer
  output is bit-identical to the serial forward on the induced
  subgraph;
* the one op whose batched form maps to a *different* BLAS kernel is
  the graph-level classification head (vector @ matrix is GEMV, while
  ``(B, d) @ (d, C)`` is GEMM, and the two may round differently), so
  :func:`rowwise_head` runs it row by row, exactly as the serial path
  does.

``tests/test_verifier_parity.py`` asserts the bitwise equality across
conv types and readouts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.graphs.graph import Graph


def normalize_subsets(
    node_subsets: Iterable[Iterable[int]], n_nodes: int
) -> List[Tuple[int, ...]]:
    """Sorted, deduplicated, validated subsets (the serial key order)."""
    out: List[Tuple[int, ...]] = []
    for subset in node_subsets:
        nodes = tuple(sorted({int(v) for v in subset}))
        if nodes and not (0 <= nodes[0] and nodes[-1] < n_nodes):
            raise ModelError(
                f"subset {nodes} references nodes outside 0..{n_nodes - 1}"
            )
        out.append(nodes)
    return out


def extension_index_matrix(
    base: Iterable[int], candidates: Iterable[int]
) -> np.ndarray:
    """Sorted ``(B, k+1)`` index rows for ``base ∪ {v}``, one per candidate.

    The greedy loops re-verify extension frontiers round after round —
    every row shares the same sorted ``base``, differing in one spliced
    column. This derives the whole matrix from that structure with one
    vectorized ``searchsorted`` instead of per-subset Python
    ``sorted(set(...))`` churn (the normalization pass that dominated
    frontier setup); rows are bit-identical to
    :func:`normalize_subsets` output, so downstream gathers match the
    serial path exactly. Splicing into the *previous* round's gathered
    ``(B, k, ·)`` tensors instead was evaluated and rejected: gathering
    from the parent's cached ``X``/``A`` is the same memcpy volume as
    copying the old tensors, so rebuilding from the index matrix is
    never slower.

    ``base`` must not contain any candidate (callers filter first).
    """
    base_arr = np.asarray(sorted(int(v) for v in base), dtype=np.intp)
    cand = np.asarray([int(v) for v in candidates], dtype=np.intp)
    k, n_cand = base_arr.size, cand.size
    if n_cand == 0:
        return np.empty((0, k + 1), dtype=np.intp)
    pos = np.searchsorted(base_arr, cand)
    if k == 0:
        return cand[:, None].copy()
    cols = np.arange(k + 1)[None, :]
    src = cols - (cols > pos[:, None])
    idx = base_arr[np.clip(src, 0, k - 1)]
    idx[np.arange(n_cand), pos] = cand
    return idx


def group_by_size(subsets: Sequence[Tuple[int, ...]]) -> Dict[int, List[int]]:
    """Indices of ``subsets`` grouped by subset size (one batch each)."""
    groups: Dict[int, List[int]] = {}
    for i, subset in enumerate(subsets):
        groups.setdefault(len(subset), []).append(i)
    return groups


def symmetrized_adjacency(graph: Graph) -> np.ndarray:
    """Dense adjacency, symmetrized exactly as the serial forward does.

    Slicing the parent's symmetrized adjacency equals symmetrizing the
    induced subgraph's adjacency (elementwise max commutes with taking
    a principal submatrix), so per-subset aggregation matrices built
    from these slices are bit-identical to the serial ones.

    Memoized on the graph (``Graph._sym_adj``, invalidated by
    ``add_edge`` like the content key) so repeated verifier launches
    against the same host stop rebuilding the n×n array. The memo is
    marked read-only — every consumer gathers from it with fancy
    indexing, which copies.
    """
    A = graph._sym_adj
    if A is None:
        A = graph.adjacency_matrix()
        if graph.directed:
            A = np.maximum(A, A.T)
        A.setflags(write=False)
        graph._sym_adj = A
    return A


def scattered_adjacency_batch(slices) -> np.ndarray:
    """``(B, n, n)`` symmetrized adjacency stack from columnar slices.

    Each element of ``slices`` is a same-sized
    :class:`~repro.graphs.columnar.GraphSlice`; the union-direction
    (``"all"``) CSR of a slice lists exactly the nonzeros of
    ``max(A, A.T)``, so one fancy-index assignment over the
    concatenated ``(batch, row, col)`` triples reproduces
    :func:`symmetrized_adjacency` of every member bit-for-bit (0/1
    entries are exact in float64) without materializing per-graph
    dense matrices first.
    """
    B = len(slices)
    if B == 0:
        return np.empty((0, 0, 0), dtype=np.float64)
    n = slices[0].n
    A_b = np.zeros((B, n, n), dtype=np.float64)
    if n == 0:
        return A_b
    rows = [sl.row_ids("all") for sl in slices]
    cols = [sl.indices("all") for sl in slices]
    batch = np.repeat(
        np.arange(B, dtype=np.intp), [r.size for r in rows]
    )
    A_b[batch, np.concatenate(rows), np.concatenate(cols)] = 1.0
    return A_b


def gather_subset_batch(
    A_sym: np.ndarray,
    X_full: np.ndarray,
    subsets: Sequence[Tuple[int, ...]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(X_b, A_b)`` tensors for a group of same-size subsets.

    ``X_b`` is ``(B, k, d)`` — each subset's feature rows; ``A_b`` is
    ``(B, k, k)`` — each subset's induced (symmetrized) adjacency.
    """
    idx = np.asarray(subsets, dtype=np.intp)
    if idx.ndim != 2:
        raise ModelError("all subsets in one batch must have the same size")
    return X_full[idx], A_sym[idx[:, :, None], idx[:, None, :]]


def batched_aggregation(conv: str, gin_eps: float, A_b: np.ndarray) -> np.ndarray:
    """Per-subset aggregation matrices ``Q_b`` for one stacked batch.

    Mirrors :meth:`GnnClassifier.aggregation_matrix` (and
    ``normalized_adjacency`` for GCN) operation-for-operation so each
    ``Q_b[i]`` is bit-identical to the serial matrix of the induced
    subgraph.
    """
    k = A_b.shape[1]
    eye = np.eye(k)
    if conv == "gcn":
        A_hat = A_b + eye
        deg = A_hat.sum(axis=2)
        inv_sqrt = 1.0 / np.sqrt(deg)
        return A_hat * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]
    if conv == "gin":
        return A_b + (1.0 + gin_eps) * eye
    # sage: row-normalized neighbor mean (self handled by the layer)
    deg = A_b.sum(axis=2)
    deg = np.where(deg <= 0, 1.0, deg)
    return A_b / deg[:, :, None]


def stacked_layers(
    X_b: np.ndarray,
    Q_b: np.ndarray,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act,
    sage_self_weights: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Run the message-passing layers on a stacked batch; returns ``H_k``."""
    H = X_b
    for i, (W, b) in enumerate(zip(weights, biases)):
        Z = Q_b @ (H @ W) + b
        if sage_self_weights is not None:
            Z = Z + H @ sage_self_weights[i]
        H = act(Z)
    return H


def stacked_readout(H: np.ndarray, readout: str) -> np.ndarray:
    """Graph-level pooling over the node axis of a ``(B, k, d)`` batch."""
    if readout == "max":
        return H.max(axis=1)
    if readout == "mean":
        return H.mean(axis=1)
    return H.sum(axis=1)


def batched_subset_probas(
    graph: Graph,
    node_subsets: Iterable[Iterable[int]],
    n_classes: int,
    features_fn,
    forward_group,
    cache: Optional[dict] = None,
) -> np.ndarray:
    """Shared driver for subset-batched inference.

    Normalizes and validates the subsets, groups them by size, gathers
    each group into stacked tensors, and delegates the model-specific
    forward to ``forward_group(X_b, A_b) -> (B, n_classes)``. Empty
    subsets get the uniform ``M(∅)`` prior without inference.

    ``features_fn()`` supplies the parent graph's validated feature
    matrix. Passing the same ``cache`` dict across calls reuses the
    dense feature/adjacency gather sources — they are immutable per
    graph, and rebuilding the O(n²) adjacency every prefetch would eat
    the batching win on large graphs.
    """
    subsets = normalize_subsets(node_subsets, graph.n_nodes)
    out = np.empty((len(subsets), n_classes), dtype=np.float64)
    if not subsets:
        return out
    X_full: Optional[np.ndarray] = None
    A_sym: Optional[np.ndarray] = None
    for size, rows in sorted(group_by_size(subsets).items()):
        if size == 0:
            out[rows] = 1.0 / n_classes
            continue
        if X_full is None:
            if cache is not None and "X" in cache:
                X_full, A_sym = cache["X"], cache["A"]
            else:
                X_full = features_fn()
                A_sym = symmetrized_adjacency(graph)
                if cache is not None:
                    cache["X"], cache["A"] = X_full, A_sym
        assert A_sym is not None
        X_b, A_b = gather_subset_batch(A_sym, X_full, [subsets[i] for i in rows])
        out[rows] = forward_group(X_b, A_b)
    return out


def presorted_rows_probas(
    graph: Graph,
    idx: np.ndarray,
    n_classes: int,
    features_fn,
    forward_group,
    cache: Optional[dict] = None,
) -> np.ndarray:
    """:func:`batched_subset_probas` for a pre-sorted uniform-size frontier.

    ``idx`` is a ``(B, k)`` matrix of strictly increasing node rows
    (e.g. from :func:`extension_index_matrix`). Skips the per-subset
    normalization pass — the frontier-reuse hot path — while producing
    the exact tensors :func:`gather_subset_batch` would: the gathers
    are the same fancy-indexing expressions, so results stay
    bit-identical to the one-subset-at-a-time schedule.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 2:
        raise ModelError(f"index matrix must be 2-D, got shape {idx.shape}")
    n_rows, k = idx.shape
    if k == 0:
        return np.full((n_rows, n_classes), 1.0 / n_classes)
    if n_rows == 0:
        return np.empty((0, n_classes), dtype=np.float64)
    if idx.min() < 0 or idx.max() >= graph.n_nodes:
        raise ModelError(
            f"index matrix references nodes outside 0..{graph.n_nodes - 1}"
        )
    if k > 1 and not (np.diff(idx, axis=1) > 0).all():
        raise ModelError("index matrix rows must be strictly increasing")
    if cache is not None and "X" in cache:
        X_full, A_sym = cache["X"], cache["A"]
    else:
        X_full = features_fn()
        A_sym = symmetrized_adjacency(graph)
        if cache is not None:
            cache["X"], cache["A"] = X_full, A_sym
    X_b = X_full[idx]
    A_b = A_sym[idx[:, :, None], idx[:, None, :]]
    return forward_group(X_b, A_b)


def rowwise_head(
    pooled: np.ndarray, head_weight: np.ndarray, head_bias: np.ndarray
) -> np.ndarray:
    """Classification head applied one row at a time.

    The serial path computes ``pooled @ W + b`` with a 1-D ``pooled``
    (a GEMV); batching it as ``(B, d) @ (d, C)`` selects a GEMM kernel
    whose accumulation order may differ in the last ulp. Looping keeps
    the head bit-identical; ``B`` is frontier-sized, so the loop is
    negligible next to the layer matmuls.
    """
    logits = np.empty((pooled.shape[0], head_weight.shape[1]), dtype=np.float64)
    for i in range(pooled.shape[0]):
        logits[i] = pooled[i] @ head_weight + head_bias
    return logits


__all__ = [
    "normalize_subsets",
    "group_by_size",
    "symmetrized_adjacency",
    "scattered_adjacency_batch",
    "extension_index_matrix",
    "gather_subset_batch",
    "batched_aggregation",
    "batched_subset_probas",
    "presorted_rows_probas",
    "stacked_layers",
    "stacked_readout",
    "rowwise_head",
]
