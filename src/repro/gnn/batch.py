"""Batched (stacked) GNN inference over many node subsets of one graph.

GVEX's greedy explain loop evaluates ``M`` on a frontier of candidate
subsets every round — ``selected ∪ {v}`` for each candidate ``v``, plus
the matching remainders for counterfactual probes. The serial path
builds an induced :class:`~repro.graphs.graph.Graph` per candidate
(Python dict/set churn over every edge) and runs one dense forward per
subset; that is the dominant cost of the explain phase (§6.2's
efficiency discussion). This module instead takes a batch of
same-size subsets as one ``(B, k)`` matrix of sorted node rows, gathers
it into ``(B, k, ·)`` tensors with one fancy-indexing pass over the
*parent* graph's adjacency/feature matrices and runs the
message-passing layers as stacked matmuls.

Bitwise parity with the serial path is load-bearing: the greedy makes
near-tie comparisons on the returned probabilities, and the batched
verifier must make the serial reference's decisions. Two facts make exact parity
possible:

* numpy dispatches a stacked ``(B, k, k) @ (B, k, d)`` matmul to the
  same per-slice BLAS GEMM the 2-D serial path uses, so every layer
  output is bit-identical to the serial forward on the induced
  subgraph;
* the one op whose 2-D batched form maps to a *different* BLAS kernel
  is the graph-level classification head (vector @ matrix is GEMV,
  while ``(B, d) @ (d, C)`` is GEMM, and the two may round
  differently), so :func:`rowwise_head` stacks ``B`` separate
  ``(1, d) @ (d, C)`` products, each the GEMV the serial path runs.

``tests/test_verifier_parity.py`` asserts the bitwise equality across
conv types and readouts.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError, ValidationError
from repro.graphs.graph import Graph


def extension_index_matrix(
    base: Iterable[int], candidates: Iterable[int]
) -> np.ndarray:
    """Sorted ``(B, k+1)`` index rows for ``base ∪ {v}``, one per candidate.

    The greedy loops re-verify extension frontiers round after round —
    every row shares the same sorted ``base``, differing in one spliced
    column. This derives the whole matrix from that structure with one
    vectorized ``searchsorted`` instead of per-subset Python
    ``sorted(set(...))`` churn; each row is its subset's nodes in
    increasing order, the serial path's key order, so downstream
    gathers match the serial path exactly. Splicing into the
    *previous* round's gathered
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


def aggregation_matrices(conv: str, gin_eps: float, A: np.ndarray) -> np.ndarray:
    """The aggregation matrix ``Q`` of each symmetrized 0/1 adjacency.

    ``A`` is one ``(n, n)`` adjacency or a stacked ``(B, n, n)`` batch.
    The one adjacency normalization in the package: both models'
    ``aggregation_matrix``, the stacked forwards and the oracle's
    ``Q`` (:func:`repro.core.explainability.oracle_relations`) all
    call it, so a slice of a batch is bit-identical to the serial
    matrix of the induced subgraph.
    """
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ValidationError(f"adjacency must be square, got {A.shape}")
    eye = np.eye(A.shape[-1])
    if conv == "gcn":
        A_hat = A + eye
        deg = A_hat.sum(axis=-1)
        inv_sqrt = 1.0 / np.sqrt(deg)
        return A_hat * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    if conv == "gin":
        return A + (1.0 + gin_eps) * eye
    # sage: row-normalized neighbor mean (self handled by the layer)
    deg = A.sum(axis=-1)
    deg = np.where(deg <= 0, 1.0, deg)
    return A / deg[..., :, None]


def stacked_layers(
    X_b: np.ndarray,
    Q_b: np.ndarray,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act,
    sage_self_weights: Optional[Sequence[np.ndarray]] = None,
    hiddens: Optional[List[np.ndarray]] = None,
) -> np.ndarray:
    """Run the message-passing layers on a stacked batch; returns ``H_k``.

    When ``hiddens`` is a list, every layer's output ``H_1 .. H_k`` is
    appended to it (the base rows :func:`delta_layers` copies from).
    """
    H = X_b
    for i, (W, b) in enumerate(zip(weights, biases)):
        Z = Q_b @ (H @ W) + b
        if sage_self_weights is not None:
            Z = Z + H @ sage_self_weights[i]
        H = act(Z)
        if hiddens is not None:
            hiddens.append(H)
    return H


#: Widest base remainder (rows) a delta starts from: rows copied from a
#: base are exact only while its ``Q @ M`` sums each row in one BLAS
#: K-block. OpenBLAS blocks at 256 columns on Sandybridge and 384 on
#: SkylakeX (257- and 385-row bases broke parity there);
#: :func:`delta_exact` probes sizes up to this cap.
DELTA_MAX_ROWS = 256


@functools.lru_cache(maxsize=None)
def delta_exact(widths: Tuple[int, ...]) -> bool:
    """Whether this BLAS rounds each GEMM row independently of its block.

    :func:`delta_layers` copies rows that a base's ``(K, K) @ (K, d)``
    product computed and recomputes the rest in ``(D, K-1)`` blocks.
    Both equal the full forward only if a row's result depends on its
    own row of ``Q`` and on ``M`` alone: not on how many rows share the
    call or where it sits among them, and not on an all-zero column
    dropped from the sum. OpenBLAS's SkylakeX kernels behave so; its
    Haswell and Zen kernels do not (edge tiles and unroll remainders
    round differently), and there the delta stays off. Dense random
    operands at each layer width ``d`` show any change in accumulation
    order; probed once per process and width set.
    """
    rng = np.random.default_rng(0)
    for K in (37, 96, 161, DELTA_MAX_ROWS):
        Q = rng.random((K, K))
        for d in sorted(set(widths)):
            M = rng.standard_normal((K, d))
            full = Q @ M
            for rows, start in ((2, 1), (3, 0), (5, 7), (9, 3), (K // 2 + 1, 1)):
                if not np.array_equal(Q[start : start + rows] @ M, full[start : start + rows]):
                    return False
            p = K // 3
            Q_zero = Q.copy()
            Q_zero[:, p] = 0.0
            kept = np.delete(Q_zero @ M, p, axis=0)
            dropped = np.delete(np.delete(Q_zero, p, axis=0), p, axis=1) @ np.delete(M, p, axis=0)
            if not np.array_equal(kept, dropped):
                return False
    return True


class RemovalBalls(NamedTuple):
    """Where dropping each candidate node changes a base remainder.

    Built by :func:`removal_balls`; :func:`delta_layers` recomputes
    these rows and copies the rest, and a caller choosing between the
    delta and the full forward reads :attr:`widest`.
    """

    #: ``(K, K)`` symmetrized adjacency of the base remainder
    A_base: np.ndarray
    #: ``(B,)`` base position each candidate drops
    removed: np.ndarray
    #: ``(B, K)`` hop distance from the dropped node, in the base;
    #: ``depth + 2`` beyond the widest ball
    hops: np.ndarray
    #: number of message-passing layers
    depth: int

    def ball(self, layer: int) -> np.ndarray:
        """``(B, K)`` mask of the base rows layer ``layer`` (1-based)
        recomputes per candidate, the dropped node included.

        The dirty radius: ``layer`` hops of message passing, plus one
        because the dropped node's neighbours lose a degree and GCN
        normalizes by it.
        """
        return self.hops <= layer + 1

    @property
    def sizes(self) -> np.ndarray:
        """``(B, depth)`` remainder rows each layer recomputes per candidate."""
        return np.stack(
            [self.ball(layer).sum(axis=1) - 1 for layer in range(1, self.depth + 1)],
            axis=1,
        )

    @property
    def widest(self) -> int:
        """Most remainder rows any candidate recomputes in any layer."""
        return int(self.ball(self.depth).sum(axis=1).max()) - 1

    def take(self, part: slice) -> "RemovalBalls":
        """The balls of candidates ``part`` (one launch's chunk)."""
        return self._replace(removed=self.removed[part], hops=self.hops[part])


def removal_balls(
    A_sym: np.ndarray, base_nodes: np.ndarray, removed: np.ndarray, depth: int
) -> RemovalBalls:
    """The dirty rows of dropping each candidate from a base remainder.

    ``A_sym`` is the parent graph's symmetrized adjacency,
    ``base_nodes`` the base remainder's sorted nodes (``K``),
    ``removed`` one base position per candidate and ``depth`` the
    number of GCN layers. Hops are measured in the base, paths through
    the dropped node included, out to the widest ball.
    """
    A_base = A_sym[base_nodes][:, base_nodes]
    B, K = removed.size, base_nodes.size
    step = ((A_base + np.eye(K)) > 0).astype(np.float64)
    hops = np.full((B, K), depth + 2, dtype=np.intp)
    reach = np.zeros((B, K), dtype=bool)
    reach[np.arange(B), removed] = True
    hops[reach] = 0
    for hop in range(1, depth + 2):
        reach = (reach @ step) > 0
        hops[reach & (hops > hop)] = hop
    return RemovalBalls(A_base, removed, hops, depth)


def delta_layers(
    X_full: np.ndarray,
    base_nodes: np.ndarray,
    base_hiddens: Sequence[np.ndarray],
    balls: RemovalBalls,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    act,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """GCN layers of ``base \\ {v}`` per candidate, recomputing only dirty rows.

    ``base_nodes`` are the base remainder's sorted graph nodes (``K``)
    and ``base_hiddens`` its layer outputs ``H_1 .. H_k`` (``(K, d_l)``
    each); ``balls`` comes from :func:`removal_balls` on that base.
    Returns the ``(B, K-1)`` node rows of every remainder and their
    layer outputs ``(B, K-1, d_l)``, bit-identical to
    :func:`stacked_layers` on the same rows where :func:`delta_exact`
    holds and the base has at most :data:`DELTA_MAX_ROWS` rows. Rows
    outside layer ``l``'s ball are copied from the base; the rest are
    recomputed in the full forward's GEMM shape:

    * every recomputed block keeps all ``K-1`` columns in base order,
      so each dot product sums the same terms in the same order as the
      full ``Q @ M``;
    * ``M = H @ W`` runs over every row, as in the full forward, never
      over the dirty rows alone;
    * no block has a single row: numpy sends a one-row matmul to GEMV,
      which rounds differently from GEMM (removing an isolated node
      dirties no row), so blocks are padded to two rows, the padding
      rows recomputed exactly as well.

    Only GCN aggregation (``aggregation_matrices(conv="gcn")``) is
    supported: its normalization is the reason for the extra hop.
    """
    K = base_nodes.size
    removed, A_base = balls.removed, balls.A_base
    B = removed.size
    cols = np.arange(K - 1)
    keep = cols[None, :] + (cols[None, :] >= removed[:, None])  # base positions
    rows = np.arange(B)[:, None]
    idx = base_nodes[keep]  # (B, K-1) remainder nodes, sorted
    A_hat = A_base + np.eye(K)
    # degrees of A + I over the remainder: small integers, exact in float64
    deg = A_hat.sum(axis=1)[keep] - A_base[keep, removed[:, None]]
    inv_sqrt = 1.0 / np.sqrt(deg)
    # recomputed rows ordered by hop distance, so layer l's block is a
    # prefix of the widest layer's block
    order = np.argsort(balls.hops[rows, keep], axis=1, kind="stable")
    widths = [max(2, int(w)) for w in balls.sizes.max(axis=0)]
    dirty = order[:, : max(widths)]  # (B, D) remainder positions
    Q_rows = _normalized_rows(A_hat, keep, removed, dirty, inv_sqrt)
    H = X_full[idx]
    hiddens: List[np.ndarray] = []
    for layer, (W, b) in enumerate(zip(weights, biases)):
        width = widths[layer]
        Z_rows = Q_rows[:, :width] @ (H @ W) + b
        H = np.take(base_hiddens[layer], keep, axis=0)
        H[rows, dirty[:, :width]] = act(Z_rows)
        hiddens.append(H)
    return idx, hiddens


def _normalized_rows(
    A_hat: np.ndarray,
    keep: np.ndarray,
    removed: np.ndarray,
    dirty: np.ndarray,
    inv_sqrt: np.ndarray,
) -> np.ndarray:
    """Rows ``dirty`` of each remainder's GCN matrix, ``(B, D, K-1)``.

    Scatters the nonzeros of ``A_hat`` (the base's ``A + I``) into
    zeros instead of gathering every entry: each value is
    ``(a · inv_sqrt[row]) · inv_sqrt[col]``, the operation order of
    :func:`aggregation_matrices`, and every other entry is the same
    ``+0.0`` the full matrix holds.
    """
    B, D = dirty.shape
    K = A_hat.shape[0]
    nz_rows, nz_cols = np.nonzero(A_hat)
    indptr = np.searchsorted(nz_rows, np.arange(K + 1))
    base_rows = np.take_along_axis(keep, dirty, axis=1).ravel()
    counts = indptr[base_rows + 1] - indptr[base_rows]
    owner = np.repeat(np.arange(B * D), counts)
    starts = np.cumsum(counts) - counts
    pos = np.arange(counts.sum()) + np.repeat(indptr[base_rows] - starts, counts)
    base_col = nz_cols[pos]
    cand = owner // D
    kept = base_col != removed[cand]
    owner, base_col, cand = owner[kept], base_col[kept], cand[kept]
    col = base_col - (base_col > removed[cand])
    row = owner % D
    values = (
        A_hat[base_rows[owner], base_col]
        * inv_sqrt[cand, dirty[cand, row]]
        * inv_sqrt[cand, col]
    )
    Q_rows = np.zeros((B, D, K - 1))
    Q_rows[cand, row, col] = values
    return Q_rows


def stacked_readout(H: np.ndarray, readout: str) -> np.ndarray:
    """Graph-level pooling over the node axis of a ``(B, k, d)`` batch."""
    if readout == "max":
        return H.max(axis=1)
    if readout == "mean":
        return H.mean(axis=1)
    return H.sum(axis=1)


def gather_sources(
    graph: Graph, features_fn, cache: Optional[dict] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The parent graph's ``(X, A_sym)`` gather sources, memoized in ``cache``.

    Both are immutable per graph; passing the same ``cache`` dict across
    launches skips the O(n²) adjacency rebuild.
    """
    if cache is not None and "X" in cache:
        return cache["X"], cache["A"]
    X_full = features_fn()
    A_sym = symmetrized_adjacency(graph)
    if cache is not None:
        cache["X"], cache["A"] = X_full, A_sym
    return X_full, A_sym


def presorted_rows_probas(
    graph: Graph,
    idx: np.ndarray,
    n_classes: int,
    features_fn,
    forward_group,
    cache: Optional[dict] = None,
) -> np.ndarray:
    """Subset-batched inference: one stacked launch over sorted rows.

    ``idx`` is a ``(B, k)`` matrix of strictly increasing integer node
    rows, one same-size subset per row (e.g. from
    :func:`extension_index_matrix`); a float or bool matrix of ids, or
    a row out of range or out of order, raises
    :class:`~repro.exceptions.ModelError`, and ``k == 0`` rows get the
    uniform ``M(∅)`` prior without inference. Each row's
    ``(k, d)`` features and ``(k, k)`` symmetrized adjacency are
    gathered from the parent graph and ``forward_group(X_b, A_b) ->
    (B, n_classes)`` runs the model-specific forward, so every row is
    bit-identical to the serial forward on its induced subgraph.

    ``features_fn()`` supplies the parent graph's validated feature
    matrix. Passing the same ``cache`` dict across calls reuses the
    dense gather sources (:func:`gather_sources`).
    """
    try:
        idx = np.asarray(idx)
    except (TypeError, ValueError) as exc:  # e.g. subsets of mixed sizes
        raise ModelError("a launch takes one (B, k) matrix of node ids") from exc
    # casting would truncate floats and map bools to 0/1
    if idx.size and idx.dtype.kind not in "iu":
        raise ModelError(f"index matrix must hold integer node ids, got {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.ndim != 2:
        raise ModelError(f"index matrix must be 2-D, got shape {idx.shape}")
    n_rows, k = idx.shape
    if k == 0:
        return np.full((n_rows, n_classes), 1.0 / n_classes)
    if n_rows == 0:
        return np.empty((0, n_classes), dtype=np.float64)
    if k > 1 and not (idx[:, 1:] > idx[:, :-1]).all():
        raise ModelError("index matrix rows must be strictly increasing")
    # increasing rows: the first and last columns bound every node
    if idx[:, 0].min() < 0 or idx[:, -1].max() >= graph.n_nodes:
        raise ModelError(
            f"index matrix references nodes outside 0..{graph.n_nodes - 1}"
        )
    X_full, A_sym = gather_sources(graph, features_fn, cache)
    X_b = X_full[idx]
    A_b = A_sym[idx[:, :, None], idx[:, None, :]]
    return forward_group(X_b, A_b)


def rowwise_head(
    pooled: np.ndarray, head_weight: np.ndarray, head_bias: np.ndarray
) -> np.ndarray:
    """Classification head applied to each row on its own: ``(B, C)`` logits.

    The serial path computes ``pooled @ W + b`` with a 1-D ``pooled``
    (a GEMV); batching it as ``(B, d) @ (d, C)`` selects a GEMM kernel
    whose accumulation order may differ in the last ulp. A stacked
    matmul over ``(B, 1, d)`` runs one ``(1, d) @ (d, C)`` product per
    row, which is that same GEMV, so every row is bit-identical to the
    serial head without a Python loop over rows.
    """
    return np.matmul(pooled[:, None, :], head_weight)[:, 0, :] + head_bias


__all__ = [
    "symmetrized_adjacency",
    "extension_index_matrix",
    "aggregation_matrices",
    "gather_sources",
    "presorted_rows_probas",
    "stacked_layers",
    "DELTA_MAX_ROWS",
    "delta_exact",
    "RemovalBalls",
    "removal_balls",
    "delta_layers",
    "stacked_readout",
    "rowwise_head",
]
