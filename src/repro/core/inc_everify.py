"""Incremental ``IncEVerify`` — streaming influence/diversity updates (§5).

StreamGVEX interleaves node arrival with view maintenance, and its
"anytime" guarantee is only worth the name if the explainability oracle
on the seen prefix is *extended* when a chunk arrives rather than
re-derived. :class:`IncrementalEVerify` is that engine. Across chunks
it carries three persistent accumulators:

* the propagation power sequence ``Q^1 … Q^k`` behind the expected-mode
  influence matrix (Eq. 3) — extended by a factored low-rank correction
  (:func:`repro.gnn.propagation.extend_power_sequence`) whose rank is
  bounded by the arriving chunk plus its boundary, instead of an
  ``O(k·m³)`` rebuild; once a GCN prefix outgrows ``SPARSE_THRESHOLD``
  the engine mirrors ``expected_influence``'s sparse big-graph
  dispatch instead of caching dense powers;
* the per-layer hidden states ``H^0 … H^k`` of the GNN forward on the
  seen prefix — only *dirty* rows (nodes whose aggregation row changed,
  or with a dirty in-neighbor; propagated layer by layer) are
  recomputed, mirroring the serial layer's operation order row-wise;
* the pairwise embedding distance matrix behind the diversity balls
  (Eq. 6) — rows/columns of dirty final-layer nodes are refreshed, the
  clean block is kept.

The seen prefix is read from the host, never built as a graph: the
stream passes the host and the sorted seen ids, ``Q`` is the host's
memoized symmetrized adjacency sliced by them (normalized by
:func:`~repro.gnn.batch.aggregation_matrices`, as every forward is),
and ``X`` the host's feature rows. Arriving nodes interleave with old
ones in that order, so every accumulator is scattered into the new
index space (a pure permutation — values are untouched) before the
extension is applied.

The engine's oracles are *mathematically equal* to the per-chunk
rebuild (the reference :class:`repro.reference.RebuildEVerify`);
floating-point round-off may differ in the last ulps. The thresholded
relations ``I2 ≥ θ`` and ``d ≤ r`` hide such a difference only where
the value lies further than that from its threshold: an ``I2`` one
ulp past ``θ`` can fall on either side of it, and then the engine's
relation differs from the rebuild's
(``tests/test_stream_incremental.py`` pins such a draw as a strict
xfail). ``tests/test_stream_incremental.py`` enforces selection parity
over the dataset zoo; docs/streaming.md documents the contract and the
case that re-derives anyway (exact Jacobians re-derive per chunk via
the fallback counted in :class:`OracleStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.config import JACOBIAN_EXPECTED, GvexConfig
from repro.core.diversity import embedding_distances
from repro.core.explainability import ExplainabilityOracle
from repro.gnn.batch import aggregation_matrices, symmetrized_adjacency
from repro.gnn.jacobian import (
    expected_influence,
    extend_expected_influence,
    normalized_influence,
)
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph


@dataclass
class OracleStats:
    """Per-stream accounting of oracle maintenance work.

    ``full_refreshes`` counts from-scratch oracle builds (a full
    forward pass plus a full propagation-power build — the rebuild
    schedule pays one per chunk, the incremental engine one per
    stream); ``incremental_updates`` counts chunk extensions;
    ``fallback_rebuilds`` counts chunks where the engine had to
    re-derive (exact-Jacobian mode); ``rows_recomputed`` totals the
    dirty hidden-state rows the extensions touched.
    """

    full_refreshes: int = 0
    incremental_updates: int = 0
    fallback_rebuilds: int = 0
    rows_recomputed: int = 0
    #: chunks whose influence matrix went through the sparse big-graph
    #: path (prefix past ``SPARSE_THRESHOLD``) instead of the dense
    #: power extension; embeddings/distances stay incremental there
    sparse_power_builds: int = 0

    @property
    def oracle_forwards(self) -> int:
        """Full-prefix forward launches the oracle maintenance issued."""
        return self.full_refreshes + self.fallback_rebuilds


class IncrementalEVerify:
    """Chunk-extendable explainability oracle for one node stream.

    One instance serves one :meth:`StreamGvex.explain_graph_stream`
    call. ``refresh(graph, seen_ids)`` returns an
    :class:`ExplainabilityOracle` for ``graph``'s subgraph induced by
    the sorted ``seen_ids``, oracle index ``i`` being node
    ``seen_ids[i]``; the first call builds the accumulators, later
    calls extend them.
    """

    def __init__(self, model: GnnClassifier, config: GvexConfig) -> None:
        self.model = model
        self.config = config
        self.stats = OracleStats()
        self._ids: Optional[np.ndarray] = None
        self._Q: Optional[np.ndarray] = None
        self._powers: List[np.ndarray] = []
        self._hiddens: List[np.ndarray] = []
        self._dist: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def refresh(self, graph: Graph, seen_ids: Sequence[int]) -> ExplainabilityOracle:
        """Oracle for the grown prefix; incremental when possible."""
        ids = np.asarray(seen_ids, dtype=np.intp)
        if self.config.jacobian != JACOBIAN_EXPECTED:
            # exact Jacobians have no incremental structure: re-derive,
            # exactly as the rebuild reference does
            if self._ids is None:
                self.stats.full_refreshes += 1
            else:
                self.stats.fallback_rebuilds += 1
            self._ids = ids
            seen_sub, _ = graph.induced_subgraph(seen_ids)
            return ExplainabilityOracle(self.model, seen_sub, self.config)
        if self._ids is None:
            oracle = self._full_build(graph, ids)
        else:
            oracle = self._extend(graph, ids)
        self._ids = ids
        return oracle

    # ------------------------------------------------------------------
    def _relations_oracle(self, I1: np.ndarray) -> ExplainabilityOracle:
        B = normalized_influence(I1) >= self.config.theta
        assert self._dist is not None
        R = self._dist <= self.config.radius
        return ExplainabilityOracle.from_relations(self.config, B, R)

    def _aggregation(self, graph: Graph, ids: np.ndarray) -> np.ndarray:
        """``Q`` of the prefix: the host's adjacency sliced by ``ids``."""
        A = symmetrized_adjacency(graph)[np.ix_(ids, ids)]
        return aggregation_matrices(self.model.conv, self.model.gin_eps, A)

    def _sparse_build(self, graph: Graph, ids: np.ndarray) -> np.ndarray:
        """``I1`` by the sparse program, which needs the prefix's graph."""
        self._powers = []
        self.stats.sparse_power_builds += 1
        seen_sub, _ = graph.induced_subgraph(ids.tolist())
        return expected_influence(self.model, seen_sub)

    def _sparse_influence(self, n: int) -> bool:
        """Whether a from-scratch build would take the sparse big-graph path.

        Past ``SPARSE_THRESHOLD`` a dense ``O(k·m³)`` power sequence is
        the wrong program (and caching ``k`` dense ``(m, m)`` powers
        the wrong memory profile): mirror ``expected_influence``'s
        dispatch so both schedules run the same sparse float program
        there. Embeddings and distances stay incremental.
        """
        if getattr(self.model, "conv", "gcn") != "gcn":
            return False
        from repro.gnn.sparse import SPARSE_THRESHOLD

        return n > SPARSE_THRESHOLD

    def _full_build(self, graph: Graph, ids: np.ndarray) -> ExplainabilityOracle:
        self.stats.full_refreshes += 1
        Q = self._aggregation(graph, ids)
        if self._sparse_influence(ids.size):
            I1 = self._sparse_build(graph, ids)
        else:
            I1, self._powers = extend_expected_influence(
                self.model, Q, [], np.empty(0, dtype=np.intp)
            )
        cache = self.model.forward(self.model.features_for(graph)[ids], Q)
        self._Q = Q
        self._hiddens = list(cache.hiddens)
        self._dist = embedding_distances(self._hiddens[-1])
        return self._relations_oracle(I1)

    def _extend(self, graph: Graph, ids: np.ndarray) -> ExplainabilityOracle:
        self.stats.incremental_updates += 1
        model = self.model
        assert (
            self._ids is not None
            and self._dist is not None
            and self._Q is not None
        )
        pos = np.searchsorted(ids, self._ids)  # old local -> new local
        m = ids.size

        # --- influence: rank-update of the propagation powers (Eq. 3),
        # or the sparse big-graph program once the prefix outgrows it
        Q_old_pad = np.zeros((m, m))
        Q_old_pad[np.ix_(pos, pos)] = self._Q
        Q_new = self._aggregation(graph, ids)
        if self._sparse_influence(m):
            I1 = self._sparse_build(graph, ids)
        elif not self._powers:  # defensive: prefixes only grow, but a
            # dense resume after a sparse stretch stays correct
            I1, self._powers = extend_expected_influence(
                model, Q_new, [], np.empty(0, dtype=np.intp)
            )
        else:
            I1, self._powers = extend_expected_influence(
                model, Q_new, self._powers, pos
            )
        self._Q = Q_new

        # --- embeddings: recompute only dirty rows, layer by layer
        X = model.features_for(graph)[ids]
        q_dirty = np.any((Q_new - Q_old_pad) != 0.0, axis=1)
        q_support = Q_new != 0.0
        hiddens: List[np.ndarray] = [X]
        dirty = np.ones(m, dtype=bool)
        dirty[pos] = False  # H^0 rows of old nodes are bit-unchanged
        sage = model.conv == "sage"
        for layer in range(model.n_layers):
            H_prev = hiddens[-1]
            need = q_dirty | q_support[:, dirty].any(axis=1)
            if sage:
                need = need | dirty  # self term reads the node's own row
            H_old = self._hiddens[layer + 1]
            H_new = np.empty((m, H_old.shape[1]))
            keep_old = ~need[pos]  # old-local mask of rows to carry over
            H_new[pos[keep_old]] = H_old[keep_old]
            rows = np.nonzero(need)[0]
            # mirror the serial layer: Z = Q (H W) + b (+ H W_self)
            M = H_prev @ model.weights[layer]
            Z = Q_new[rows] @ M + model.biases[layer]
            if sage:
                Z = Z + H_prev[rows] @ model.sage_self_weights[layer]
            H_new[rows] = model._act(Z)
            hiddens.append(H_new)
            self.stats.rows_recomputed += int(rows.size)
            dirty = need
        self._hiddens = hiddens

        # --- diversity: refresh distance rows/cols of dirty embeddings
        emb = hiddens[-1]
        dist = np.empty((m, m))
        clean_old = np.nonzero(~dirty[pos])[0]  # old-local clean rows
        clean_new = pos[clean_old]
        dist[np.ix_(clean_new, clean_new)] = self._dist[
            np.ix_(clean_old, clean_old)
        ]
        rows = np.nonzero(dirty)[0]
        if rows.size:
            block = _distance_rows(emb, rows)
            dist[rows, :] = block
            dist[:, rows] = block.T
        self._dist = dist
        return self._relations_oracle(I1)


def _distance_rows(embeddings: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows of :func:`embedding_distances` for the given indices.

    Same normalized-Euclidean formula, restricted to the dirty rows —
    mathematically equal to slicing the full pairwise matrix.
    """
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    safe = np.where(norms <= 1e-12, 1.0, norms)
    unit = embeddings / safe
    sq = (unit**2).sum(axis=1)
    d2 = sq[rows, None] + sq[None, :] - 2.0 * (unit[rows] @ unit.T)
    return np.sqrt(np.maximum(d2, 0.0))


__all__ = ["IncrementalEVerify", "OracleStats"]
