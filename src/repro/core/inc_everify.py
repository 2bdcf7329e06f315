"""``IncEVerify`` — StreamGVEX's oracle on each chunk's seen prefix (§5).

After every batch of arrivals StreamGVEX needs Eq. 2's oracle on the
seen prefix. :class:`IncrementalEVerify` builds it from scratch off
the host through :func:`~repro.core.explainability.oracle_relations`,
the relation builder ApproxGVEX's per-graph oracle uses too: ``Q`` is
the host's memoized symmetrized adjacency sliced by the sorted seen
ids and normalized by :func:`~repro.gnn.batch.aggregation_matrices`,
``B`` thresholds the influence read off that ``Q`` (or, for exact
Jacobians, off the forward), and ``R`` the distances of one forward
over the host's feature rows. No prefix is built as a graph.

A principal submatrix of the symmetrized adjacency is the induced
subgraph's, and every later step runs the same operations on the same
arrays, so each chunk's oracle equals the per-chunk rebuild on the
induced prefix (:class:`repro.reference.RebuildEVerify`) bit for bit.
``tests/test_stream_incremental.py`` checks that chunk by chunk and
over the dataset zoo; docs/streaming.md says why this plain rebuild
replaced the rank-update engine that extended the previous chunk's
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import GvexConfig
from repro.core.explainability import ExplainabilityOracle, oracle_relations
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph


@dataclass
class OracleStats:
    """Per-stream accounting of oracle builds.

    ``full_refreshes`` counts the from-scratch oracle builds, one per
    chunk; ``rows_recomputed`` totals the hidden-state rows their
    forwards compute (``n_layers`` rows per prefix node per build).
    """

    full_refreshes: int = 0
    rows_recomputed: int = 0


class IncrementalEVerify:
    """The explainability oracle of one node stream, chunk by chunk.

    One instance serves one :meth:`StreamGvex.explain_graph_stream`
    call. ``refresh(graph, seen_ids)`` returns an
    :class:`ExplainabilityOracle` for ``graph``'s subgraph induced by
    the sorted ``seen_ids``, oracle index ``i`` being node
    ``seen_ids[i]``.
    """

    def __init__(self, model: GnnClassifier, config: GvexConfig) -> None:
        self.model = model
        self.config = config
        self.stats = OracleStats()

    def refresh(self, graph: Graph, seen_ids: Sequence[int]) -> ExplainabilityOracle:
        """Oracle for the seen prefix, built from the host's slices."""
        ids = np.asarray(seen_ids, dtype=np.intp)
        self.stats.full_refreshes += 1
        self.stats.rows_recomputed += self.model.n_layers * ids.size
        B, R = oracle_relations(self.model, graph, self.config, ids)
        return ExplainabilityOracle.from_relations(self.config, B, R)


__all__ = ["IncrementalEVerify", "OracleStats"]
