"""GStarX baseline (Zhang et al., NeurIPS 2022).

Scores nodes with a structure-aware cooperative-game value: instead of
all coalitions (classic Shapley), only *connected* coalitions are
considered, reflecting that message passing only propagates along
edges. We estimate each node's value by sampling random connected
coalitions (random BFS prefixes) and averaging its marginal
contribution to the predicted class probability, then return the
induced subgraph on the top-k nodes.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.explainers.base import Explainer, ExplainerCapabilities
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph
from repro.utils.rng import RngLike, ensure_rng


class GStarX(Explainer):
    """Structure-aware game-value explainer ("GX" in the figures)."""

    capabilities = ExplainerCapabilities(
        name="GStarX",
        short_name="GX",
        requires_learning=False,
        tasks="GC",
        target="Subgraph",
        model_agnostic=True,
        label_specific=False,
        size_bound=False,
        coverage=False,
        configurable=False,
        queryable=False,
    )

    def __init__(
        self,
        model: GnnClassifier,
        coalition_samples: int = 24,
        max_coalition_size: Optional[int] = None,
        seed: RngLike = 0,
    ) -> None:
        super().__init__(model)
        self.coalition_samples = coalition_samples
        self.max_coalition_size = max_coalition_size
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------
    def explain_graph(
        self,
        graph: Graph,
        label: Optional[int] = None,
        max_nodes: Optional[int] = None,
        graph_index: int = 0,
    ) -> Optional[ExplanationSubgraph]:
        if graph.n_nodes == 0:
            return None
        label = self._resolve_label(graph, label)
        budget = max_nodes if max_nodes is not None else max(graph.n_nodes // 2, 1)
        scores = self.node_scores(graph, label)
        order = np.argsort(-scores)
        nodes = [int(v) for v in order[:budget]]
        if not nodes:
            return None
        return self._finalize(
            graph, nodes, label, graph_index, score=float(scores[order[0]])
        )

    # ------------------------------------------------------------------
    def node_scores(self, graph: Graph, label: int) -> np.ndarray:
        """Monte-Carlo structure-aware values per node."""
        n = graph.n_nodes
        totals = np.zeros(n)
        counts = np.zeros(n)
        cap = self.max_coalition_size or max(n // 2, 2)
        for _ in range(self.coalition_samples):
            coalition = self._random_connected_coalition(graph, cap)
            base = self._subset_probability(graph, coalition, label)
            # marginal contribution of each member: v(S) - v(S \ {i})
            for v in coalition:
                rest = coalition - {v}
                if rest:
                    without = self._subset_probability(graph, rest, label)
                else:
                    without = 1.0 / self.model.n_classes
                totals[v] += base - without
                counts[v] += 1
        counts = np.where(counts == 0, 1.0, counts)
        return totals / counts

    def _random_connected_coalition(self, graph: Graph, cap: int) -> Set[int]:
        start = int(self._rng.integers(0, graph.n_nodes))
        size = int(self._rng.integers(1, cap + 1))
        coalition = {start}
        frontier = list(graph.all_neighbors(start))
        while frontier and len(coalition) < size:
            idx = int(self._rng.integers(0, len(frontier)))
            v = frontier.pop(idx)
            if v in coalition:
                continue
            coalition.add(v)
            frontier.extend(w for w in graph.all_neighbors(v) if w not in coalition)
        return coalition


__all__ = ["GStarX"]
