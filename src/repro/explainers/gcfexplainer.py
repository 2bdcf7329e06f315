"""GCFExplainer baseline (Huang et al., WSDM 2023).

Global counterfactual reasoning: for each input graph of a label
group, greedily delete the node whose removal most reduces the
predicted probability of the assigned label until the label flips —
the deleted set is the graph's counterfactual explanation and the
remainder its counterfactual graph. A greedy cover step then selects a
small set of *representative* counterfactual graphs whose embeddings
cover the whole group within a distance threshold (the paper's global
summary); per-graph explanations reuse the deleted node sets so the
fidelity harness can sweep this method alongside instance-level ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.diversity import embedding_distances
from repro.explainers.base import Explainer, ExplainerCapabilities
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph
from repro.utils.rng import RngLike, ensure_rng


class GcfExplainer(Explainer):
    """Global counterfactual explainer ("GCF" in the figures)."""

    capabilities = ExplainerCapabilities(
        name="GCFExplainer",
        short_name="GCF",
        requires_learning=False,
        tasks="GC",
        target="Subgraph",
        model_agnostic=True,
        label_specific=True,
        size_bound=False,
        coverage=True,
        configurable=False,
        queryable=False,
    )

    def __init__(
        self,
        model: GnnClassifier,
        coverage_distance: float = 0.5,
        seed: RngLike = 0,
    ) -> None:
        super().__init__(model)
        self.coverage_distance = coverage_distance
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
        deleted = self._counterfactual_deletions(graph, label, max_nodes)
        if not deleted:
            return None
        return self._finalize(graph, deleted, label, graph_index)

    # ------------------------------------------------------------------
    def _counterfactual_deletions(
        self, graph: Graph, label: int, max_nodes: Optional[int]
    ) -> List[int]:
        """Greedy node deletions until the label flips (or budget ends)."""
        budget = max_nodes if max_nodes is not None else graph.n_nodes - 1
        remaining: Set[int] = set(graph.nodes())
        deleted: List[int] = []
        while len(deleted) < budget and len(remaining) > 1:
            rest, _ = graph.induced_subgraph(remaining)
            if self.model.predict(rest) != label and deleted:
                break
            best_v: Optional[int] = None
            best_prob = np.inf
            for v in sorted(remaining):
                trial = remaining - {v}
                prob = self._subset_probability(graph, trial, label)
                if prob < best_prob:
                    best_prob = prob
                    best_v = v
            if best_v is None:
                break
            remaining.discard(best_v)
            deleted.append(best_v)
            if self._subset_probability(graph, remaining, label) < 0.5:
                break
        return deleted

    # ------------------------------------------------------------------
    def representative_counterfactuals(
        self,
        db: GraphDatabase,
        label: int,
        indices: Sequence[int],
        max_representatives: int = 5,
    ) -> List[Tuple[int, Graph]]:
        """Global step: a few counterfactual graphs covering the group.

        A counterfactual (built from graph ``i``) covers graph ``j``
        when their pooled GNN embeddings are within
        ``coverage_distance``. Returns ``(source index, counterfactual
        graph)`` pairs chosen greedily by marginal coverage.
        """
        candidates: List[Tuple[int, Graph]] = []
        for idx in indices:
            graph = db[idx]
            deleted = self._counterfactual_deletions(graph, label, None)
            if not deleted:
                continue
            rest, _ = graph.remove_nodes(deleted)
            if rest.n_nodes and self.model.predict(rest) != label:
                candidates.append((idx, rest))
        if not candidates:
            return []

        group_emb = np.vstack(
            [self._pooled_embedding(db[i]) for i in indices]
        )
        cand_emb = np.vstack(
            [self._pooled_embedding(g) for _, g in candidates]
        )
        both = np.vstack([cand_emb, group_emb])
        dist = embedding_distances(both)[: len(candidates), len(candidates):]
        covers = dist <= self.coverage_distance

        chosen: List[Tuple[int, Graph]] = []
        covered = np.zeros(len(indices), dtype=bool)
        while len(chosen) < max_representatives and not covered.all():
            gains = (covers & ~covered[None, :]).sum(axis=1)
            best = int(np.argmax(gains))
            if gains[best] == 0:
                break
            chosen.append(candidates[best])
            covered |= covers[best]
        return chosen

    def _pooled_embedding(self, graph: Graph) -> np.ndarray:
        if graph.n_nodes == 0:
            return np.zeros(self.model.hidden_dims[-1])
        return self.model.node_embeddings(graph).max(axis=0)


__all__ = ["GcfExplainer"]
