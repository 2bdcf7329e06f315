"""Common explainer interface and capability metadata (Table 1).

Every explainer — GVEX's two algorithms and the four baselines —
produces per-graph node subsets behind one API so the evaluation
harness (Figures 5-9) can sweep them uniformly. The capability matrix
the paper prints as Table 1 is generated from each class's
:class:`ExplainerCapabilities` (see
:func:`repro.metrics.capability.capability_table`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.exceptions import ExplanationError
from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph


@dataclass(frozen=True)
class ExplainerCapabilities:
    """One row of Table 1."""

    name: str
    short_name: str
    requires_learning: bool
    tasks: str  # "GC", "NC", or "GC/NC"
    target: str  # explanation output format
    model_agnostic: bool
    label_specific: bool
    size_bound: bool
    coverage: bool
    configurable: bool
    queryable: bool


class Explainer(ABC):
    """Produces an explanation node set for each classified graph."""

    capabilities: ExplainerCapabilities

    def __init__(self, model: GnnClassifier) -> None:
        self.model = model

    # ------------------------------------------------------------------
    @abstractmethod
    def explain_graph(
        self,
        graph: Graph,
        label: Optional[int] = None,
        max_nodes: Optional[int] = None,
        graph_index: int = 0,
    ) -> Optional[ExplanationSubgraph]:
        """Explain one graph's prediction; ``None`` when impossible.

        ``label`` defaults to the model's prediction; ``max_nodes``
        bounds the explanation size (the ``u_l`` knob in Figures 5-6).
        """

    # ------------------------------------------------------------------
    def explain_database(
        self,
        db: GraphDatabase,
        label: Optional[int] = None,
        max_nodes: Optional[int] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> Dict[int, ExplanationSubgraph]:
        """Explain every graph (optionally restricted to one label group)."""
        from repro.core.approx import database_predictions

        out: Dict[int, ExplanationSubgraph] = {}
        pool = list(range(len(db)) if indices is None else indices)
        predictions = database_predictions(self.model, db, indices=pool)
        for idx, predicted in zip(pool, predictions):
            graph = db[idx]
            if predicted is None:
                continue
            if label is not None and predicted != label:
                continue
            explanation = self.explain_graph(
                graph, label=predicted, max_nodes=max_nodes, graph_index=idx
            )
            if explanation is not None:
                out[idx] = explanation
        return out

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _resolve_label(self, graph: Graph, label: Optional[int]) -> int:
        if label is not None:
            return label
        predicted = self.model.predict(graph)
        if predicted is None:
            raise ExplanationError("cannot explain an empty graph")
        return predicted

    def _probability(self, graph: Graph, label: int) -> float:
        """P(M(graph) = label), uniform for the empty graph."""
        return float(self.model.predict_proba(graph)[label])

    def _subset_probability(self, graph: Graph, nodes, label: int) -> float:
        sub, _ = graph.induced_subgraph(nodes)
        return self._probability(sub, label)

    def _finalize(
        self, graph: Graph, nodes, label: int, graph_index: int, score: float = 0.0
    ) -> ExplanationSubgraph:
        """Package a node set into an :class:`ExplanationSubgraph`."""
        nodes = tuple(sorted(int(v) for v in nodes))
        sub, _ = graph.induced_subgraph(nodes)
        rest, _ = graph.remove_nodes(nodes)
        consistent = self.model.predict(sub) == label
        counterfactual = self.model.predict(rest) != label
        return ExplanationSubgraph(
            graph_index=graph_index,
            nodes=nodes,
            subgraph=sub,
            consistent=consistent,
            counterfactual=counterfactual,
            score=score,
        )


__all__ = ["Explainer", "ExplainerCapabilities"]
