"""Explanation views — the paper's central output structure (§2.2).

An :class:`ExplanationView` ``G_V^l = (P^l, G_s^l)`` pairs a set of
graph patterns with the explanation subgraphs they summarize, for one
class label ``l``. :class:`ExplanationSubgraph` records, for one source
graph, which nodes were selected, the induced subgraph, and whether the
consistency / counterfactual properties (§2.2) held under the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern


@dataclass
class ExplanationSubgraph:
    """A "lower-tier" explanation subgraph ``G_s`` of one source graph.

    Attributes
    ----------
    graph_index:
        Index of the source graph inside its database / label group.
    nodes:
        Selected node ids *in the source graph's id space* (``V_s``).
    subgraph:
        The node-induced subgraph (relabelled ``0..|V_s|-1``).
    consistent:
        Whether ``M(G_s) == M(G)`` held at verification time.
    counterfactual:
        Whether ``M(G \\ G_s) != M(G)`` held at verification time.
    score:
        The subgraph's explainability contribution
        ``(I(V_s) + γ·D(V_s)) / |V|`` (Eq. 2 summand).
    """

    graph_index: int
    nodes: Tuple[int, ...]
    subgraph: Graph
    consistent: bool = False
    counterfactual: bool = False
    score: float = 0.0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return self.subgraph.n_edges

    @property
    def is_explanation(self) -> bool:
        """Both §2.2 properties hold: consistent *and* counterfactual."""
        return self.consistent and self.counterfactual

    def __repr__(self) -> str:
        flags = ("C" if self.consistent else "-") + (
            "F" if self.counterfactual else "-"
        )
        return (
            f"<ExplSubgraph g{self.graph_index} |Vs|={self.n_nodes} "
            f"|Es|={self.n_edges} {flags} score={self.score:.3f}>"
        )


@dataclass
class ExplanationView:
    """Two-tier explanation view ``(P^l, G_s^l)`` for one class label."""

    label: Hashable
    subgraphs: List[ExplanationSubgraph] = field(default_factory=list)
    patterns: List[Pattern] = field(default_factory=list)
    score: float = 0.0
    #: fraction of subgraph edges the patterns fail to cover (Lemma 4.3)
    edge_loss: float = 0.0
    #: lazily built (n_subgraphs, graph_index -> subgraph) lookup used by
    #: ``subgraph_for``; invalidated whenever ``subgraphs`` changes length
    _by_graph_index: Optional[Tuple[int, Dict[int, ExplanationSubgraph]]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def n_subgraph_nodes(self) -> int:
        return sum(s.n_nodes for s in self.subgraphs)

    @property
    def n_subgraph_edges(self) -> int:
        return sum(s.n_edges for s in self.subgraphs)

    @property
    def n_pattern_nodes(self) -> int:
        return sum(p.n_nodes for p in self.patterns)

    @property
    def n_pattern_edges(self) -> int:
        return sum(p.n_edges for p in self.patterns)

    def subgraph_for(self, graph_index: int) -> Optional[ExplanationSubgraph]:
        """O(1) lookup of the explanation subgraph for one source graph.

        Backed by a lazily built dict; when several subgraphs share a
        ``graph_index`` the first one wins, matching the original linear
        scan's semantics.
        """
        cached = self._by_graph_index
        if cached is None or cached[0] != len(self.subgraphs):
            lookup: Dict[int, ExplanationSubgraph] = {}
            for s in self.subgraphs:
                lookup.setdefault(s.graph_index, s)
            cached = (len(self.subgraphs), lookup)
            self._by_graph_index = cached
        return cached[1].get(graph_index)

    def compression(self) -> float:
        """Eq. 11: 1 - (|V_P| + |E_P|) / (|V_S| + |E_S|)."""
        denom = self.n_subgraph_nodes + self.n_subgraph_edges
        if denom == 0:
            return 0.0
        return 1.0 - (self.n_pattern_nodes + self.n_pattern_edges) / denom

    def __repr__(self) -> str:
        return (
            f"<ExplanationView label={self.label!r} "
            f"|Gs|={len(self.subgraphs)} |P|={len(self.patterns)} "
            f"f={self.score:.3f}>"
        )


@dataclass
class ViewSet:
    """A set of explanation views, one per label of interest (Problem 1)."""

    views: Dict[Hashable, ExplanationView] = field(default_factory=dict)

    def add(self, view: ExplanationView) -> None:
        self.views[view.label] = view

    def __getitem__(self, label: Hashable) -> ExplanationView:
        return self.views[label]

    def get(
        self, label: Hashable, default: Optional[ExplanationView] = None
    ) -> Optional[ExplanationView]:
        """The view for ``label``, or ``default`` when absent."""
        return self.views.get(label, default)

    def __contains__(self, label: Hashable) -> bool:
        return label in self.views

    def __iter__(self):
        return iter(self.views.values())

    def __len__(self) -> int:
        return len(self.views)

    @property
    def labels(self) -> List[Hashable]:
        return list(self.views.keys())

    def total_score(self) -> float:
        """Aggregated explainability (Eq. 7 objective value)."""
        return sum(v.score for v in self.views.values())

    def __repr__(self) -> str:
        return f"<ViewSet labels={self.labels} f={self.total_score():.3f}>"


__all__ = ["ExplanationSubgraph", "ExplanationView", "ViewSet"]
