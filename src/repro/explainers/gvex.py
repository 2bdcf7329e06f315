"""GVEX algorithms behind the common :class:`Explainer` interface.

The benches sweep all methods through ``explain_graph``; these wrappers
adapt ApproxGVEX ("AG") and StreamGVEX ("SG") to that interface. Full
view generation (patterns included) runs through ``repro.runtime``'s
shard loop, which calls the two kernels directly: ``build_plan`` +
``run_plan``, or the ``ApproxGvex``/``StreamGvex`` facades.
"""

from __future__ import annotations

from typing import Optional

from repro.config import GvexConfig
from repro.core.approx import explain_graph as _approx_explain_graph
from repro.core.streaming import StreamGvex
from repro.explainers.base import Explainer, ExplainerCapabilities
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph

_GVEX_CAPABILITIES = dict(
    requires_learning=False,
    tasks="GC/NC",
    target="Graph Views (Pattern+Subgraph)",
    model_agnostic=True,
    label_specific=True,
    size_bound=True,
    coverage=True,
    configurable=True,
    queryable=True,
)


class ApproxGvexExplainer(Explainer):
    """Explain-and-summarize GVEX ("AG")."""

    capabilities = ExplainerCapabilities(
        name="GVEX (ApproxGVEX)", short_name="AG", **_GVEX_CAPABILITIES
    )

    def __init__(self, model: GnnClassifier, config: Optional[GvexConfig] = None):
        super().__init__(model)
        self.config = config if config is not None else GvexConfig()

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
        config = self.config
        if max_nodes is not None:
            config = config.with_coverage(
                label, min(config.coverage_for(label).lower, max_nodes), max_nodes
            )
        result = _approx_explain_graph(
            self.model, graph, label, config, graph_index=graph_index
        )
        return result.subgraph


class StreamGvexExplainer(Explainer):
    """Streaming GVEX ("SG")."""

    capabilities = ExplainerCapabilities(
        name="GVEX (StreamGVEX)", short_name="SG", **_GVEX_CAPABILITIES
    )

    def __init__(self, model: GnnClassifier, config: Optional[GvexConfig] = None):
        super().__init__(model)
        self.config = config if config is not None else GvexConfig()

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
        config = self.config
        if max_nodes is not None:
            config = config.with_coverage(
                label, min(config.coverage_for(label).lower, max_nodes), max_nodes
            )
        algo = StreamGvex(self.model, config)
        result = algo.explain_graph_stream(graph, label, graph_index=graph_index)
        return result.subgraph


__all__ = ["ApproxGvexExplainer", "StreamGvexExplainer"]
