"""Conciseness metrics: Sparsity (Eq. 10), Compression (Eq. 11), edge loss.

Sparsity measures how small explanation subgraphs are relative to the
inputs; Compression measures how much smaller the "higher-tier"
patterns are than the subgraphs they summarize (GVEX-only); edge loss
is the fraction of subgraph edges patterns fail to cover (Lemma 4.3's
optimization target).
"""

from __future__ import annotations

from typing import Mapping

from repro.graphs.database import GraphDatabase
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet


def sparsity_single(graph_nodes: int, graph_edges: int, expl: ExplanationSubgraph) -> float:
    denom = graph_nodes + graph_edges
    if denom == 0:
        return 0.0
    return 1.0 - (expl.n_nodes + expl.n_edges) / denom


def sparsity(
    db: GraphDatabase, explanations: Mapping[int, ExplanationSubgraph]
) -> float:
    """Eq. 10, averaged over explained graphs (higher = more concise)."""
    if not explanations:
        return 0.0
    total = 0.0
    for idx, expl in explanations.items():
        g = db[idx]
        total += sparsity_single(g.n_nodes, g.n_edges, expl)
    return total / len(explanations)


def compression(view: ExplanationView) -> float:
    """Eq. 11 for one view: 1 - pattern size / subgraph size."""
    return view.compression()


def mean_compression(views: ViewSet) -> float:
    """Average compression across the views of all labels."""
    if len(views) == 0:
        return 0.0
    return sum(v.compression() for v in views) / len(views)


def mean_edge_loss(views: ViewSet) -> float:
    """Average fraction of subgraph edges the patterns miss."""
    if len(views) == 0:
        return 0.0
    return sum(v.edge_loss for v in views) / len(views)


__all__ = [
    "sparsity",
    "sparsity_single",
    "compression",
    "mean_compression",
    "mean_edge_loss",
]
