"""Graph substrate: attributed graphs, patterns, views, and databases."""

from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet

__all__ = [
    "Graph",
    "graph_from_edges",
    "GraphDatabase",
    "Pattern",
    "ExplanationSubgraph",
    "ExplanationView",
    "ViewSet",
]
