"""Conversion to/from :mod:`networkx` graphs, for tests only.

networkx's ``GraphMatcher`` is the isomorphism oracle of the matching
tests. Keeping the bridge here leaves networkx a test-only dependency.
"""

from __future__ import annotations

import networkx as nx

from repro.graphs.graph import Graph


def to_networkx(graph: Graph) -> "nx.Graph":
    """Convert to ``nx.Graph``/``nx.DiGraph`` with ``type`` attributes."""
    g = nx.DiGraph() if graph.directed else nx.Graph()
    for v in graph.nodes():
        g.add_node(v, type=graph.node_type(v))
    for u, v, t in graph.edges():
        g.add_edge(u, v, type=t)
    return g


def from_networkx(g: "nx.Graph") -> Graph:
    """Convert from networkx; nodes are relabelled to ``0..n-1``.

    Node/edge ``type`` attributes default to 0 when absent.
    """
    order = sorted(g.nodes())
    remap = {node: i for i, node in enumerate(order)}
    types = [int(g.nodes[node].get("type", 0)) for node in order]
    out = Graph(types, directed=g.is_directed())
    for u, v, data in g.edges(data=True):
        out.add_edge(remap[u], remap[v], int(data.get("type", 0)))
    return out


__all__ = ["to_networkx", "from_networkx"]
