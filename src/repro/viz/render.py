"""Human-readable rendering of graphs, patterns, and explanation views.

GVEX's pitch is *human inspection*: analysts read patterns, compare
subgraphs, and issue queries. This module renders the structures in
three formats:

* **ASCII summaries** — terminal-friendly adjacency sketches;
* **DOT** — Graphviz source for figures (no graphviz dependency; the
  output is plain text a user can pipe to ``dot -Tpng``);
* **view reports** — a full explanation view as a readable document,
  the textual equivalent of the paper's Figures 1/2/10/11.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet

#: default node-type names when the caller supplies none
_FALLBACK = "abcdefghijklmnopqrstuvwxyz"


def _type_name(t: int, names: Optional[Mapping[int, str]]) -> str:
    if names is not None and t in names:
        return names[t]
    if 0 <= t < len(_FALLBACK):
        return _FALLBACK[t]
    return f"t{t}"


# ----------------------------------------------------------------------
# ASCII
# ----------------------------------------------------------------------
def ascii_graph(
    graph: Graph,
    type_names: Optional[Mapping[int, str]] = None,
    indent: str = "",
) -> str:
    """Adjacency-list sketch, one node per line.

    >>> from repro.graphs.graph import graph_from_edges
    >>> print(ascii_graph(graph_from_edges([0, 1], [(0, 1)])))
    0[a] -- 1
    1[b] -- 0
    """
    lines = []
    arrow = "->" if graph.directed else "--"
    for v in graph.nodes():
        label = f"{v}[{_type_name(graph.node_type(v), type_names)}]"
        neigh = sorted(graph.neighbors(v))
        right = ", ".join(str(w) for w in neigh) if neigh else "(isolated)"
        lines.append(f"{indent}{label} {arrow} {right}")
    return "\n".join(lines)


def ascii_pattern(
    pattern: Pattern, type_names: Optional[Mapping[int, str]] = None
) -> str:
    """One-line pattern signature: types plus edge list."""
    g = pattern.graph
    types = ",".join(
        _type_name(g.node_type(v), type_names) for v in g.nodes()
    )
    arrow = "->" if g.directed else "-"
    edges = " ".join(f"{u}{arrow}{v}" for u, v, _ in g.edges())
    return f"({types})" + (f" [{edges}]" if edges else "")


# ----------------------------------------------------------------------
# DOT (Graphviz)
# ----------------------------------------------------------------------
def to_dot(
    graph: Graph,
    name: str = "G",
    type_names: Optional[Mapping[int, str]] = None,
    highlight: Iterable[int] = (),
) -> str:
    """Graphviz source; ``highlight`` nodes are filled (explanations)."""
    marked = set(highlight)
    kind = "digraph" if graph.directed else "graph"
    connector = "->" if graph.directed else "--"
    lines = [f"{kind} {name} {{"]
    for v in graph.nodes():
        label = _type_name(graph.node_type(v), type_names)
        style = ' style=filled fillcolor="gold"' if v in marked else ""
        lines.append(f'  n{v} [label="{label}"{style}];')
    for u, v, t in graph.edges():
        attr = f' [label="{t}"]' if t != 0 else ""
        lines.append(f"  n{u} {connector} n{v}{attr};")
    lines.append("}")
    return "\n".join(lines)


def view_to_dot(
    view: ExplanationView,
    type_names: Optional[Mapping[int, str]] = None,
) -> str:
    """All of a view's patterns as one DOT document with clusters."""
    lines = [f"graph view_{view.label} {{"]
    for i, pattern in enumerate(view.patterns):
        g = pattern.graph
        lines.append(f"  subgraph cluster_p{i} {{")
        lines.append(f'    label="P{i}";')
        for v in g.nodes():
            label = _type_name(g.node_type(v), type_names)
            lines.append(f'    p{i}_{v} [label="{label}"];')
        connector = "->" if g.directed else "--"
        for u, v, t in g.edges():
            lines.append(f"    p{i}_{u} {connector} p{i}_{v};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def subgraph_report(
    sub: ExplanationSubgraph,
    type_names: Optional[Mapping[int, str]] = None,
) -> str:
    flags = []
    flags.append("consistent" if sub.consistent else "NOT consistent")
    flags.append("counterfactual" if sub.counterfactual else "NOT counterfactual")
    header = (
        f"graph #{sub.graph_index}: nodes {list(sub.nodes)} "
        f"({', '.join(flags)}; score {sub.score:.3f})"
    )
    body = ascii_graph(sub.subgraph, type_names, indent="    ")
    return header + "\n" + body


def view_report(
    view: ExplanationView,
    type_names: Optional[Mapping[int, str]] = None,
    max_subgraphs: int = 5,
) -> str:
    """A full explanation view as a readable document."""
    lines = [
        f"Explanation view for label {view.label!r}",
        f"  explainability f = {view.score:.3f}",
        f"  compression = {view.compression():.1%}, edge loss = {view.edge_loss:.1%}",
        "",
        f"  Higher tier — {len(view.patterns)} pattern(s):",
    ]
    for i, pattern in enumerate(view.patterns):
        lines.append(f"    P{i}: {ascii_pattern(pattern, type_names)}")
    lines.append("")
    shown = view.subgraphs[:max_subgraphs]
    lines.append(
        f"  Lower tier — {len(view.subgraphs)} explanation subgraph(s)"
        + (f", first {len(shown)}:" if len(view.subgraphs) > len(shown) else ":")
    )
    for sub in shown:
        for row in subgraph_report(sub, type_names).splitlines():
            lines.append("    " + row)
    return "\n".join(lines)


def viewset_report(
    views: ViewSet,
    type_names: Optional[Mapping[int, str]] = None,
    max_subgraphs: int = 3,
) -> str:
    parts = [
        view_report(view, type_names, max_subgraphs=max_subgraphs)
        for view in views
    ]
    return ("\n" + "=" * 60 + "\n").join(parts)


__all__ = [
    "ascii_graph",
    "ascii_pattern",
    "to_dot",
    "view_to_dot",
    "subgraph_report",
    "view_report",
    "viewset_report",
]
