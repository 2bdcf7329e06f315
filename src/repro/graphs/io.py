"""JSON (de)serialization for graphs, patterns, views, and databases.

The on-disk format is intentionally plain JSON so explanation views are
*queryable* artifacts: a user can load them into any tool, grep them, or
post-process them without this library.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.exceptions import GraphError, ValidationError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet

PathLike = Union[str, Path]

#: current views wire-format version (``{"schema": 2, "views": [...]}``).
#: v1 files (no ``"schema"`` key) are still read; unknown future
#: versions are rejected so the service/HTTP layer never misparses.
VIEWS_SCHEMA_VERSION = 2
_READABLE_SCHEMAS = (1, 2)

#: the largest node type, node id or edge type a wire graph may carry
_INT64_MAX = int(np.iinfo(np.int64).max)


# ----------------------------------------------------------------------
# graph <-> dict
# ----------------------------------------------------------------------
def graph_to_dict(graph: Graph) -> Dict[str, Any]:
    d: Dict[str, Any] = {
        "node_types": graph.node_types.tolist(),
        "directed": graph.directed,
        "edges": [[u, v, t] for u, v, t in graph.edges()],
    }
    if graph.features is not None:
        d["features"] = graph.features.tolist()
    return d


def graph_from_dict(d: Dict[str, Any]) -> Graph:
    """Parse a graph's wire form, refusing what it would have to coerce.

    Node types, and each edge's ``[u, v, type]``, must be non-negative
    integers that fit int64 (bools and floats are refused, not
    truncated), and ``directed`` a boolean; anything else raises
    :class:`ValidationError`.
    """
    features = None
    if "features" in d:
        features = np.asarray(d["features"], dtype=np.float64)
    directed = _wire_bool(d.get("directed", False), "directed")
    node_types = [_wire_int(t, "node type") for t in _wire_list(d["node_types"])]
    g = Graph(node_types, features=features, directed=directed)
    for edge in _wire_list(d.get("edges", [])):
        if not (
            isinstance(edge, (list, tuple))
            and len(edge) == 3
            and all(_is_wire_int(x) for x in edge)
        ):
            raise ValidationError(
                f"edge {edge!r} is not [u, v, type] of non-negative "
                "integers that fit int64"
            )
        g.add_edge(int(edge[0]), int(edge[1]), int(edge[2]))
    return g


def _wire_list(value: Any) -> Union[list, tuple]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(
            f"node types, edges and nodes must be lists, got "
            f"{type(value).__name__}"
        )
    return value


def _wire_int(value: Any, field: str) -> int:
    if not _is_wire_int(value):
        raise ValidationError(
            f"{field} {value!r} is not a non-negative integer that fits int64"
        )
    return int(value)


def _wire_bool(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{field!r} must be a boolean, got {value!r}")
    return value


def _wire_real(value: Any, field: str) -> float:
    """A real number: an int or a float, and not a bool."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValidationError(f"{field!r} must be a real number, got {value!r}")
    return float(value)


def _is_wire_int(value: Any) -> bool:
    """A non-negative integer that fits int64, and not a bool."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and 0 <= value <= _INT64_MAX
    )


# ----------------------------------------------------------------------
# pattern / view <-> dict
# ----------------------------------------------------------------------
def pattern_to_dict(pattern: Pattern) -> Dict[str, Any]:
    return {"graph": graph_to_dict(pattern.graph), "key": pattern.key()}


def pattern_from_dict(d: Dict[str, Any]) -> Pattern:
    return Pattern(graph_from_dict(d["graph"]))


def subgraph_to_dict(s: ExplanationSubgraph) -> Dict[str, Any]:
    return {
        "graph_index": s.graph_index,
        "nodes": list(s.nodes),
        "subgraph": graph_to_dict(s.subgraph),
        "consistent": s.consistent,
        "counterfactual": s.counterfactual,
        "score": s.score,
    }


def subgraph_from_dict(d: Dict[str, Any]) -> ExplanationSubgraph:
    """Parse a subgraph's wire form under :func:`graph_from_dict`'s rule:
    ``graph_index`` and each node are wire integers, the two flags
    booleans and ``score`` a real number; anything else raises
    :class:`ValidationError`."""
    return ExplanationSubgraph(
        graph_index=_wire_int(d["graph_index"], "graph_index"),
        nodes=tuple(_wire_int(v, "node") for v in _wire_list(d["nodes"])),
        subgraph=graph_from_dict(d["subgraph"]),
        consistent=_wire_bool(d["consistent"], "consistent"),
        counterfactual=_wire_bool(d["counterfactual"], "counterfactual"),
        score=_wire_real(d["score"], "score"),
    )


def view_to_dict(view: ExplanationView) -> Dict[str, Any]:
    return {
        "label": view.label,
        "score": view.score,
        "edge_loss": view.edge_loss,
        "subgraphs": [subgraph_to_dict(s) for s in view.subgraphs],
        "patterns": [pattern_to_dict(p) for p in view.patterns],
    }


def view_from_dict(d: Dict[str, Any]) -> ExplanationView:
    """Parse a view's wire form: ``label`` is a wire integer (or a
    string, which a Python caller may use as a label and which loads
    as itself), ``score`` and ``edge_loss`` real numbers (see
    :func:`subgraph_from_dict`)."""
    label = d["label"]
    return ExplanationView(
        label=label if isinstance(label, str) else _wire_int(label, "label"),
        score=_wire_real(d["score"], "score"),
        # v1 files predate edge_loss serialization
        edge_loss=_wire_real(d.get("edge_loss", 0.0), "edge_loss"),
        subgraphs=[subgraph_from_dict(s) for s in d["subgraphs"]],
        patterns=[pattern_from_dict(p) for p in d["patterns"]],
    )


def viewset_to_dict(views: ViewSet) -> Dict[str, Any]:
    return {
        "schema": VIEWS_SCHEMA_VERSION,
        "views": [view_to_dict(v) for v in views],
    }


def viewset_from_dict(d: Dict[str, Any]) -> ViewSet:
    schema = d.get("schema", 1)  # v1 files carry no version marker
    if schema not in _READABLE_SCHEMAS:
        raise GraphError(
            f"unsupported views schema {schema!r}; this build reads "
            f"versions {_READABLE_SCHEMAS}"
        )
    vs = ViewSet()
    for item in d["views"]:
        vs.add(view_from_dict(item))
    return vs


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def save_json(obj: Dict[str, Any], path: PathLike) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))


def load_json(path: PathLike) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


def save_database(db: GraphDatabase, path: PathLike) -> None:
    save_json(
        {
            "name": db.name,
            "labels": db.labels,
            "graphs": [graph_to_dict(g) for g in db.graphs],
        },
        path,
    )


def load_database(path: PathLike) -> GraphDatabase:
    d = load_json(path)
    return GraphDatabase(
        [graph_from_dict(g) for g in d["graphs"]],
        labels=d.get("labels"),
        name=d.get("name", "database"),
    )


def save_views(views: ViewSet, path: PathLike) -> None:
    save_json(viewset_to_dict(views), path)


def load_views(path: PathLike) -> ViewSet:
    return viewset_from_dict(load_json(path))


__all__ = [
    "VIEWS_SCHEMA_VERSION",
    "graph_to_dict",
    "graph_from_dict",
    "pattern_to_dict",
    "pattern_from_dict",
    "view_to_dict",
    "view_from_dict",
    "viewset_to_dict",
    "viewset_from_dict",
    "save_database",
    "load_database",
    "save_views",
    "load_views",
]
