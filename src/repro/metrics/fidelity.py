"""Explanation faithfulness metrics (Eqs. 8-9).

* **Fidelity+** — probability drop caused by *removing* the explanation
  from the input: high values mean the explanation was necessary
  (counterfactual).
* **Fidelity-** — probability drop when classifying the explanation
  *alone*: values near (or below) zero mean the explanation is
  sufficient (consistent).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.gnn.model import GnnClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.view import ExplanationSubgraph


def _probability(model: GnnClassifier, graph: Graph, label: int) -> float:
    return float(model.predict_proba(graph)[label])


def fidelity_plus_single(
    model: GnnClassifier, graph: Graph, nodes: Iterable[int], label: int
) -> float:
    """Eq. 8 for one graph: P(M(G)=l) - P(M(G \\ G_s)=l)."""
    rest, _ = graph.remove_nodes(nodes)
    return _probability(model, graph, label) - _probability(model, rest, label)


def fidelity_minus_single(
    model: GnnClassifier, graph: Graph, nodes: Iterable[int], label: int
) -> float:
    """Eq. 9 for one graph: P(M(G)=l) - P(M(G_s)=l)."""
    sub, _ = graph.induced_subgraph(nodes)
    return _probability(model, graph, label) - _probability(model, sub, label)


def fidelity_scores(
    model: GnnClassifier,
    db: GraphDatabase,
    explanations: Mapping[int, ExplanationSubgraph],
    labels: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[float, float]:
    """(Fidelity+, Fidelity-) averaged over the explained graphs.

    ``explanations`` maps graph index -> explanation; ``labels``
    supplies the assigned labels (defaults to fresh model predictions).
    Graphs without an explanation are skipped, matching how the paper
    evaluates per-method outputs.
    """
    if not explanations:
        return 0.0, 0.0
    plus_total = 0.0
    minus_total = 0.0
    count = 0
    for idx, expl in explanations.items():
        graph = db[idx]
        label = (
            labels[idx]
            if labels is not None and labels[idx] is not None
            else model.predict(graph)
        )
        if label is None:
            continue
        plus_total += fidelity_plus_single(model, graph, expl.nodes, label)
        minus_total += fidelity_minus_single(model, graph, expl.nodes, label)
        count += 1
    if count == 0:
        return 0.0, 0.0
    return plus_total / count, minus_total / count


__all__ = [
    "fidelity_plus_single",
    "fidelity_minus_single",
    "fidelity_scores",
]
