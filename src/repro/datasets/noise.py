"""Noise injection for robustness studies.

The paper's classifiers are imperfect on real data (the explanations
are built on *predicted* labels); synthetic generators are separable by
construction, so these utilities re-introduce realistic imperfection:

* :func:`with_label_noise` — flip a fraction of ground-truth labels
  (the classifier then trains to an imperfect decision boundary);
* :func:`with_edge_noise` — rewire a fraction of edges per graph
  (motifs survive but topology gets realistic clutter).
"""

from __future__ import annotations

from typing import List

from repro.exceptions import DatasetError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng


def with_label_noise(
    db: GraphDatabase, fraction: float, seed: RngLike = 0
) -> GraphDatabase:
    """A copy of ``db`` with ``fraction`` of labels flipped uniformly."""
    if not 0.0 <= fraction <= 1.0:
        raise DatasetError(f"fraction must be in [0, 1], got {fraction}")
    if db.labels is None:
        raise DatasetError("database has no labels to perturb")
    rng = ensure_rng(seed)
    classes = sorted(set(db.labels), key=repr)
    if len(classes) < 2 or fraction == 0.0:
        return GraphDatabase(db.graphs, labels=list(db.labels), name=db.name)
    n_flip = int(round(fraction * len(db)))
    flip_at = set(rng.choice(len(db), size=n_flip, replace=False).tolist())
    labels = []
    for i, label in enumerate(db.labels):
        if i in flip_at:
            others = [c for c in classes if c != label]
            labels.append(others[int(rng.integers(0, len(others)))])
        else:
            labels.append(label)
    return GraphDatabase(db.graphs, labels=labels, name=f"{db.name}+labelnoise")


def with_edge_noise(
    db: GraphDatabase, fraction: float, seed: RngLike = 0
) -> GraphDatabase:
    """A copy of ``db`` where each graph has ``fraction`` of its edge
    count added as random extra edges (existing edges are kept, so the
    planted class motifs remain intact as *subgraphs* — though no longer
    necessarily induced)."""
    if not 0.0 <= fraction <= 1.0:
        raise DatasetError(f"fraction must be in [0, 1], got {fraction}")
    rng = ensure_rng(seed)
    graphs: List[Graph] = []
    for g in db.graphs:
        noisy = g.copy()
        target = int(round(fraction * g.n_edges))
        added = 0
        attempts = 0
        n = g.n_nodes
        while added < target and attempts < 20 * max(target, 1) and n >= 2:
            attempts += 1
            u, v = rng.integers(0, n, size=2)
            if u != v and not noisy.has_edge(int(u), int(v)):
                noisy.add_edge(int(u), int(v))
                added += 1
        graphs.append(noisy)
    labels = None if db.labels is None else list(db.labels)
    return GraphDatabase(graphs, labels=labels, name=f"{db.name}+edgenoise")


__all__ = ["with_label_noise", "with_edge_noise"]
