"""Molecular dataset analogues: MUTAGENICITY and PCQM4Mv2 (Table 3).

Both generators plant class-determining functional groups into random
carbon skeletons, mirroring the real datasets' mechanism (mutagenicity
is driven by toxicophores such as the aromatic nitro group — Kazius et
al. 2005, the source of the real MUTAGENICITY labels).

Atom type ids (shared vocabulary, 14 types like the real MUT):
``C=0, N=1, O=2, H=3, Cl=4, F=5, Br=6, S=7, P=8, I=9, Na=10, K=11,
Li=12, Ca=13``. Edge types: ``0`` single bond, ``1`` double bond.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.database import GraphDatabase
from repro.graphs.generators import attach_motif, chain_graph, ring_graph
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng

C, N, O, H, CL, F, BR, S, P, I, NA, K, LI, CA = range(14)
N_ATOM_TYPES = 14

SINGLE, DOUBLE = 0, 1


def nitro_group() -> Graph:
    """NO2 — the classic mutagenicity toxicophore (Fig. 1 / Fig. 10)."""
    g = Graph([N, O, O])
    g.add_edge(0, 1, DOUBLE)
    g.add_edge(0, 2, SINGLE)
    return g


def amine_group() -> Graph:
    """NH2 — aromatic amine, the paper's second mutagen pattern."""
    g = Graph([N, H, H])
    g.add_edge(0, 1, SINGLE)
    g.add_edge(0, 2, SINGLE)
    return g


def methyl_group() -> Graph:
    """CH3 — a benign decoration for the negative class."""
    g = Graph([C, H, H, H])
    g.add_edge(0, 1, SINGLE)
    g.add_edge(0, 2, SINGLE)
    g.add_edge(0, 3, SINGLE)
    return g


def hydroxyl_group() -> Graph:
    """OH-like single oxygen pendant (used by the PCQ classes)."""
    g = Graph([O, H])
    g.add_edge(0, 1, SINGLE)
    return g


def _carbon_skeleton(rng: np.random.Generator, min_size: int, max_size: int) -> Graph:
    """Random chain / ring / ring-with-tail carbon backbone."""
    size = int(rng.integers(min_size, max_size + 1))
    kind = rng.random()
    if kind < 0.4:
        return chain_graph([C] * size)
    if kind < 0.7:
        return ring_graph([C] * max(size, 3))
    ring_size = max(3, size // 2)
    g = ring_graph([C] * ring_size)
    base = g
    tail = chain_graph([C] * max(size - ring_size, 1))
    combined, _ = attach_motif(base, tail, anchor=0, seed=rng)
    return combined


def mutagenicity(
    n_graphs: int = 64,
    min_size: int = 6,
    max_size: int = 14,
    seed: RngLike = 0,
) -> GraphDatabase:
    """MUTAGENICITY analogue: binary, 14 one-hot features.

    Class 1 (mutagen) graphs carry an NO2 or NH2 toxicophore; class 0
    graphs get a benign CH3 decoration (so both classes have pendant
    structure and size alone is uninformative).
    """
    rng = ensure_rng(seed)
    graphs: List[Graph] = []
    labels: List[int] = []
    for i in range(n_graphs):
        label = i % 2
        host = _carbon_skeleton(rng, min_size, max_size)
        anchor = int(rng.integers(0, host.n_nodes))
        if label == 1:
            motif = nitro_group() if rng.random() < 0.6 else amine_group()
        else:
            motif = methyl_group()
        g, _ = attach_motif(host, motif, anchor=anchor, seed=rng)
        graphs.append(_with_onehot(g, N_ATOM_TYPES))
        labels.append(label)
    return GraphDatabase(graphs, labels=labels, name="mutagenicity")


def pcqm4m(
    n_graphs: int = 96,
    min_size: int = 5,
    max_size: int = 10,
    seed: RngLike = 0,
) -> GraphDatabase:
    """PCQM4Mv2 analogue: many small molecules, 9-dim features, 3 classes.

    Classes by functional group: 0 = bare hydrocarbon, 1 = hydroxyl
    (OH), 2 = carbonyl (C=O double bond). Features: one-hot over the
    first 6 atom types plus 3 numeric channels (degree, aromatic-ring
    membership flag, attached-hydrogen count).
    """
    rng = ensure_rng(seed)
    graphs: List[Graph] = []
    labels: List[int] = []
    for i in range(n_graphs):
        label = i % 3
        host = _carbon_skeleton(rng, min_size, max_size)
        anchor = int(rng.integers(0, host.n_nodes))
        if label == 1:
            g, _ = attach_motif(host, hydroxyl_group(), anchor=anchor, seed=rng)
        elif label == 2:
            carbonyl = Graph([C, O])
            carbonyl.add_edge(0, 1, DOUBLE)
            g, _ = attach_motif(host, carbonyl, anchor=anchor, seed=rng)
        else:
            g = host
        graphs.append(_with_pcq_features(g))
        labels.append(label)
    return GraphDatabase(graphs, labels=labels, name="pcqm4m")


def _with_onehot(g: Graph, width: int) -> Graph:
    X = np.zeros((g.n_nodes, width))
    X[np.arange(g.n_nodes), g.node_types] = 1.0
    out = Graph(g.node_types, features=X, directed=g.directed)
    for u, v, t in g.edges():
        out.add_edge(u, v, t)
    return out


def _with_pcq_features(g: Graph) -> Graph:
    """9-dim: one-hot of first 6 types + degree + in-ring flag + H count."""
    n = g.n_nodes
    X = np.zeros((n, 9))
    for v in g.nodes():
        t = g.node_type(v)
        if t < 6:
            X[v, t] = 1.0
        X[v, 6] = g.degree(v) / 4.0
        X[v, 8] = sum(1 for w in g.all_neighbors(v) if g.node_type(w) == H)
    for cycle_nodes in _simple_ring_nodes(g):
        X[cycle_nodes, 7] = 1.0
    out = Graph(g.node_types, features=X, directed=g.directed)
    for u, v, t in g.edges():
        out.add_edge(u, v, t)
    return out


def _simple_ring_nodes(g: Graph) -> List[List[int]]:
    """Nodes on cycles (approximated as nodes with degree >= 2 on a
    cyclic component — exact enough for a feature flag)."""
    cycles = []
    for comp in g.connected_components():
        sub_edges = sum(
            1 for (u, v) in g.edge_types if u in comp and v in comp
        )
        if sub_edges >= len(comp):  # component contains a cycle
            cycles.append([v for v in comp if g.degree(v) >= 2])
    return cycles


__all__ = [
    "mutagenicity",
    "pcqm4m",
    "nitro_group",
    "amine_group",
    "methyl_group",
    "hydroxyl_group",
    "N_ATOM_TYPES",
]
