"""Low-level random graph builders.

These are the structural primitives the dataset generators
(:mod:`repro.datasets`) compose: chains, rings, trees, Barabási–Albert
graphs, stochastic block models, stars, bicliques, and motif
attachment. All functions are deterministic given a seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.utils.rng import RngLike, ensure_rng


def chain_graph(node_types: Sequence[int], edge_type: int = 0) -> Graph:
    """Path graph with the given node types."""
    g = Graph(node_types)
    for i in range(len(node_types) - 1):
        g.add_edge(i, i + 1, edge_type)
    return g


def ring_graph(node_types: Sequence[int], edge_type: int = 0) -> Graph:
    """Cycle graph with the given node types (needs >= 3 nodes)."""
    n = len(node_types)
    if n < 3:
        raise GraphError(f"ring needs >= 3 nodes, got {n}")
    g = chain_graph(node_types, edge_type)
    g.add_edge(n - 1, 0, edge_type)
    return g


def star_graph(n_leaves: int, center_type: int = 0, leaf_type: int = 0) -> Graph:
    """Star with one center and ``n_leaves`` leaves."""
    g = Graph([center_type] + [leaf_type] * n_leaves)
    for i in range(1, n_leaves + 1):
        g.add_edge(0, i)
    return g


def biclique_graph(n_left: int, n_right: int, left_type: int = 0, right_type: int = 0) -> Graph:
    """Complete bipartite graph K(n_left, n_right)."""
    g = Graph([left_type] * n_left + [right_type] * n_right)
    for i in range(n_left):
        for j in range(n_right):
            g.add_edge(i, n_left + j)
    return g


def house_motif(node_type: int = 0) -> Graph:
    """The 5-node "house": a square with a triangular roof (PyG motif)."""
    g = Graph([node_type] * 5)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]:
        g.add_edge(u, v)
    return g


def cycle_motif(length: int = 6, node_type: int = 0) -> Graph:
    """A simple cycle motif of the given length."""
    return ring_graph([node_type] * length)


def random_tree(
    n: int,
    node_types: Optional[Sequence[int]] = None,
    seed: RngLike = None,
) -> Graph:
    """Uniform random recursive tree on ``n`` nodes."""
    rng = ensure_rng(seed)
    types = list(node_types) if node_types is not None else [0] * n
    if len(types) != n:
        raise GraphError("node_types length must equal n")
    g = Graph(types)
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        g.add_edge(parent, v)
    return g


def barabasi_albert(
    n: int,
    m: int,
    node_type: int = 0,
    seed: RngLike = None,
) -> Graph:
    """Barabási–Albert preferential attachment graph (the SYN base)."""
    if m < 1 or m >= n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = ensure_rng(seed)
    g = Graph([node_type] * n)
    # start from a star on m+1 nodes so every new node has m targets
    targets: List[int] = list(range(m))
    repeated: List[int] = []
    for v in range(m, n):
        chosen = set()
        pool = repeated if repeated else targets
        while len(chosen) < m:
            chosen.add(int(pool[int(rng.integers(0, len(pool)))]))
        for t in chosen:
            if not g.has_edge(v, t):
                g.add_edge(v, t)
            repeated.extend([v, t])
        targets.append(v)
    return g


def erdos_renyi(
    n: int,
    p: float,
    node_type: int = 0,
    seed: RngLike = None,
    directed: bool = False,
) -> Graph:
    """G(n, p) random graph."""
    rng = ensure_rng(seed)
    g = Graph([node_type] * n, directed=directed)
    for u in range(n):
        lo = 0 if directed else u + 1
        for v in range(lo, n):
            if u == v:
                continue
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def stochastic_block_model(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    seed: RngLike = None,
) -> Tuple[Graph, np.ndarray]:
    """SBM graph and the block id of each node (PRODUCTS base graph)."""
    rng = ensure_rng(seed)
    blocks = np.concatenate(
        [np.full(size, b, dtype=np.int64) for b, size in enumerate(block_sizes)]
    )
    n = len(blocks)
    g = Graph([0] * n)
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if blocks[u] == blocks[v] else p_out
            if rng.random() < p:
                g.add_edge(u, v)
    return g, blocks


def disjoint_union(parts: Sequence[Graph]) -> Tuple[Graph, List[List[int]]]:
    """Disjoint union; returns the union and each part's node ids in it."""
    if not parts:
        raise GraphError("disjoint_union needs at least one graph")
    directed = parts[0].directed
    if any(p.directed != directed for p in parts):
        raise GraphError("cannot union directed and undirected graphs")
    types = np.concatenate([p.node_types for p in parts])
    feats = None
    if all(p.features is not None for p in parts):
        widths = {p.features.shape[1] for p in parts}  # type: ignore[union-attr]
        if len(widths) == 1:
            feats = np.vstack([p.features for p in parts])  # type: ignore[list-item]
    g = Graph(types, features=feats, directed=directed)
    offsets: List[List[int]] = []
    base = 0
    for p in parts:
        ids = list(range(base, base + p.n_nodes))
        offsets.append(ids)
        for u, v, t in p.edges():
            g.add_edge(base + u, base + v, t)
        base += p.n_nodes
    return g, offsets


def attach_motif(
    host: Graph,
    motif: Graph,
    anchor: int,
    seed: RngLike = None,
) -> Tuple[Graph, List[int]]:
    """Attach ``motif`` to ``host`` by one edge from ``anchor``.

    Returns the combined graph and the motif's node ids inside it. The
    bridge edge connects ``anchor`` to a random motif node, so the motif
    stays intact as an induced subgraph (the planted ground truth the
    case-study benches recover).
    """
    rng = ensure_rng(seed)
    combined, parts = disjoint_union([host, motif])
    motif_ids = parts[1]
    entry = motif_ids[int(rng.integers(0, len(motif_ids)))]
    combined.add_edge(anchor, entry)
    return combined, motif_ids


__all__ = [
    "chain_graph",
    "ring_graph",
    "star_graph",
    "biclique_graph",
    "house_motif",
    "cycle_motif",
    "random_tree",
    "barabasi_albert",
    "erdos_renyi",
    "stochastic_block_model",
    "disjoint_union",
    "attach_motif",
]
