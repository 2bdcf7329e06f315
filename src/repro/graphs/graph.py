"""Attributed, typed graphs (§2.1 of the paper).

A :class:`Graph` is ``G = (V, E, T, L)``: nodes ``0..n-1``, each with an
integer *type* ``L(v)`` (a real-world entity type such as an atom
symbol), an optional feature vector ``T(v)`` (the numeric encoding the
GNN consumes), and typed edges. Graphs may be directed (MALNET-style
call graphs) or undirected (molecules, social threads).

Node ids are contiguous integers; :meth:`Graph.induced_subgraph` returns
the relabelled subgraph together with the mapping back to parent ids so
explanation structures can always be traced to the original graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError

EdgeKey = Tuple[int, int]


def _edge_key(u: int, v: int, directed: bool) -> EdgeKey:
    """Canonical dictionary key for an edge."""
    if directed or u <= v:
        return (u, v)
    return (v, u)


class Graph:
    """An attributed graph with typed nodes and typed edges.

    Parameters
    ----------
    node_types:
        Integer type per node; length defines the node count.
    features:
        Optional ``(n, d)`` float feature matrix. When omitted, a one-hot
        encoding of ``node_types`` is materialized lazily by
        :meth:`feature_matrix`.
    directed:
        Whether edges are directed.
    """

    __slots__ = (
        "node_types",
        "_features",
        "directed",
        "_adj",
        "_radj",
        "edge_types",
        "_content_key",
        "_sym_adj",
    )

    def __init__(
        self,
        node_types: Sequence[int],
        features: Optional[np.ndarray] = None,
        directed: bool = False,
    ) -> None:
        self.node_types = np.asarray(node_types, dtype=np.int64)
        if self.node_types.ndim != 1:
            raise GraphError("node_types must be one-dimensional")
        n = len(self.node_types)
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != n:
                raise GraphError(
                    f"features must have shape ({n}, d), got {features.shape}"
                )
        self._features = features
        self.directed = bool(directed)
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        # reverse adjacency, only maintained for directed graphs
        self._radj: Optional[List[Set[int]]] = (
            [set() for _ in range(n)] if directed else None
        )
        self.edge_types: Dict[EdgeKey, int] = {}
        #: memo for matching.context.graph_content_key (type/edge
        #: digest; features excluded — matching never reads them);
        #: invalidated on mutation
        self._content_key: Optional[str] = None
        #: memo for gnn.batch.symmetrized_adjacency (read-only dense
        #: array shared across verifier launches); invalidated on
        #: mutation like the content key
        self._sym_adj: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, edge_type: int = 0) -> None:
        """Add edge ``(u, v)``; idempotent for repeated identical edges."""
        n = self.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a missing node (n={n})")
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        key = _edge_key(u, v, self.directed)
        existing = self.edge_types.get(key)
        if existing is not None and existing != edge_type:
            raise GraphError(
                f"edge {key} already present with type {existing}, got {edge_type}"
            )
        self.edge_types[key] = edge_type
        self._content_key = None
        self._sym_adj = None
        self._adj[u].add(v)
        if self.directed:
            assert self._radj is not None
            self._radj[v].add(u)
        else:
            self._adj[v].add(u)

    def add_edges(self, edges: Iterable[Tuple[int, int]], edge_type: int = 0) -> None:
        for u, v in edges:
            self.add_edge(u, v, edge_type)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_types)

    @property
    def n_edges(self) -> int:
        return len(self.edge_types)

    def nodes(self) -> range:
        return range(self.n_nodes)

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(u, v, edge_type)`` triples (canonical orientation)."""
        for (u, v), t in self.edge_types.items():
            yield u, v, t

    def node_type(self, v: int) -> int:
        return int(self.node_types[v])

    def edge_type(self, u: int, v: int) -> int:
        key = _edge_key(u, v, self.directed)
        try:
            return self.edge_types[key]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def has_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v, self.directed) in self.edge_types

    def neighbors(self, v: int) -> Set[int]:
        """Out-neighbors for directed graphs; all neighbors otherwise."""
        return self._adj[v]

    def in_neighbors(self, v: int) -> Set[int]:
        if not self.directed:
            return self._adj[v]
        assert self._radj is not None
        return self._radj[v]

    def all_neighbors(self, v: int) -> Set[int]:
        """Neighbors ignoring direction (used by connectivity / k-hop)."""
        if not self.directed:
            return self._adj[v]
        assert self._radj is not None
        return self._adj[v] | self._radj[v]

    def degree(self, v: int) -> int:
        return len(self.all_neighbors(v))

    @property
    def features(self) -> Optional[np.ndarray]:
        return self._features

    def feature_matrix(self, n_types: Optional[int] = None) -> np.ndarray:
        """Feature matrix the GNN consumes.

        Falls back to a one-hot encoding of node types when no explicit
        features were supplied (the paper's default for feature-less
        datasets is a constant feature; one-hot of the single type 0
        degenerates to exactly that).
        """
        if self._features is not None:
            return self._features
        width = n_types if n_types is not None else int(self.node_types.max()) + 1
        onehot = np.zeros((self.n_nodes, width), dtype=np.float64)
        onehot[np.arange(self.n_nodes), self.node_types] = 1.0
        return onehot

    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` 0/1 adjacency (symmetric when undirected)."""
        n = self.n_nodes
        A = np.zeros((n, n), dtype=np.float64)
        for (u, v) in self.edge_types:
            A[u, v] = 1.0
            if not self.directed:
                A[v, u] = 1.0
        return A

    # ------------------------------------------------------------------
    # structure operations
    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", List[int]]:
        """Node-induced subgraph and the list mapping new ids -> old ids."""
        keep = sorted(set(int(v) for v in nodes))
        n = self.n_nodes
        for v in keep:
            if not 0 <= v < n:
                raise GraphError(f"node {v} not in graph (n={n})")
        remap = {old: new for new, old in enumerate(keep)}
        features = None if self._features is None else self._features[keep]
        sub = Graph(self.node_types[keep], features=features, directed=self.directed)
        for (u, v), t in self.edge_types.items():
            if u in remap and v in remap:
                sub.add_edge(remap[u], remap[v], t)
        return sub, keep

    def remove_nodes(self, nodes: Iterable[int]) -> Tuple["Graph", List[int]]:
        """Graph with ``nodes`` deleted (the paper's ``G \\ G_s``)."""
        drop = set(int(v) for v in nodes)
        return self.induced_subgraph(v for v in self.nodes() if v not in drop)

    def connected_components(self) -> List[List[int]]:
        """Weakly connected components, each as a sorted node list."""
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in self.nodes():
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            comp = [start]
            while stack:
                u = stack.pop()
                for w in self.all_neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            components.append(sorted(comp))
        return components

    def is_connected(self) -> bool:
        if self.n_nodes == 0:
            return False
        return len(self.connected_components()) == 1

    def k_hop_nodes(
        self, center: int, hops: int, within: Optional[Set[int]] = None
    ) -> Set[int]:
        """Nodes within ``hops`` (undirected) hops of ``center``, inclusive.

        ``within`` (which must hold ``center``) restricts the walk to the
        subgraph those nodes induce, without building it.
        """
        if not 0 <= center < self.n_nodes:
            raise GraphError(f"node {center} not in graph")
        frontier = {center}
        seen = {center}
        for _ in range(hops):
            nxt: Set[int] = set()
            for u in frontier:
                nxt |= self.all_neighbors(u) - seen
            if within is not None:
                nxt &= within
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return seen

    def is_connected_subset(self, nodes: Iterable[int]) -> bool:
        """Whether ``nodes`` induce a (weakly) connected subgraph."""
        subset = set(int(v) for v in nodes)
        if not subset:
            return False
        start = next(iter(subset))
        stack = [start]
        seen = {start}
        while stack:
            u = stack.pop()
            for w in self.all_neighbors(u):
                if w in subset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == subset

    def content_key(self) -> str:
        """Stable digest of (directed flag, node types, typed edges).

        Two graphs share a key iff they are identical under the
        *identity* node mapping — features excluded (pattern matching
        never reads them). Memoized; mutation via :meth:`add_edge`
        invalidates. The matching tier keys its process-wide caches on
        this (see docs/matching.md).
        """
        if self._content_key is None:
            import hashlib

            h = hashlib.sha1()
            h.update(b"d" if self.directed else b"u")
            h.update(np.ascontiguousarray(self.node_types).tobytes())
            for (u, v), t in sorted(self.edge_types.items()):
                h.update(f"{u},{v},{t};".encode())
            self._content_key = h.hexdigest()
        return self._content_key

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        g = Graph(
            self.node_types.copy(),
            features=None if self._features is None else self._features.copy(),
            directed=self.directed,
        )
        for (u, v), t in self.edge_types.items():
            g.add_edge(u, v, t)
        return g

    def __getstate__(self) -> Dict[str, object]:
        # per-process memos: the content key is tiny (keep it), the
        # dense adjacency memo is n^2 floats — rebuild instead of ship
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_sym_adj"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __eq__(self, other: object) -> bool:
        """Structural equality under the identity node mapping."""
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self.node_types, other.node_types)
            and self.edge_types == other.edge_types
            and (
                (self._features is None and other._features is None)
                or (
                    self._features is not None
                    and other._features is not None
                    and np.array_equal(self._features, other._features)
                )
            )
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        # the unhashable-type protocol requires builtin TypeError:
        # set()/dict use would misreport a ReproError
        raise TypeError(  # repro: noqa[REPRO402]
            "Graph is unhashable; use matching.canonical keys"
        )

    def __repr__(self) -> str:
        kind = "DiGraph" if self.directed else "Graph"
        return f"<{kind} n={self.n_nodes} m={self.n_edges}>"


def graph_from_edges(
    node_types: Sequence[int],
    edges: Iterable[Tuple[int, int]],
    features: Optional[np.ndarray] = None,
    directed: bool = False,
    edge_type: int = 0,
) -> Graph:
    """Convenience constructor from a node-type list and edge list."""
    g = Graph(node_types, features=features, directed=directed)
    g.add_edges(edges, edge_type)
    return g


__all__ = ["Graph", "graph_from_edges"]
