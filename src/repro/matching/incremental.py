"""Incremental pattern matching — the paper's ``IncPMatch`` operator (§5).

Maintains pattern coverage over a host graph that grows one node at a
time (StreamGVEX's node stream). The key observation: a *new* match
created by node ``v``'s arrival must contain ``v``, and since patterns
are connected with at most ``s`` nodes, all of its nodes lie within
``s - 1`` hops of ``v``. So each update only re-matches patterns inside
that neighborhood instead of the whole seen graph (the role the paper
delegates to streaming matchers like TurboFlux).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.canonical import pattern_identity
from repro.matching.isomorphism import find_isomorphisms
from repro.exceptions import ValidationError


class IncrementalMatcher:
    """Streaming coverage of registered patterns over a growing host.

    ``add_node`` appends a node (with edges to already-present nodes)
    to the internal host graph and updates every registered pattern's
    covered-node/edge sets by matching only in the new node's
    neighborhood.
    """

    def __init__(self, directed: bool = False, match_cap: int = 10_000) -> None:
        self.directed = directed
        self.match_cap = match_cap
        self._types: List[int] = []
        self._edges: Dict[Tuple[int, int], int] = {}
        self._adj: List[Set[int]] = []
        self._patterns: List[Pattern] = []
        self._identity: Dict[str, List[Pattern]] = {}
        self._covered_nodes: Dict[Pattern, Set[int]] = {}
        self._covered_edges: Dict[Pattern, Set[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._types)

    def host_graph(self) -> Graph:
        """Snapshot of the seen host graph."""
        g = Graph(self._types, directed=self.directed)
        for (u, v), t in self._edges.items():
            g.add_edge(u, v, t)
        return g

    # ------------------------------------------------------------------
    def register(self, pattern: Pattern) -> Pattern:
        """Track a pattern; returns its canonical representative.

        Coverage for the already-seen host is computed immediately so
        registration order does not affect results.
        """
        canon = pattern_identity(pattern, self._identity)
        if canon not in self._covered_nodes:
            self._patterns.append(canon)
            self._covered_nodes[canon] = set()
            self._covered_edges[canon] = set()
            if self.n_nodes:
                self._match_into(canon, self.host_graph(), list(range(self.n_nodes)))
        return canon

    def add_node(
        self, node_type: int, edges: Sequence[Tuple[int, int]] = ()
    ) -> int:
        """Append a node; ``edges`` are ``(existing_node, edge_type)`` pairs.

        Returns the new node's id. Updates all registered patterns.
        """
        v = len(self._types)
        self._types.append(int(node_type))
        self._adj.append(set())
        for u, etype in edges:
            if not 0 <= u < v:
                raise ValidationError(f"edge endpoint {u} not yet in stream (v={v})")
            key = (u, v) if (self.directed or u <= v) else (v, u)
            # stream edges always point from an existing node to the new one
            self._edges[(u, v) if self.directed else key] = int(etype)
            self._adj[u].add(v)
            self._adj[v].add(u)
        if self._patterns:
            self._update_for_new_node(v)
        return v

    # ------------------------------------------------------------------
    def covered_nodes(self, pattern: Pattern) -> Set[int]:
        canon = pattern_identity(pattern, self._identity)
        return set(self._covered_nodes.get(canon, set()))

    def covered_edges(self, pattern: Pattern) -> Set[Tuple[int, int]]:
        canon = pattern_identity(pattern, self._identity)
        return set(self._covered_edges.get(canon, set()))

    def union_covered_nodes(self) -> Set[int]:
        out: Set[int] = set()
        for nodes in self._covered_nodes.values():
            out |= nodes
        return out

    # ------------------------------------------------------------------
    def _update_for_new_node(self, v: int) -> None:
        max_size = max(p.n_nodes for p in self._patterns)
        hood = self._neighborhood(v, max_size - 1)
        local = sorted(hood)
        remap = {old: new for new, old in enumerate(local)}
        sub = Graph([self._types[u] for u in local], directed=self.directed)
        for (a, b), t in self._edges.items():
            if a in remap and b in remap:
                sub.add_edge(remap[a], remap[b], t)
        for pattern in self._patterns:
            self._match_into(pattern, sub, local, must_include=remap[v])

    def _match_into(
        self,
        pattern: Pattern,
        host: Graph,
        local_to_global: Sequence[int],
        must_include: Optional[int] = None,
    ) -> None:
        nodes = self._covered_nodes[pattern]
        edges = self._covered_edges[pattern]
        count = 0
        for mapping in find_isomorphisms(pattern, host):
            count += 1
            if must_include is not None and must_include not in mapping.values():
                if count >= self.match_cap:
                    break
                continue
            for hv in mapping.values():
                nodes.add(local_to_global[hv])
            for (pu, pv) in pattern.graph.edge_types:
                gu = local_to_global[mapping[pu]]
                gv = local_to_global[mapping[pv]]
                if not self.directed and gu > gv:
                    gu, gv = gv, gu
                edges.add((gu, gv))
            if count >= self.match_cap:
                break

    def _neighborhood(self, v: int, hops: int) -> Set[int]:
        seen = {v}
        frontier = {v}
        for _ in range(max(hops, 0)):
            nxt: Set[int] = set()
            for u in frontier:
                nxt |= self._adj[u] - seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return seen


__all__ = ["IncrementalMatcher"]
