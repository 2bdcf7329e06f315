"""Graph patterns (§2.1, "Graph Patterns").

A :class:`Pattern` is a small connected graph with typed nodes and
edges; it matches host graphs via node-induced subgraph isomorphism
(see :mod:`repro.matching`). Patterns are the "higher tier" of an
explanation view and must be cheap to deduplicate, so each carries a
Weisfeiler–Lehman-based key (:meth:`Pattern.key`) — collisions are
resolved by an exact isomorphism check in :mod:`repro.matching.canonical`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError, PatternError
from repro.graphs.graph import Graph


class Pattern:
    """A connected, typed graph pattern ``P(V_p, E_p, L_p)``."""

    __slots__ = ("graph", "_key")

    def __init__(self, graph: Graph) -> None:
        if graph.n_nodes == 0:
            raise PatternError("pattern must have at least one node")
        if not graph.is_connected():
            raise PatternError("pattern must be connected")
        self.graph = graph
        self._key: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        node_types: Sequence[int],
        edges: Iterable[Tuple[int, int]] = (),
        directed: bool = False,
        edge_types: Optional[Sequence[int]] = None,
    ) -> "Pattern":
        g = Graph(node_types, directed=directed)
        edges = list(edges)
        if edge_types is None:
            edge_types = [0] * len(edges)
        if len(edge_types) != len(edges):
            raise PatternError("edge_types length must match edges length")
        for (u, v), t in zip(edges, edge_types):
            g.add_edge(u, v, t)
        return cls(g)

    @classmethod
    def singleton(cls, node_type: int) -> "Pattern":
        """One-node pattern; guarantees Psum coverage feasibility."""
        return cls(Graph([node_type]))

    @classmethod
    def from_induced(cls, host: Graph, nodes: Iterable[int]) -> "Pattern":
        """Pattern induced by ``nodes`` of a host graph (types + edges kept)."""
        sub, _ = host.induced_subgraph(nodes)
        # patterns carry no features — only types matter for matching
        stripped = Graph(sub.node_types, directed=sub.directed)
        for u, v, t in sub.edges():
            stripped.add_edge(u, v, t)
        return cls(stripped)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    @property
    def size(self) -> int:
        """Pattern size = nodes + edges (used by MDL and compression)."""
        return self.n_nodes + self.n_edges

    def node_type(self, v: int) -> int:
        return self.graph.node_type(v)

    def key(self) -> str:
        """WL-style refinement key; equal for isomorphic patterns.

        Distinct patterns may (rarely) share a key; exact deduplication
        resolves collisions with an isomorphism test
        (:func:`repro.matching.canonical.deduplicate_patterns`).
        Memoized per object and process-wide per graph content —
        serving paths re-create byte-identical patterns per request,
        and WL refinement is the costliest step of registering one.
        """
        if self._key is None:
            content = self.graph.content_key()
            cached = _WL_KEY_MEMO.get(content)
            if cached is None:
                cached = _wl_key(self.graph)
                if len(_WL_KEY_MEMO) >= _WL_KEY_MEMO_CAP:
                    _WL_KEY_MEMO.clear()
                _WL_KEY_MEMO[content] = cached
            self._key = cached
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.graph == other.graph

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"<Pattern n={self.n_nodes} m={self.n_edges} key={self.key()[:8]}>"


#: process-wide content-key -> WL-key memo (WL is a pure function of
#: graph content); bounded by periodic reset
_WL_KEY_MEMO: Dict[str, str] = {}
_WL_KEY_MEMO_CAP = 100_000


def _wl_key(graph: Graph, iterations: int = 3) -> str:
    """Weisfeiler–Lehman refinement hash with node and edge types.

    Deterministic and order-independent: isomorphic graphs always
    produce the same key.
    """
    colors: List[str] = [str(graph.node_type(v)) for v in graph.nodes()]
    for _ in range(iterations):
        new_colors: List[str] = []
        for v in graph.nodes():
            neigh = []
            for w in sorted(graph.all_neighbors(v)):
                try:
                    etype = graph.edge_type(v, w)
                except GraphError:
                    etype = graph.edge_type(w, v)
                neigh.append(f"{etype}:{colors[w]}")
            neigh.sort()
            signature = colors[v] + "|" + ",".join(neigh)
            new_colors.append(hashlib.sha1(signature.encode()).hexdigest()[:16])
        colors = new_colors
    summary = ",".join(sorted(colors)) + f"#n{graph.n_nodes}#m{graph.n_edges}"
    summary += "#d" if graph.directed else "#u"
    return hashlib.sha1(summary.encode()).hexdigest()


__all__ = ["Pattern"]
