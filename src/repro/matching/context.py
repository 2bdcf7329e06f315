"""Host match-contexts and pattern match-plans (``PMatch``).

The seed matcher re-derived everything per call: candidate sets from
Python neighbor sets, feasibility from per-pair dict probes. The
production matcher splits that work into two reusable halves:

* :class:`MatchContext` — per-*host* state: node-type and degree
  arrays, adjacency rows as Python ints (out/in rows for directed
  hosts, plus per-edge-type row tables for typed candidate expansion),
  and neighborhood type-signature count arrays. Built once per host
  and shared by every pattern matched against it.
* :class:`MatchPlan` — per-*pattern* state: the matching order, and
  for each position the edge/non-edge constraints against previously
  mapped positions plus the degree and neighborhood type-signature
  requirements used for pruning. Built once per pattern content and
  shared across a whole host database (database-batched ``PMatch``).

Context construction reads the host ``Graph`` directly: node types
and degrees come from the graph, each adjacency row is built from the
node's neighbor sets on first lookup (only nodes actually mapped during
search pay for a row, so no dense ``n x n/64`` table is ever
materialized), and each signature-count array is one pass over the
graph's typed edges.

Both halves only *prune* subtrees that can never produce a match, so
the matcher emits exactly the seed enumeration sequence — the contract
``docs/matching.md`` documents and ``tests/test_matching_parity.py``
checks against the reference in :mod:`repro.reference`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import MatchingError
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern

#: adjacency-row flavors: neighbors ignoring direction, out-neighbors,
#: in-neighbors
KIND_ALL = "all"
KIND_OUT = "out"
KIND_IN = "in"

#: a neighborhood-signature key: ``(direction, edge_type, neighbor
#: type)`` with direction "" for undirected, "o"/"i" for directed
SigKey = Tuple[str, int, int]

#: adjacency rows indexed by host node, each built on first lookup
Rows = Dict[int, int]


def graph_content_key(graph: Graph) -> str:
    """Stable content digest of a host graph.

    Two graphs share a key iff they have identical node types, directed
    flag, and typed edge sets under the identity node mapping — exactly
    when every matcher result against them is interchangeable (features
    are excluded; matching never reads them). Used to key the
    process-wide match-plan cache (``plan_cache.py``), where object
    identity is not safe (ids are recycled) and host graphs may be
    rebuilt per request. Memoized on the graph, invalidated on
    mutation.
    """
    return graph.content_key()


def matching_order(p: Graph) -> List[int]:
    """Visit order where each node (after the first) touches a prior one.

    This is the seed matcher's order (root at the highest-degree node,
    then maximize mapped-degree ties broken by total degree); the
    reference VF2 shares it so candidate trees are identical.
    """
    if p.n_nodes == 0:
        return []
    root = max(p.nodes(), key=lambda v: (p.degree(v), -v))
    order = [root]
    seen = {root}
    frontier: List[int] = sorted(p.all_neighbors(root))
    while frontier:
        nxt = None
        best = (-1, 0)
        for v in frontier:
            mapped_deg = sum(1 for w in p.all_neighbors(v) if w in seen)
            key = (mapped_deg, p.degree(v))
            if key > best:
                best = key
                nxt = v
        assert nxt is not None
        order.append(nxt)
        seen.add(nxt)
        frontier = sorted(
            {w for v in seen for w in p.all_neighbors(v) if w not in seen}
        )
    if len(order) != p.n_nodes:
        raise MatchingError("pattern is disconnected")  # guarded by Pattern
    return order


class _LazyRows(dict):
    """Node -> row int, each row built by ``build(v)`` on first lookup."""

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[int], int]) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, v: int) -> int:
        row = self[v] = self._build(v)
        return row


class MatchContext:
    """Precomputed matching state for one host graph.

    Everything a VF2 run needs that depends only on the host: adjacency
    rows as Python ints (``all``/``out``/``in`` flavors, optionally
    restricted to one edge type), per-plan candidate masks, degree
    arrays, and the neighborhood type-signature count arrays the
    pruning rules consume. Bit ``w`` of a row or mask stands for host
    node ``w``.
    """

    __slots__ = (
        "graph",
        "n",
        "directed",
        "node_types",
        "degrees",
        "_rows",
        "_sig_counts",
        "_type_counts",
        "_compat_cache",
        "_states",
    )

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        n = graph.n_nodes
        self.n = n
        self.directed = graph.directed
        self.node_types = graph.node_types
        self.degrees = np.fromiter(
            (graph.degree(v) for v in range(n)), dtype=np.int64, count=n
        )
        self._sig_counts: Dict[SigKey, np.ndarray] = {}
        self._type_counts: Optional[Dict[int, int]] = None
        self._rows: Dict[Tuple[str, Optional[int]], Rows] = {}
        self._compat_cache: Dict[str, List[int]] = {}
        #: per-plan search tables, memoized by ``isomorphism``
        self._states: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # adjacency rows
    # ------------------------------------------------------------------
    def rows(self, kind: str, etype: Optional[int] = None) -> Rows:
        """Adjacency rows as ints, indexed by host node.

        Row ``v`` of ``kind`` ``"all"`` holds ``v``'s neighbors ignoring
        direction, ``"out"`` holds ``{w : v -> w}`` and ``"in"`` holds
        ``{w : w -> v}`` (on an undirected host all three are the
        neighbors). With ``etype`` only neighbors joined by an edge of
        that type count (in either direction for ``"all"``), so ANDing
        one row into a candidate mask applies an edge *and* its type to
        the whole frontier at once. Memoized per ``(kind, etype)``;
        each row is built from the graph's neighbor sets on its first
        lookup.
        """
        key = (kind, etype)
        table = self._rows.get(key)
        if table is None:
            g = self.graph
            neighbors = {
                KIND_ALL: g.all_neighbors,
                KIND_OUT: g.neighbors,
                KIND_IN: g.in_neighbors,
            }[kind]
            if etype is None:
                build = lambda v: sum(1 << w for w in neighbors(v))
            elif kind == KIND_ALL and g.directed:  # either direction
                out, inc = self.rows(KIND_OUT, etype), self.rows(KIND_IN, etype)
                build = lambda v: out[v] | inc[v]
            elif kind == KIND_IN:  # w -> v edges
                build = lambda v: sum(
                    1 << w for w in neighbors(v) if g.edge_type(w, v) == etype
                )
            else:
                build = lambda v: sum(
                    1 << w for w in neighbors(v) if g.edge_type(v, w) == etype
                )
            table = _LazyRows(build)
            self._rows[key] = table
        return table

    # ------------------------------------------------------------------
    # pruning tables
    # ------------------------------------------------------------------
    def type_counts(self) -> Dict[int, int]:
        """Host node count per node type (cheap match prefilter)."""
        if self._type_counts is None:
            types, counts = np.unique(self.node_types, return_counts=True)
            self._type_counts = {
                int(t): int(c) for t, c in zip(types, counts)
            }
        return self._type_counts

    def sig_counts(self, key: SigKey) -> np.ndarray:
        """Per-node count of typed edges matching one signature key.

        ``key = (direction, edge_type, neighbor_type)``: entry ``v`` is
        the number of edges of type ``edge_type`` that join ``v`` to a
        node of type ``neighbor_type`` — ``v``'s out-edges for
        direction ``"o"``, its in-edges for ``"i"``, and both for
        ``""``. An undirected edge is both an out- and an in-edge, so on
        an undirected host every direction counts each incident edge
        once. A host node is a viable image for a pattern node only
        when, for every key of the pattern node's neighborhood
        signature, the host count is at least the pattern count
        (injective neighbor mapping).
        """
        counts = self._sig_counts.get(key)
        if counts is None:
            direction, etype, ntype = key
            out_side = direction != "i" or not self.directed
            in_side = direction != "o" or not self.directed
            types = self.node_types.tolist()
            tally = [0] * self.n
            for (u, v), t in self.graph.edge_types.items():
                if t != etype:
                    continue
                if out_side and types[v] == ntype:  # u -> v seen from u
                    tally[u] += 1
                if in_side and types[u] == ntype:  # u -> v seen from v
                    tally[v] += 1
            counts = np.array(tally, dtype=np.int64)
            self._sig_counts[key] = counts
        return counts

    def compat(self, plan: "MatchPlan") -> List[int]:
        """Per-position candidate masks (ints) for one plan, memoized.

        Type equality, degree lower bound, and neighborhood-signature
        domination — all the host-only pruning rules, vectorized over
        the whole host then packed to one int per position. Keyed by
        the plan's pattern content digest: the masks depend only on
        host content (this context) and pattern content, so repeated
        matches of the same pattern against this host skip the whole
        derivation.
        """
        key = plan.plan_key()
        masks = self._compat_cache.get(key)
        if masks is None:
            masks = []
            for pos in range(len(plan.order)):
                ok = self.node_types == plan.types[pos]
                if ok.any():
                    ok &= self.degrees >= plan.degrees[pos]
                for sig, need in plan.sigs[pos]:
                    if not ok.any():
                        break
                    ok &= self.sig_counts(sig) >= need
                masks.append(
                    int.from_bytes(
                        np.packbits(ok, bitorder="little").tobytes(), "little"
                    )
                )
            self._compat_cache[key] = masks
        return masks


class MatchPlan:
    """Precomputed matching schedule for one pattern.

    Mirrors exactly what the seed backtracking derives on the fly:
    the matching order, and per position the (non-)adjacency and
    edge-type constraints against previously mapped positions. Adds the
    pruning tables (degree bounds, neighborhood type signatures) the
    matcher applies host-side.
    """

    __slots__ = (
        "pattern",
        "order",
        "types",
        "degrees",
        "sigs",
        "adj",
        "nonadj",
        "dir_cons",
        "type_needs",
        "_key",
    )

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self._key: Optional[str] = None
        p = pattern.graph
        order = matching_order(p)
        self.order = order
        k = len(order)
        self.types = [p.node_type(v) for v in order]
        self.degrees = [p.degree(v) for v in order]

        # neighborhood signatures per position
        self.sigs: List[List[Tuple[SigKey, int]]] = []
        for v in order:
            need: Dict[SigKey, int] = {}
            if p.directed:
                for w in p.neighbors(v):
                    key = ("o", p.edge_type(v, w), p.node_type(w))
                    need[key] = need.get(key, 0) + 1
                for w in p.in_neighbors(v):
                    key = ("i", p.edge_type(w, v), p.node_type(w))
                    need[key] = need.get(key, 0) + 1
            else:
                for w in p.neighbors(v):
                    key = ("", p.edge_type(v, w), p.node_type(w))
                    need[key] = need.get(key, 0) + 1
            self.sigs.append(sorted(need.items()))

        # per-position constraints against previously mapped positions
        pos_of = {v: i for i, v in enumerate(order)}
        #: undirected: (prev position, edge type) for pattern edges
        self.adj: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
        #: undirected: prev positions with no pattern edge
        self.nonadj: List[List[int]] = [[] for _ in range(k)]
        #: directed: (prev position, fwd edge type or None, bwd edge
        #: type or None) where fwd is ``order[i] -> order[j]``
        self.dir_cons: List[
            List[Tuple[int, Optional[int], Optional[int]]]
        ] = [[] for _ in range(k)]
        for i, pv in enumerate(order):
            for j in range(i):
                qv = order[j]
                if p.directed:
                    fwd = (
                        p.edge_type(pv, qv) if qv in p.neighbors(pv) else None
                    )
                    bwd = (
                        p.edge_type(qv, pv) if pv in p.neighbors(qv) else None
                    )
                    self.dir_cons[i].append((j, fwd, bwd))
                else:
                    if p.has_edge(pv, qv):
                        self.adj[i].append((j, p.edge_type(pv, qv)))
                    else:
                        self.nonadj[i].append(j)

        #: node count needed per type (cheap host prefilter)
        needs: Dict[int, int] = {}
        for t in self.types:
            needs[t] = needs.get(t, 0) + 1
        self.type_needs = needs

    def plan_key(self) -> str:
        """Pattern content digest — keys per-host mask caches."""
        if self._key is None:
            self._key = self.pattern.graph.content_key()
        return self._key

    def host_can_match(self, ctx: MatchContext) -> bool:
        """Cheap prefilter: does the host have enough nodes per type?"""
        if len(self.order) > ctx.n:
            return False
        counts = ctx.type_counts()
        return all(
            counts.get(t, 0) >= need for t, need in self.type_needs.items()
        )


__all__ = [
    "KIND_ALL",
    "KIND_IN",
    "KIND_OUT",
    "MatchContext",
    "MatchPlan",
    "SigKey",
    "graph_content_key",
    "matching_order",
]
