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
  requirements used for pruning. Built once per canonical pattern and
  shared across a whole host database (database-batched ``PMatch``).

Context construction runs on the columnar CSR layout
(``repro.graphs.columnar``, docs/columnar.md): type and degree arrays
are zero-copy slices of the group arrays, rows come from the group's
shared packed-row table (or one ``bitwise_or.at`` scatter over the
slice) converted to ints on first use, and signature counts are a
masked ``bincount`` — single vectorized passes instead of per-host
Python loops. Hosts that never joined a database go through the same
code path via an on-the-fly single-graph slice.

Hosts above :data:`MatchContext.LAZY_ROW_THRESHOLD` nodes build each
row on demand from the graph's neighbor sets (only nodes actually
mapped during search pay for a row), so contexts stay usable on
SYNTHETIC-scale hosts where a dense ``n x n/64`` row table would not
fit.

Both halves only *prune* subtrees that can never produce a match, so
the matcher emits exactly the seed enumeration sequence — the contract
``docs/matching.md`` documents and ``tests/test_matching_parity.py``
checks against the reference in :mod:`repro.reference`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import MatchingError
from repro.graphs.columnar import (
    KIND_ALL,
    KIND_IN,
    KIND_OUT,
    GraphSlice,
    columnar_slice_of,
)
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern

#: a neighborhood-signature key: ``(direction, edge_type, neighbor
#: type)`` with direction "" for undirected, "o"/"i" for directed
SigKey = Tuple[str, int, int]

#: adjacency rows indexed by host node: a list on eager contexts, a
#: build-on-lookup dict on lazy ones
Rows = Union[List[int], Dict[int, int]]


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


def _row_ints(table: np.ndarray) -> List[int]:
    """Packed ``(n, words)`` uint64 rows as Python ints (bit ``w`` is
    node ``w``, the little-endian word order of the packed layout)."""
    if table.shape[1] == 1:
        return table[:, 0].tolist()
    raw = table.astype("<u8").tobytes()
    step = 8 * table.shape[1]
    return [
        int.from_bytes(raw[i : i + step], "little")
        for i in range(0, len(raw), step)
    ]


class MatchContext:
    """Precomputed matching state for one host graph.

    Everything a VF2 run needs that depends only on the host: adjacency
    rows as Python ints (``all``/``out``/``in`` flavors, optionally
    restricted to one edge type), per-plan candidate masks, degree
    arrays, and the neighborhood type-signature count arrays the
    pruning rules consume. Bit ``w`` of a row or mask stands for host
    node ``w``.
    """

    #: hosts with more nodes than this build adjacency rows lazily
    LAZY_ROW_THRESHOLD = 4096

    __slots__ = (
        "graph",
        "n",
        "directed",
        "node_types",
        "degrees",
        "_slice",
        "_lazy",
        "_row_ids",
        "_rows",
        "_sig_counts",
        "_type_counts",
        "_compat_cache",
        "_states",
    )

    def __init__(
        self, graph: Graph, columnar: Optional[GraphSlice] = None
    ) -> None:
        self.graph = graph
        n = graph.n_nodes
        self.n = n
        self.directed = graph.directed
        self._lazy = n > self.LAZY_ROW_THRESHOLD
        self._sig_counts: Dict[SigKey, np.ndarray] = {}
        self._type_counts: Optional[Dict[int, int]] = None
        self._row_ids: Dict[str, np.ndarray] = {}
        self._rows: Dict[Tuple[str, Optional[int]], Rows] = {}
        self._compat_cache: Dict[str, List[int]] = {}
        #: per-plan search tables, memoized by ``isomorphism``
        self._states: Dict[str, object] = {}
        if columnar is not None and columnar.content_key != graph.content_key():
            columnar = None  # stale slice: the graph mutated since the build
        if columnar is None and not self._lazy:
            columnar = columnar_slice_of(graph)
        self._slice = columnar
        if columnar is not None:
            # zero-copy views of the columnar group arrays
            self.node_types = columnar.node_type
            self.degrees = columnar.degrees()
        else:
            self.node_types = np.asarray(graph.node_types, dtype=np.int64)
            self.degrees = np.fromiter(
                (graph.degree(v) for v in range(n)), dtype=np.int64, count=n
            )

    # ------------------------------------------------------------------
    # adjacency rows
    # ------------------------------------------------------------------
    def _slice_row_ids(self, kind: str) -> np.ndarray:
        """Memoized per-entry source-node ids of one CSR flavor."""
        rid = self._row_ids.get(kind)
        if rid is None:
            assert self._slice is not None
            rid = self._slice.row_ids(kind)
            self._row_ids[kind] = rid
        return rid

    def _scatter(self, kind: str, etype: Optional[int]) -> np.ndarray:
        """Packed ``(n, words)`` rows from one CSR flavor of the slice.

        Untyped rows reuse the columnar group's shared row table when
        it exists (zero-copy view); otherwise one ``bitwise_or.at``
        scatter over the slice arrays.
        """
        sl = self._slice
        assert sl is not None
        words = max((self.n + 63) >> 6, 1)
        if etype is None:
            rows = sl.rows(kind)
            if rows is not None and rows.shape[1] == words:
                return rows
        cols = sl.indices(kind)
        row_ids = self._slice_row_ids(kind)
        if etype is not None:
            sel = sl.etypes(kind) == etype
            cols = cols[sel]
            row_ids = row_ids[sel]
        table = np.zeros((self.n, words), dtype=np.uint64)
        np.bitwise_or.at(
            table,
            (row_ids, cols >> np.int64(6)),
            np.uint64(1) << (cols & np.int64(63)).astype(np.uint64),
        )
        return table

    def _lazy_rows(self, kind: str, etype: Optional[int]) -> Rows:
        """Rows built per node from the graph's neighbor sets."""
        g = self.graph
        neighbors = {
            KIND_ALL: g.all_neighbors,
            KIND_OUT: g.neighbors,
            KIND_IN: g.in_neighbors,
        }[kind]
        if etype is None:
            return _LazyRows(lambda v: sum(1 << w for w in neighbors(v)))
        if kind == KIND_IN:  # w -> v edges
            return _LazyRows(
                lambda v: sum(
                    1 << w for w in neighbors(v) if g.edge_type(w, v) == etype
                )
            )
        return _LazyRows(
            lambda v: sum(
                1 << w for w in neighbors(v) if g.edge_type(v, w) == etype
            )
        )

    def rows(self, kind: str, etype: Optional[int] = None) -> Rows:
        """Adjacency rows as ints, indexed by host node.

        Row ``v`` of ``kind`` ``"all"`` holds ``v``'s neighbors ignoring
        direction, ``"out"`` holds ``{w : v -> w}`` and ``"in"`` holds
        ``{w : w -> v}``. With ``etype`` only edges of that type count,
        so ANDing one row into a candidate mask applies an edge *and*
        its type to the whole frontier at once. Memoized per ``(kind,
        etype)``; hosts above :data:`LAZY_ROW_THRESHOLD` nodes build
        each row on first use, so no dense table is ever materialized
        on SYNTHETIC-scale hosts.
        """
        key = (kind, etype)
        table = self._rows.get(key)
        if table is None:
            if self._lazy:
                table = self._lazy_rows(kind, etype)
            else:
                table = _row_ints(self._scatter(kind, etype))
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
        """Per-node count of neighbors matching one signature key.

        ``key = (direction, edge_type, neighbor_type)``; a host node is
        a viable image for a pattern node only when, for every key of
        the pattern node's neighborhood signature, the host count is at
        least the pattern count (injective neighbor mapping).
        """
        counts = self._sig_counts.get(key)
        if counts is None:
            direction, etype, ntype = key
            kind = self._typed_kind(direction)
            if self._slice is not None and kind is not None:
                # a view of the group-level table: one masked bincount
                # covers every graph in the label group at once
                counts = self._slice.sig_counts(kind, etype, ntype)
                self._sig_counts[key] = counts
                return counts
            counts = np.zeros(self.n, dtype=np.int64)
            for (u, v), t in self.graph.edge_types.items():
                if t != etype:
                    continue
                if direction == "":  # undirected: count both endpoints
                    if self.node_types[v] == ntype:
                        counts[u] += 1
                    if self.node_types[u] == ntype:
                        counts[v] += 1
                elif direction == "o":  # u -> v seen from u
                    if self.node_types[v] == ntype:
                        counts[u] += 1
                else:  # "i": u -> v seen from v
                    if self.node_types[u] == ntype:
                        counts[v] += 1
            self._sig_counts[key] = counts
        return counts

    def _typed_kind(self, direction: str) -> Optional[str]:
        """CSR flavor carrying reliable edge types for one direction.

        ``None`` when the slice cannot answer the key bit-identically:
        the undirected key on a directed host (the deduplicated union
        drops types) and directional keys on an undirected host (the
        per-edge loop counts canonical orientations only there) both
        fall back to that loop.
        """
        if direction == "":
            return KIND_ALL if not self.directed else None
        if not self.directed:
            return None
        return KIND_OUT if direction == "o" else KIND_IN

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
    "MatchContext",
    "MatchPlan",
    "SigKey",
    "graph_content_key",
    "matching_order",
]
