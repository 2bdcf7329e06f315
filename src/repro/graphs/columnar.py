"""Columnar CSR storage for graph databases (the matcher's host layout).

A :class:`ColumnarDatabase` re-materializes a
:class:`~repro.graphs.database.GraphDatabase` as one contiguous CSR per
label group — ``indptr`` / ``indices`` / ``edge_type`` / ``node_type``
arrays plus per-graph offset tables, the ``csc_sampling_graph``-style
layout GNN dataloaders use. Neighbor ids are stored **graph-local**
(neighbor minus the graph's node offset), so a per-graph slice of the
group arrays is directly a standalone CSR: consumers read zero-copy
views instead of walking Python edge dicts per host.

Three flavors are kept per graph:

* ``all`` — the direction-ignoring neighbor union, ascending per node.
  For undirected graphs this carries the aligned edge-type column; for
  directed graphs the union is deduplicated (a reciprocal pair counts
  one neighbor, matching ``Graph.degree``) and the type column is a
  ``-1`` placeholder — typed questions on directed hosts go through
  the directional flavors.
* ``out`` / ``in`` — directional CSR/CSC with aligned edge types, built
  only for groups containing a directed graph (undirected members
  reuse their ``all`` arrays there).

Who consumes it:

* ``matching.MatchContext`` builds its node-type/degree arrays, packed
  adjacency rows, and signature counts from a slice in a few vectorized
  passes (``plan_cache.contexts_for_group`` builds a whole label
  group's contexts through one shared packed-row table);
* ``gnn.batch`` scatters whole-shard ``(B, n, n)`` adjacency batches
  straight from the CSR for stacked database forwards;
* ``gnn.sparse`` assembles block-diagonal shard operators without
  re-walking edge dicts.

The layout is **build-time content**: graphs are mutable, so every
slice records the graph's content key at build time and consumers call
:meth:`ColumnarDatabase.fresh_slice` (a memoized-hash string compare)
before trusting a slice; a stale slice simply falls back to the
per-graph construction path. ``GraphDatabase.columnar()`` memoizes one
instance per database and ``GraphDatabase.extend`` /
``ViewIndex.extend_db`` patch it incrementally — appended chunks are
columnarized and concatenated onto the group arrays without touching
(or re-reading) the existing prefix. See docs/columnar.md.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DatasetError
from repro.graphs.graph import Graph

#: groups whose widest member exceeds this node count do not
#: materialize the shared packed-row table (mirrors the lazy-row
#: policy of ``matching.MatchContext``: no dense ``n x n/64`` tables
#: on SYNTHETIC-scale hosts)
ROW_TABLE_MAX_NODES = 4096

#: CSR flavors stored per graph
KIND_ALL = "all"
KIND_OUT = "out"
KIND_IN = "in"


def edge_index_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, t)`` int64 arrays of a graph's canonical edge triples.

    One ``fromiter`` pass over the edge dict — the single remaining
    touch of Python-object storage when columnarizing; everything
    downstream is array ops.
    """
    m = graph.n_edges
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    flat = np.fromiter(
        (x for (u, v), t in graph.edge_types.items() for x in (u, v, t)),
        dtype=np.int64,
        count=3 * m,
    ).reshape(m, 3)
    return (
        np.ascontiguousarray(flat[:, 0]),
        np.ascontiguousarray(flat[:, 1]),
        np.ascontiguousarray(flat[:, 2]),
    )


def _csr_from_pairs(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    types: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local CSR ``(indptr, indices, etype)`` with ascending columns."""
    order = np.lexsort((cols, rows))
    cols = cols[order]
    if types is None:
        types = np.full(len(cols), -1, dtype=np.int64)
    else:
        types = types[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols, types


def _graph_columns(graph: Graph) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-flavor local CSR arrays for one graph."""
    n = graph.n_nodes
    u, v, t = edge_index_arrays(graph)
    if not graph.directed:
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        tt = np.concatenate([t, t])
        all_csr = _csr_from_pairs(n, rows, cols, tt)
        return {KIND_ALL: all_csr, KIND_OUT: all_csr, KIND_IN: all_csr}
    out_csr = _csr_from_pairs(n, u, v, t)
    in_csr = _csr_from_pairs(n, v, u, t)
    # direction-ignoring union, deduplicated so reciprocal edge pairs
    # count one neighbor (Graph.degree semantics)
    width = np.int64(max(n, 1))
    code = np.unique(np.concatenate([u, v]) * width + np.concatenate([v, u]))
    all_csr = (
        np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(np.bincount(code // width, minlength=n))]
        ),
        code % width,
        np.full(code.size, -1, dtype=np.int64),
    )
    return {KIND_ALL: all_csr, KIND_OUT: out_csr, KIND_IN: in_csr}


class GraphSlice:
    """Zero-copy per-graph view into a :class:`ColumnarGroup`.

    ``indptr(kind)`` is the graph-local CSR pointer (a small subtract
    of the global slice); ``indices``/``etypes``/``degrees``/``rows``
    are views into the group arrays.
    """

    __slots__ = ("group", "pos", "n", "directed", "content_key")

    def __init__(self, group: "ColumnarGroup", pos: int) -> None:
        self.group = group
        self.pos = pos
        self.n = int(group.node_offset[pos + 1] - group.node_offset[pos])
        self.directed = bool(group.directed[pos])
        self.content_key = group.content_keys[pos]

    # ------------------------------------------------------------------
    @property
    def node_type(self) -> np.ndarray:
        o = self.group.node_offset
        return self.group.node_type[o[self.pos] : o[self.pos + 1]]

    def indptr(self, kind: str = KIND_ALL) -> np.ndarray:
        """Graph-local CSR pointer array (length ``n + 1``)."""
        o = self.group.node_offset
        glob = self.group.indptr(kind)[o[self.pos] : o[self.pos + 1] + 1]
        return glob - glob[0] if len(glob) and glob[0] else glob

    def indices(self, kind: str = KIND_ALL) -> np.ndarray:
        """Graph-local neighbor ids, ascending per node (a view)."""
        lo, hi = self.group.edge_bounds(self.pos, kind)
        return self.group.indices(kind)[lo:hi]

    def etypes(self, kind: str = KIND_ALL) -> np.ndarray:
        """Edge types aligned with :meth:`indices` (a view).

        ``-1`` placeholders on the directed ``all`` flavor — typed
        reads there go through ``out``/``in``.
        """
        lo, hi = self.group.edge_bounds(self.pos, kind)
        return self.group.etypes(kind)[lo:hi]

    def degrees(self, kind: str = KIND_ALL) -> np.ndarray:
        """Per-node neighbor counts (``all`` equals ``Graph.degree``)."""
        o = self.group.node_offset
        return self.group.degree_table(kind)[o[self.pos] : o[self.pos + 1]]

    def row_ids(self, kind: str = KIND_ALL) -> np.ndarray:
        """Local source-node id per CSR entry (for bincount scatters)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees(kind))

    def rows(self, kind: str = KIND_ALL) -> Optional[np.ndarray]:
        """Packed ``(n, n_words)`` bitset rows, from the shared group
        table when the group is small enough (``None`` otherwise)."""
        return self.group.rows_of(self.pos, kind)

    def sig_counts(self, kind: str, etype: int, ntype: int) -> np.ndarray:
        """Per-node count of ``(etype, ntype)`` neighbors (a view).

        Sliced out of the group-level signature table, so the masked
        bincount is paid once per group, not once per graph."""
        o = self.group.node_offset
        table = self.group.sig_table(kind, etype, ntype)
        return table[o[self.pos] : o[self.pos + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GraphSlice pos={self.pos} n={self.n} directed={self.directed}>"


class ColumnarGroup:
    """One label group's contiguous columnar arrays."""

    def __init__(self, db_indices: Sequence[int], graphs: Sequence[Graph]) -> None:
        self.db_indices: List[int] = [int(i) for i in db_indices]
        self.content_keys: List[str] = []
        self.directed = np.zeros(0, dtype=bool)
        self.node_offset = np.zeros(1, dtype=np.int64)
        self.node_type = np.zeros(0, dtype=np.int64)
        self.any_directed = False
        self._indptr: Dict[str, np.ndarray] = {
            KIND_ALL: np.zeros(1, dtype=np.int64)
        }
        self._indices: Dict[str, np.ndarray] = {KIND_ALL: np.zeros(0, dtype=np.int64)}
        self._etypes: Dict[str, np.ndarray] = {KIND_ALL: np.zeros(0, dtype=np.int64)}
        self._edge_offset: Dict[str, np.ndarray] = {
            KIND_ALL: np.zeros(1, dtype=np.int64)
        }
        #: memoized shared packed-row tables, one per flavor
        self._row_tables: Dict[str, Optional[np.ndarray]] = {}
        #: memoized group-wide signature-count tables
        self._sig_tables: Dict[Tuple[str, int, int], np.ndarray] = {}
        #: memoized per-entry/per-node derived arrays (source ids,
        #: degree tables, neighbor types), keyed per flavor
        self._entry_rows: Dict[object, np.ndarray] = {}
        self._append(graphs)

    # ------------------------------------------------------------------
    # construction / incremental patching
    # ------------------------------------------------------------------
    def _ensure_directional(self) -> None:
        """Materialize ``out``/``in`` columns (first directed member)."""
        if KIND_OUT in self._indptr:
            return
        for kind in (KIND_OUT, KIND_IN):
            self._indptr[kind] = self._indptr[KIND_ALL].copy()
            self._indices[kind] = self._indices[KIND_ALL].copy()
            self._etypes[kind] = self._etypes[KIND_ALL].copy()
            self._edge_offset[kind] = self._edge_offset[KIND_ALL].copy()

    def _append(self, graphs: Sequence[Graph]) -> None:
        """Columnarize ``graphs`` and concatenate onto the arrays."""
        if not graphs:
            return
        if any(g.directed for g in graphs):
            self.any_directed = True
        if not self.any_directed:
            # the common all-undirected group: one whole-chunk build —
            # a single lexsort/bincount pass instead of per-graph CSRs
            self._append_undirected(graphs)
            self._invalidate_tables()
            return
        kinds = [KIND_ALL, KIND_OUT, KIND_IN]
        self._ensure_directional()
        new_types = [self.node_type]
        new_offsets = [self.node_offset]
        parts: Dict[str, Dict[str, list]] = {
            k: {"indptr": [self._indptr[k]], "indices": [self._indices[k]],
                "etypes": [self._etypes[k]], "eoff": [self._edge_offset[k]]}
            for k in kinds
        }
        node_base = int(self.node_offset[-1])
        for g in graphs:
            self.content_keys.append(g.content_key())
            cols = _graph_columns(g)
            new_types.append(np.asarray(g.node_types, dtype=np.int64))
            new_offsets.append(
                np.array([node_base + g.n_nodes], dtype=np.int64)
            )
            node_base += g.n_nodes
            for kind in kinds:
                indptr, indices, etypes = cols[kind]
                p = parts[kind]
                base = int(p["eoff"][-1][-1])
                p["indptr"].append(indptr[1:] + base)
                p["indices"].append(indices)
                p["etypes"].append(etypes)
                p["eoff"].append(np.array([base + indices.size], dtype=np.int64))
        self.directed = np.concatenate(
            [self.directed, np.array([g.directed for g in graphs], dtype=bool)]
        )
        self.node_type = np.concatenate(new_types)
        self.node_offset = np.concatenate(new_offsets)
        for kind in kinds:
            p = parts[kind]
            self._indptr[kind] = np.concatenate(p["indptr"])
            self._indices[kind] = np.concatenate(p["indices"])
            self._etypes[kind] = np.concatenate(p["etypes"])
            self._edge_offset[kind] = np.concatenate(p["eoff"])
        self._invalidate_tables()

    def _append_undirected(self, graphs: Sequence[Graph]) -> None:
        """Whole-chunk vectorized build for an all-undirected group.

        Every graph's edge triples are gathered once, shifted to
        global source ids, and sorted by ``(global row, local col)``
        in one lexsort — because global rows are monotone in graph
        order, the result is exactly the per-graph CSRs concatenated.
        """
        node_base = int(self.node_offset[-1])
        edge_base = int(self._edge_offset[KIND_ALL][-1])
        us, vs, ts = [], [], []
        n_nodes = np.empty(len(graphs), dtype=np.int64)
        n_entries = np.empty(len(graphs), dtype=np.int64)
        types = [self.node_type]
        for i, g in enumerate(graphs):
            self.content_keys.append(g.content_key())
            u, v, t = edge_index_arrays(g)
            us.append(u)
            vs.append(v)
            ts.append(t)
            n_nodes[i] = g.n_nodes
            n_entries[i] = 2 * u.size
            types.append(np.asarray(g.node_types, dtype=np.int64))
        offs = node_base + np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(n_nodes)]
        )
        u_all = np.concatenate(us)
        v_all = np.concatenate(vs)
        t_all = np.concatenate(ts)
        shift = np.repeat(offs[:-1], [u.size for u in us])
        rows = np.concatenate([u_all + shift, v_all + shift])
        cols = np.concatenate([v_all, u_all])
        tt = np.concatenate([t_all, t_all])
        order = np.lexsort((cols, rows))
        total_new = int(offs[-1]) - node_base
        counts = np.bincount(rows - node_base, minlength=total_new)
        self.directed = np.concatenate(
            [self.directed, np.zeros(len(graphs), dtype=bool)]
        )
        self.node_type = np.concatenate(types)
        self.node_offset = np.concatenate([self.node_offset, offs[1:]])
        self._indptr[KIND_ALL] = np.concatenate(
            [self._indptr[KIND_ALL], edge_base + np.cumsum(counts)]
        )
        self._indices[KIND_ALL] = np.concatenate(
            [self._indices[KIND_ALL], cols[order]]
        )
        self._etypes[KIND_ALL] = np.concatenate(
            [self._etypes[KIND_ALL], tt[order]]
        )
        self._edge_offset[KIND_ALL] = np.concatenate(
            [self._edge_offset[KIND_ALL], edge_base + np.cumsum(n_entries)]
        )

    def _invalidate_tables(self) -> None:
        self._row_tables.clear()
        self._sig_tables.clear()
        self._entry_rows.clear()

    def extend(self, db_indices: Sequence[int], graphs: Sequence[Graph]) -> None:
        """Append a streamed chunk; the existing prefix is untouched."""
        self.db_indices.extend(int(i) for i in db_indices)
        self._append(graphs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_graphs(self) -> int:
        return len(self.db_indices)

    @property
    def total_nodes(self) -> int:
        return int(self.node_offset[-1])

    @property
    def max_nodes(self) -> int:
        if not self.n_graphs:
            return 0
        return int(np.diff(self.node_offset).max())

    def _resolve_kind(self, kind: str) -> str:
        if kind in (KIND_OUT, KIND_IN) and kind not in self._indptr:
            return KIND_ALL  # all-undirected group: out == in == all
        return kind

    def indptr(self, kind: str = KIND_ALL) -> np.ndarray:
        return self._indptr[self._resolve_kind(kind)]

    def indices(self, kind: str = KIND_ALL) -> np.ndarray:
        return self._indices[self._resolve_kind(kind)]

    def etypes(self, kind: str = KIND_ALL) -> np.ndarray:
        return self._etypes[self._resolve_kind(kind)]

    def edge_bounds(self, pos: int, kind: str = KIND_ALL) -> Tuple[int, int]:
        eoff = self._edge_offset[self._resolve_kind(kind)]
        return int(eoff[pos]), int(eoff[pos + 1])

    def slice(self, pos: int) -> GraphSlice:
        return GraphSlice(self, pos)

    # ------------------------------------------------------------------
    # shared packed-row table (the one-shot group context build)
    # ------------------------------------------------------------------
    def row_table(self, kind: str = KIND_ALL) -> Optional[np.ndarray]:
        """``(total_nodes, words(max_n))`` packed bitset rows, memoized.

        Row ``node_offset[i] + v`` holds graph ``i``'s node ``v``'s
        neighbor bitset in the first ``words(n_i)`` words (the rest
        stay zero) — one ``bitwise_or.at`` scatter covers every graph
        in the group, and per-graph contexts slice views out of it.
        ``None`` when the widest member exceeds
        :data:`ROW_TABLE_MAX_NODES`.
        """
        kind = self._resolve_kind(kind)
        if kind in self._row_tables:
            return self._row_tables[kind]
        if self.max_nodes > ROW_TABLE_MAX_NODES:
            self._row_tables[kind] = None
            return None
        words = (self.max_nodes + 63) >> 6
        table = np.zeros((self.total_nodes, max(words, 1)), dtype=np.uint64)
        cols = self._indices[kind]
        rows = self.entry_rows(kind)
        np.bitwise_or.at(
            table,
            (rows, cols >> np.int64(6)),
            np.uint64(1) << (cols & np.int64(63)).astype(np.uint64),
        )
        self._row_tables[kind] = table
        return table

    def rows_of(self, pos: int, kind: str = KIND_ALL) -> Optional[np.ndarray]:
        """Graph ``pos``'s ``(n, words(n))`` packed rows (a view)."""
        table = self.row_table(kind)
        if table is None:
            return None
        lo, hi = int(self.node_offset[pos]), int(self.node_offset[pos + 1])
        n = hi - lo
        return table[lo:hi, : max((n + 63) >> 6, 1)]

    # ------------------------------------------------------------------
    # group-wide signature tables (the vectorized pruning-table build)
    # ------------------------------------------------------------------
    def degree_table(self, kind: str = KIND_ALL) -> np.ndarray:
        """Per-node neighbor counts for the whole group, memoized."""
        kind = self._resolve_kind(kind)
        table = self._entry_rows.get(("deg", kind))
        if table is None:
            table = np.diff(self._indptr[kind])
            self._entry_rows[("deg", kind)] = table
        return table

    def entry_rows(self, kind: str = KIND_ALL) -> np.ndarray:
        """Global source-node id per CSR entry, memoized per flavor."""
        kind = self._resolve_kind(kind)
        rows = self._entry_rows.get(kind)
        if rows is None:
            rows = np.repeat(
                np.arange(self.total_nodes, dtype=np.int64),
                self.degree_table(kind),
            )
            self._entry_rows[kind] = rows
        return rows

    def entry_neighbor_types(self, kind: str = KIND_ALL) -> np.ndarray:
        """Neighbor node type per CSR entry, memoized per flavor."""
        kind = self._resolve_kind(kind)
        types = self._entry_rows.get(("nt", kind))
        if types is None:
            shift = np.repeat(
                self.node_offset[:-1], np.diff(self._edge_offset[kind])
            )
            types = self.node_type[self._indices[kind] + shift]
            self._entry_rows[("nt", kind)] = types
        return types

    def sig_table(self, kind: str, etype: int, ntype: int) -> np.ndarray:
        """Per-node ``(etype, ntype)`` neighbor counts, whole group.

        One masked bincount over the group CSR; per-graph contexts
        slice views out of it (``GraphSlice.sig_counts``). Directed
        members' regions under the ``all`` flavor count the ``-1``
        type placeholders and are garbage by construction — their
        contexts never read the undirected key (``_typed_kind``
        routes them to ``out``/``in`` or the per-edge fallback).
        """
        kind = self._resolve_kind(kind)
        key = (kind, etype, ntype)
        table = self._sig_tables.get(key)
        if table is None:
            sel = (self._etypes[kind] == etype) & (
                self.entry_neighbor_types(kind) == ntype
            )
            table = np.bincount(
                self.entry_rows(kind)[sel], minlength=self.total_nodes
            ).astype(np.int64, copy=False)
            self._sig_tables[key] = table
        return table


class ColumnarDatabase:
    """Columnar CSR mirror of a :class:`GraphDatabase` (one group per label)."""

    def __init__(
        self,
        groups: Dict[Hashable, ColumnarGroup],
        name: str = "columnar",
    ) -> None:
        self.groups = groups
        self.name = name
        #: db index -> (group label, position within group)
        self._where: Dict[int, Tuple[Hashable, int]] = {}
        for label, group in groups.items():
            for pos, idx in enumerate(group.db_indices):
                self._where[idx] = (label, pos)

    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence[Graph],
        labels: Optional[Sequence[Hashable]] = None,
        name: str = "columnar",
    ) -> "ColumnarDatabase":
        if labels is not None and len(labels) != len(graphs):
            raise DatasetError(
                f"labels length {len(labels)} != graph count {len(graphs)}"
            )
        members: Dict[Hashable, List[int]] = {}
        if labels is None:
            members[None] = list(range(len(graphs)))
        else:
            for i, l in enumerate(labels):
                members.setdefault(l, []).append(i)
        groups = {
            label: ColumnarGroup(idx, [graphs[i] for i in idx])
            for label, idx in members.items()
        }
        return cls(groups, name=name)

    @classmethod
    def from_database(cls, db) -> "ColumnarDatabase":
        return cls.from_graphs(
            db.graphs, labels=db.labels, name=f"{db.name}/columnar"
        )

    # ------------------------------------------------------------------
    @property
    def n_graphs(self) -> int:
        return len(self._where)

    @property
    def total_nodes(self) -> int:
        return sum(g.total_nodes for g in self.groups.values())

    def group(self, label: Hashable) -> ColumnarGroup:
        return self.groups[label]

    def group_of(self, index: int) -> Tuple[Hashable, int]:
        """``(group label, position)`` of one database index."""
        return self._where[int(index)]

    def slice_of(self, index: int) -> GraphSlice:
        label, pos = self._where[int(index)]
        return self.groups[label].slice(pos)

    def fresh_slice(self, index: int, graph: Graph) -> Optional[GraphSlice]:
        """The graph's slice, or ``None`` when the graph mutated since
        the columnar build (content keys are memoized, so the common
        case is one string compare)."""
        where = self._where.get(int(index))
        if where is None:
            return None
        sl = self.groups[where[0]].slice(where[1])
        if sl.content_key != graph.content_key():
            return None
        return sl

    # ------------------------------------------------------------------
    def extend(
        self,
        graphs: Sequence[Graph],
        labels: Optional[Sequence[Hashable]] = None,
        start: int = 0,
    ) -> None:
        """Patch for a streamed chunk appended at database index ``start``.

        Mirrors :meth:`GraphDatabase.extend`: the chunk is columnarized
        and concatenated onto the matching groups; nothing existing is
        rebuilt or re-read.
        """
        if labels is not None and len(labels) != len(graphs):
            raise DatasetError(
                f"labels length {len(labels)} != graph count {len(graphs)}"
            )
        members: Dict[Hashable, List[int]] = {}
        for offset in range(len(graphs)):
            label = None if labels is None else labels[offset]
            members.setdefault(label, []).append(offset)
        for label, offsets in members.items():
            chunk = [graphs[o] for o in offsets]
            indices = [start + o for o in offsets]
            group = self.groups.get(label)
            if group is None:
                group = ColumnarGroup([], [])
                self.groups[label] = group
            base = group.n_graphs
            group.extend(indices, chunk)
            for pos, idx in enumerate(indices, start=base):
                self._where[idx] = (label, pos)

    def __repr__(self) -> str:
        return (
            f"<ColumnarDatabase {self.name!r} |G|={self.n_graphs} "
            f"groups={len(self.groups)} nodes={self.total_nodes}>"
        )


def columnar_slice_of(graph: Graph) -> GraphSlice:
    """A standalone single-graph slice (the ad-hoc context-build path).

    Hosts that never joined a database still go through the same
    vectorized construction: a one-graph :class:`ColumnarGroup` is
    built on the fly and its only slice returned.
    """
    return ColumnarGroup([0], [graph]).slice(0)


__all__ = [
    "ColumnarDatabase",
    "ColumnarGroup",
    "GraphSlice",
    "columnar_slice_of",
    "edge_index_arrays",
    "ROW_TABLE_MAX_NODES",
    "KIND_ALL",
    "KIND_OUT",
    "KIND_IN",
]
