"""Pattern coverage — the paper's ``PMatch`` primitive operator (§4).

Given patterns and host graphs (typically the explanation subgraphs of
one label group), computes which host nodes/edges are *covered*: a node
``v`` is covered by ``P`` when some matching maps a pattern node onto
``v`` (§2.1). Used to check constraint C1 (patterns cover all nodes of
``G_s``) and C3 (proper coverage counts). Psum's edge-loss weights come
from ``PGen``'s enumeration instead (matching is induced, so a mined
class's matches are its enumerated subsets): :class:`CoverageIndex`
prices only the candidates ``PGen`` could not, where a host's
enumeration was capped or :data:`MATCH_CAP` could bind, and pools a
caller injects.

Match enumeration is capped (``match_cap``) to bound worst-case cost on
pathological hosts; enumeration also stops early once every host node
is covered, which is the common case for the small explanation
subgraphs GVEX produces.

``PMatch`` is **database-batched**: :func:`pmatch` matches one pattern
against a whole host group in a single call, sharing the pattern's
matching order / signature tables across hosts and skipping hosts that
fail the type-count prefilter, with results drawn from (and fed into)
the process-wide :data:`~repro.matching.plan_cache.PLAN_CACHE`. The
seed implementation — per-host VF2, no cross-call caching — lives on
as the parity reference in :mod:`repro.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.context import graph_content_key
from repro.matching.plan_cache import MATCH_CAP, PLAN_CACHE

#: (host index, node id)
NodeRef = Tuple[int, int]
#: (host index, canonical edge key)
EdgeRef = Tuple[int, Tuple[int, int]]


@dataclass(frozen=True)
class PatternCoverage:
    """Host nodes and edges covered by one pattern."""

    nodes: FrozenSet[NodeRef]
    edges: FrozenSet[EdgeRef]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def match_coverage(
    pattern: Pattern,
    host: Graph,
    host_index: int = 0,
    match_cap: int = MATCH_CAP,
    host_key: Optional[str] = None,
) -> PatternCoverage:
    """Coverage of a single pattern over a single host graph."""
    nodes, edges = PLAN_CACHE.coverage(
        pattern, host, match_cap, host_key=host_key
    )
    return PatternCoverage(
        frozenset((host_index, v) for v in nodes),
        frozenset((host_index, e) for e in edges),
    )


def pmatch(
    pattern: Pattern,
    hosts: Sequence[Graph],
    match_cap: int = MATCH_CAP,
    host_keys: Optional[Sequence[Optional[str]]] = None,
) -> List[PatternCoverage]:
    """Database-batched ``PMatch``: one pattern vs a whole host group.

    The pattern's match plan (matching order, signature tables)
    resolves once and is shared across all hosts; each host's
    coverage comes from (or lands in) the process-wide plan cache, and
    hosts failing the type-count prefilter skip VF2 entirely.
    ``host_keys`` lets callers that already computed content keys (e.g.
    :class:`CoverageIndex`) avoid re-hashing. Results are per host, in
    host order, identical to per-host :func:`match_coverage` calls.
    """
    local = PLAN_CACHE.coverage_many(
        pattern, hosts, match_cap, host_keys=host_keys
    )
    return [
        PatternCoverage(
            frozenset((h, v) for v in nodes),
            frozenset((h, e) for e in edges),
        )
        for h, (nodes, edges) in enumerate(local)
    ]


class CoverageIndex:
    """Cached pattern coverage over a fixed set of host graphs.

    Computes each pattern's coverage once, memoized by the pattern
    graph's content key. The per-(pattern, host) work additionally
    flows through the process-wide plan cache, so a later index over
    the same hosts re-pays nothing.
    """

    def __init__(self, hosts: Sequence[Graph], match_cap: int = MATCH_CAP) -> None:
        self.hosts: List[Graph] = list(hosts)
        self.match_cap = match_cap
        self._cache: Dict[str, PatternCoverage] = {}
        #: host content keys, hashed on the first match
        self._host_keys: Optional[List[str]] = None

    # ------------------------------------------------------------------
    @property
    def all_nodes(self) -> FrozenSet[NodeRef]:
        return frozenset(
            (h, v) for h, g in enumerate(self.hosts) for v in g.nodes()
        )

    @property
    def n_nodes(self) -> int:
        return sum(g.n_nodes for g in self.hosts)

    @property
    def n_edges(self) -> int:
        return sum(g.n_edges for g in self.hosts)

    # ------------------------------------------------------------------
    def coverage(self, pattern: Pattern) -> PatternCoverage:
        """Coverage of ``pattern`` across all hosts (cached, batched)."""
        key = graph_content_key(pattern.graph)
        if key not in self._cache:
            if self._host_keys is None:
                self._host_keys = [graph_content_key(g) for g in self.hosts]
            per_host = pmatch(
                pattern, self.hosts, self.match_cap, host_keys=self._host_keys
            )
            nodes: Set[NodeRef] = set()
            edges: Set[EdgeRef] = set()
            for cov in per_host:
                nodes |= cov.nodes
                edges |= cov.edges
            self._cache[key] = PatternCoverage(frozenset(nodes), frozenset(edges))
        return self._cache[key]

    def covers_all_nodes(self, patterns: Iterable[Pattern]) -> bool:
        """Constraint C1: do the patterns cover every host node?"""
        covered: Set[NodeRef] = set()
        target = self.all_nodes
        for p in patterns:
            covered |= self.coverage(p).nodes
            if covered >= target:
                return True
        return covered >= target


def covered_node_count(patterns: Iterable[Pattern], hosts: Sequence[Graph]) -> int:
    """Total host nodes covered by a pattern set (for C3 checks)."""
    index = CoverageIndex(hosts)
    covered: Set[NodeRef] = set()
    for p in patterns:
        covered |= index.coverage(p).nodes
    return len(covered)


__all__ = [
    "MATCH_CAP",
    "PatternCoverage",
    "match_coverage",
    "pmatch",
    "CoverageIndex",
    "covered_node_count",
    "NodeRef",
    "EdgeRef",
]
