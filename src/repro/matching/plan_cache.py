"""Process-wide match-plan cache — the cross-tier ``PMatch`` memo.

Two production call sites pay full pattern-vs-host enumeration: the
query index's posting builds (``query/index.py``) and Psum's coverage
greedy (``core/psum.py``), which reaches it only for the candidates
PGen's enumeration could not price; ``verify_view``'s C1 check
(``core/verifiers.py``) does too when a caller checks a view. Ad-hoc
``find_isomorphisms`` calls (the exact isomorphism checks behind
``pattern_identity``, from ``mining/classes.py`` and ``query/index.py``)
draw their plans and contexts from it as well.

This module gives them one shared memo, every table keyed by
:func:`~repro.matching.context.graph_content_key` — content-defined,
so rebuilt-but-identical patterns and hosts hit:

* **pattern plans**, for the caller's own node ids: a relabelled
  pattern has another key and gets its own plan;
* **host contexts**;
* **coverage** results ``(pattern, host, match_cap) -> (covered nodes,
  covered edges)`` in host-local ids, and **containment** booleans.

Every answer is a pure function of (pattern content, host content,
cap), so a hit is bit-identical to recomputation and never depends on
what the process asked before. The cache is bounded — past
``max_patterns`` plans or ``max_contexts`` contexts the least recently
used goes, past ``max_results`` results the oldest — and thread-safe
(the HTTP serve path matches from reader threads); forked workers
reinitialize it via an at-fork hook. It has no serialized form: every
process, cluster workers included, fills its own.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.context import MatchContext, MatchPlan, graph_content_key
from repro.matching.isomorphism import find_isomorphisms

#: the most mappings one coverage query enumerates per (pattern, host)
MATCH_CAP = 10_000

#: host-local coverage: (covered node ids, covered canonical edge keys)
LocalCoverage = Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]


class MatchPlanCache:
    """Shared memo of match plans, host contexts, and match results."""

    def __init__(
        self,
        max_contexts: int = 512,
        max_results: int = 200_000,
        max_patterns: int = 100_000,
    ) -> None:
        self.max_contexts = max_contexts
        self.max_results = max_results
        self.max_patterns = max_patterns
        self._lock = threading.RLock()
        self._plans: "OrderedDict[str, MatchPlan]" = OrderedDict()
        self._contexts: "OrderedDict[str, MatchContext]" = OrderedDict()
        self._coverage: "OrderedDict[Tuple[str, str, int], LocalCoverage]" = (
            OrderedDict()
        )
        self._contains: "OrderedDict[Tuple[str, str], bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: match plans (:meth:`plan`) and host contexts (:meth:`context`)
        #: constructed, as opposed to served from the cache
        self.plan_builds = 0
        self.context_builds = 0

    # ------------------------------------------------------------------
    # shared precomputation
    # ------------------------------------------------------------------
    def plan(self, pattern: Pattern) -> MatchPlan:
        """The (cached) match plan of this pattern's content.

        The plan maps the caller's own node ids: it is keyed by the
        pattern graph's content key, which only content-identical
        patterns share.
        """
        content = graph_content_key(pattern.graph)
        with self._lock:
            plan = self._plans.get(content)
            if plan is None:
                plan = MatchPlan(pattern)
                self._plans[content] = plan
                self.plan_builds += 1
                while len(self._plans) > self.max_patterns:
                    self._plans.popitem(last=False)
            else:
                self._plans.move_to_end(content)
        return plan

    def context(
        self, host: Graph, host_key: Optional[str] = None
    ) -> Tuple[MatchContext, str]:
        """The host's (cached) match context and its content key."""
        if host_key is None:
            host_key = graph_content_key(host)
        with self._lock:
            ctx = self._contexts.get(host_key)
            if ctx is None:
                ctx = MatchContext(host)
                self._contexts[host_key] = ctx
                self.context_builds += 1
                while len(self._contexts) > self.max_contexts:
                    self._contexts.popitem(last=False)
            else:
                self._contexts.move_to_end(host_key)
        return ctx, host_key

    # ------------------------------------------------------------------
    # cached match results
    # ------------------------------------------------------------------
    def coverage(
        self,
        pattern: Pattern,
        host: Graph,
        match_cap: int = MATCH_CAP,
        host_key: Optional[str] = None,
    ) -> LocalCoverage:
        """Covered host nodes/edges, in host-local ids (cached): the
        one-host case of :meth:`coverage_many`."""
        return self.coverage_many(pattern, [host], match_cap, [host_key])[0]

    def contains(
        self,
        pattern: Pattern,
        host: Graph,
        host_key: Optional[str] = None,
    ) -> bool:
        """Whether the pattern occurs in the host (cached): the one-host
        case of :meth:`contains_many`."""
        return self.contains_many(pattern, [host], [host_key])[0]

    def coverage_many(
        self,
        pattern: Pattern,
        hosts: Sequence[Graph],
        match_cap: int = MATCH_CAP,
        host_keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[LocalCoverage]:
        """One pattern's coverage of each host, in host order.

        The database-batched ``PMatch`` core: cached per-host coverage
        is read under one lock acquisition, and only novel (pattern,
        host) pairs enumerate, sharing one match plan (hosts failing
        the type-count prefilter skip the search). The enumeration
        mirrors ``match_coverage``'s exactly: same match order, same
        ``match_cap`` truncation, same stop-early-on-full-coverage rule.
        """
        content = graph_content_key(pattern.graph)
        keys = _content_keys(hosts, host_keys)
        with self._lock:
            out = [self._coverage.get((content, hk, match_cap)) for hk in keys]
            todo = [i for i, cov in enumerate(out) if cov is None]
            self.hits += len(out) - len(todo)
        if not todo:
            return out
        plan = self.plan(pattern)
        #: per content key: hosts that share one are matched once
        fresh: Dict[str, LocalCoverage] = {}
        for i in todo:
            hk = keys[i]
            if hk not in fresh:
                ctx, _ = self.context(hosts[i], hk)
                fresh[hk] = _coverage_local(pattern, plan, ctx, hosts[i], match_cap)
            out[i] = fresh[hk]
        with self._lock:
            self.hits += len(todo) - len(fresh)
            self.misses += len(fresh)
            for hk, cov in fresh.items():
                self._coverage[(content, hk, match_cap)] = cov
                self._contains.setdefault((content, hk), bool(cov[0]))
            while len(self._coverage) > self.max_results:
                self._coverage.popitem(last=False)
            while len(self._contains) > self.max_results:
                self._contains.popitem(last=False)
        return out  # fully populated: every index was cached or computed

    def contains_many(
        self,
        pattern: Pattern,
        hosts: Sequence[Graph],
        host_keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[bool]:
        """Whether the pattern occurs in each host, in host order.

        The database-batched form of containment: cached answers for
        the whole group are read under a single lock acquisition, and
        only novel (pattern, host) pairs search for a first match.
        Posting builds in ``query/index.py`` call this per pattern per
        tier.
        """
        content = graph_content_key(pattern.graph)
        keys = _content_keys(hosts, host_keys)
        with self._lock:
            out = [self._contains.get((content, hk)) for hk in keys]
            todo = [i for i, flag in enumerate(out) if flag is None]
            self.hits += len(out) - len(todo)
        if not todo:
            return out
        plan = self.plan(pattern)
        #: per content key: hosts that share one are matched once
        fresh: Dict[str, bool] = {}
        for i in todo:
            hk = keys[i]
            if hk not in fresh:
                ctx, _ = self.context(hosts[i], hk)
                first = find_isomorphisms(pattern, hosts[i], 1, context=ctx, plan=plan)
                fresh[hk] = next(first, None) is not None
            out[i] = fresh[hk]
        with self._lock:
            self.hits += len(todo) - len(fresh)
            self.misses += len(fresh)
            for hk, found in fresh.items():
                self._contains[(content, hk)] = found
            while len(self._contains) > self.max_results:
                self._contains.popitem(last=False)
        return out

    # ------------------------------------------------------------------
    # repro: noqa[REPRO101] - runs via os.register_at_fork in the child,
    # which is single-threaded by construction; rebuilding the lock and
    # state lock-free here is the documented fork-safety design
    def _reinit_after_fork(self) -> None:  # repro: noqa[REPRO101]
        """Replace the lock and drop contents in a freshly forked child.

        The fork-pool executors fork from the threaded serve process;
        only the forking thread survives in the child, so a reader
        thread that held the lock (or was mid-mutation) at fork time
        would leave the copied lock permanently held and the dicts
        possibly inconsistent. The child starts single-threaded, so
        replacing the lock and clearing is race-free; workers rewarm
        their own cache, matching the warm-``WorkerState`` design.
        """
        self._lock = threading.RLock()
        self._plans.clear()
        self._contexts.clear()
        self._coverage.clear()
        self._contains.clear()

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached plan, context, and result."""
        with self._lock:
            self._plans.clear()
            self._contexts.clear()
            self._coverage.clear()
            self._contains.clear()
            self.hits = 0
            self.misses = 0
            self.plan_builds = 0
            self.context_builds = 0

    def stats(self) -> Dict[str, int]:
        """Cache occupancy and hit counters (for benches / diagnostics)."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "contexts": len(self._contexts),
                "coverage_entries": len(self._coverage),
                "contains_entries": len(self._contains),
                "hits": self.hits,
                "misses": self.misses,
                "plan_builds": self.plan_builds,
                "context_builds": self.context_builds,
            }


def _content_keys(
    hosts: Sequence[Graph], host_keys: Optional[Sequence[Optional[str]]]
) -> List[str]:
    """Each host's content key: the caller's where it passed one."""
    if host_keys is None:
        return [graph_content_key(host) for host in hosts]
    return [
        hk if hk is not None else graph_content_key(host)
        for host, hk in zip(hosts, host_keys)
    ]


def _coverage_local(
    pattern: Pattern,
    plan: MatchPlan,
    ctx: MatchContext,
    host: Graph,
    match_cap: int,
) -> LocalCoverage:
    """One pattern's coverage of one host, in host-local ids.

    The enumeration / early-exit schedule is byte-for-byte the one in
    ``match_coverage`` so cached and uncached results coincide.
    """
    covered_nodes: set = set()
    covered_edges: set = set()
    n_host = host.n_nodes
    count = 0
    for mapping in find_isomorphisms(pattern, host, context=ctx, plan=plan):
        count += 1
        for hv in mapping.values():
            covered_nodes.add(hv)
        for (pu, pv) in pattern.graph.edge_types:
            hu, hv = mapping[pu], mapping[pv]
            if not host.directed and hu > hv:
                hu, hv = hv, hu
            covered_edges.add((hu, hv))
        if count >= match_cap:
            break
        if len(covered_nodes) == n_host and len(covered_edges) == host.n_edges:
            break
    return frozenset(covered_nodes), frozenset(covered_edges)


#: the process-wide cache instance every matching call site shares
PLAN_CACHE = MatchPlanCache()

if hasattr(os, "register_at_fork"):  # POSIX: fork-pool workers
    os.register_at_fork(after_in_child=PLAN_CACHE._reinit_after_fork)


__all__ = [
    "MATCH_CAP",
    "MatchPlanCache",
    "PLAN_CACHE",
    "LocalCoverage",
]
