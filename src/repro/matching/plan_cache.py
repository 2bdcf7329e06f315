"""Process-wide match-plan cache — the cross-tier ``PMatch`` memo.

Three independent call sites pay full pattern-vs-host enumeration:
constraint verification (``core/verifiers.py``), the query index's
posting builds (``query/index.py``), and PGen's dedup/identity
resolution (``mining/classes.py``); Psum's coverage greedy
(``core/psum.py``) reaches it only for candidates PGen's enumeration
could not price. A served view's patterns are matched against the same
explanation subgraphs by every posting build and by ``verify_view``
when a caller checks the view, and the same fresh query patterns arrive
again and again.

This module gives them one shared memo:

* **pattern plans** keyed by the pattern's *exact* canonical identity
  (WL key + position in the key's isomorphism-resolved bucket — WL keys
  alone may collide);
* **host contexts** keyed by :func:`~repro.matching.context.
  graph_content_key` — content-defined, so rebuilt-but-identical hosts
  (e.g. induced explanation subgraphs reconstructed per request) hit;
* **coverage** results ``(pattern, host, match_cap) -> (covered nodes,
  covered edges)`` in host-local ids, and **containment** booleans.

Entries are immutable values of deterministic computations, so cache
hits are bit-identical to recomputation by construction. The cache is
bounded — FIFO eviction for contexts and match results, a wholesale
generation-bumping reset for the pattern registry past
``max_patterns`` — and thread-safe (the HTTP serve path matches from
reader threads); forked workers reinitialize it via an at-fork hook.
It has no serialized form: every process, cluster workers included,
fills its own.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.context import MatchContext, MatchPlan, graph_content_key
from repro.matching.isomorphism import are_isomorphic, find_isomorphisms

#: the most mappings one coverage query enumerates per (pattern, host)
MATCH_CAP = 10_000

#: exact canonical pattern identity: (registry generation, WL key,
#: bucket position) — the generation increments when the pattern
#: registry resets, so recycled bucket positions can never alias
#: entries keyed before the reset
CanonKey = Tuple[int, str, int]

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
        self._generation = 0
        self._identity: Dict[str, List[Pattern]] = {}
        #: pattern graph content key -> resolved canonical identity;
        #: serve paths re-create byte-identical Pattern objects per
        #: request, and this memo resolves them with one cheap hash
        #: instead of a WL refinement + exact isomorphism check
        self._content_canon: Dict[str, Tuple[Pattern, CanonKey]] = {}
        self._plans: Dict[CanonKey, MatchPlan] = {}
        self._contexts: "OrderedDict[str, MatchContext]" = OrderedDict()
        #: ad-hoc plans keyed by exact pattern *content* — the un-
        #: canonicalized path (``find_isomorphisms`` without a
        #: carried plan) must plan the caller's own node ids, and
        #: resolving through ``canon`` could return an isomorphic
        #: representative with different ids
        self._exact_plans: "OrderedDict[str, MatchPlan]" = OrderedDict()
        self._coverage: "OrderedDict[Tuple[CanonKey, str, int], LocalCoverage]" = (
            OrderedDict()
        )
        self._contains: "OrderedDict[Tuple[CanonKey, str], bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: canonical match plans (:meth:`plan`) and host contexts
        #: (:meth:`context`) constructed, as opposed to served from
        #: the cache
        self.plan_builds = 0
        self.context_builds = 0
        #: ad-hoc plans (:meth:`exact_plan`) constructed: plans for a
        #: caller's own node ids, never counted in ``plan_builds``
        self.exact_plan_builds = 0

    # ------------------------------------------------------------------
    # keys and shared precomputation
    # ------------------------------------------------------------------
    def canon(self, pattern: Pattern) -> Tuple[Pattern, CanonKey]:
        """Canonical representative + exact canonical key.

        WL refinement and isomorphism checks — potentially expensive
        for adversarial analyst patterns — run *outside* the lock;
        bucket positions only ever append, so a snapshot's indices
        stay valid and a concurrent registration just triggers a
        rescan of the grown tail.
        """
        content = graph_content_key(pattern.graph)
        with self._lock:
            resolved = self._content_canon.get(content)
            if resolved is not None:
                return resolved
        wl_key = pattern.key()  # WL refinement: outside the lock
        while True:
            with self._lock:
                resolved = self._content_canon.get(content)
                if resolved is not None:
                    return resolved
                generation = self._generation
                bucket = list(self._identity.get(wl_key, ()))
            match_pos = None
            for pos, candidate in enumerate(bucket):
                if candidate is pattern or are_isomorphic(pattern, candidate):
                    match_pos = pos
                    break
            with self._lock:
                if self._generation != generation:
                    continue  # registry reset mid-scan: start over
                if match_pos is not None:
                    resolved = (
                        bucket[match_pos],
                        (generation, wl_key, match_pos),
                    )
                    self._content_canon[content] = resolved
                    return resolved
                live = self._identity.setdefault(wl_key, [])
                if len(live) != len(bucket):
                    continue  # bucket grew concurrently: rescan it
                if (
                    len(self._content_canon) >= self.max_patterns
                ):  # safety valve: see _reset_patterns_locked
                    self._reset_patterns_locked()
                    live = self._identity.setdefault(wl_key, [])
                live.append(pattern)
                resolved = (
                    pattern,
                    (self._generation, wl_key, len(live) - 1),
                )
                self._content_canon[content] = resolved
                return resolved

    def _reset_patterns_locked(self) -> None:
        """Drop all pattern-side state (and the results keyed by it).

        Called with the lock held when the pattern registry exceeds
        ``max_patterns`` (a long-lived serve process fed unbounded
        distinct analyst patterns). Canonical keys embed bucket
        positions, so the identity map can never be cleared alone —
        coverage/containment entries keyed by old positions would
        alias fresh registrations; everything pattern-keyed resets
        together and rebuilds on demand, and the generation bump keeps
        any key still held by an in-flight caller from colliding.
        """
        self._generation += 1
        self._identity.clear()
        self._content_canon.clear()
        self._plans.clear()
        self._coverage.clear()
        self._contains.clear()

    def plan(self, pattern: Pattern) -> Tuple[Pattern, CanonKey, MatchPlan]:
        """Canonical pattern, its key, and its (cached) match plan."""
        canon, key = self.canon(pattern)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = MatchPlan(canon)
                self._plans[key] = plan
                self.plan_builds += 1
        return canon, key, plan

    def exact_plan(self, pattern: Pattern) -> MatchPlan:
        """Ad-hoc (cached) plan for *this* pattern's node ids.

        Unlike :meth:`plan` there is no canonical resolution: the plan
        is keyed by the pattern graph's content key and always maps the
        caller's own node ids, which is what un-batched
        ``find_isomorphisms`` calls need. Never recurses into
        ``canon``/``are_isomorphic``, so the ad-hoc path can call
        it from inside canonicalization itself.
        """
        content = graph_content_key(pattern.graph)
        with self._lock:
            plan = self._exact_plans.get(content)
            if plan is not None:
                self._exact_plans.move_to_end(content)
                return plan
        plan = MatchPlan(pattern)  # order derivation outside the lock
        with self._lock:
            existing = self._exact_plans.get(content)
            if existing is not None:
                return existing
            self._exact_plans[content] = plan
            self.exact_plan_builds += 1
            while len(self._exact_plans) > self.max_patterns:
                self._exact_plans.popitem(last=False)
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
        """Covered host nodes/edges, in host-local ids (cached).

        Mirrors ``match_coverage``'s enumeration exactly: same match
        order, same ``match_cap`` truncation, same stop-early-on-full-
        coverage rule — the result is a pure function of (pattern
        content, host content, cap), which is the cache key.
        """
        if host_key is None:
            host_key = graph_content_key(host)
        content = graph_content_key(pattern.graph)
        with self._lock:
            # hit path: two memoized hashes + two dict probes, no plan
            # resolution — this is what repeated serve requests pay
            resolved = self._content_canon.get(content)
            if resolved is not None:
                cached = self._coverage.get((resolved[1], host_key, match_cap))
                if cached is not None:
                    self.hits += 1
                    return cached
        canon, key, plan = self.plan(pattern)
        cache_key = (key, host_key, match_cap)
        with self._lock:
            cached = self._coverage.get(cache_key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        ctx, _ = self.context(host, host_key)
        result = _coverage_local(canon, plan, ctx, host, match_cap)
        with self._lock:
            self._coverage[cache_key] = result
            while len(self._coverage) > self.max_results:
                self._coverage.popitem(last=False)
            contains_key = (key, host_key)
            if contains_key not in self._contains:
                self._contains[contains_key] = bool(result[0])
        return result

    def contains(
        self,
        pattern: Pattern,
        host: Graph,
        host_key: Optional[str] = None,
    ) -> bool:
        """Whether the pattern occurs in the host (cached)."""
        if host_key is None:
            host_key = graph_content_key(host)
        content = graph_content_key(pattern.graph)
        with self._lock:
            resolved = self._content_canon.get(content)
            if resolved is not None:
                cached = self._contains.get((resolved[1], host_key))
                if cached is not None:
                    self.hits += 1
                    return cached
        canon, key, plan = self.plan(pattern)
        cache_key = (key, host_key)
        with self._lock:
            cached = self._contains.get(cache_key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        ctx, _ = self.context(host, host_key)
        found = False
        for _ in find_isomorphisms(canon, host, limit=1, context=ctx, plan=plan):
            found = True
        with self._lock:
            self._contains[cache_key] = found
            while len(self._contains) > self.max_results:
                self._contains.popitem(last=False)
        return found

    def coverage_many(
        self,
        pattern: Pattern,
        hosts: Sequence[Graph],
        match_cap: int = MATCH_CAP,
        host_keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[LocalCoverage]:
        """Batched :meth:`coverage`: one pattern vs a host group.

        The database-batched ``PMatch`` core: canonical identity and
        match plan resolve once, cached per-host coverage is read
        under one lock acquisition, and only novel (pattern, host)
        pairs enumerate (prefiltered by type counts). Identical, host
        for host, to per-host :meth:`coverage` calls.
        """
        keys = [
            host_keys[i]
            if host_keys is not None and host_keys[i] is not None
            else graph_content_key(host)
            for i, host in enumerate(hosts)
        ]
        canon, key, plan = self.plan(pattern)
        out: List[Optional[LocalCoverage]] = [None] * len(hosts)
        with self._lock:
            for i, hk in enumerate(keys):
                cached = self._coverage.get((key, hk, match_cap))
                if cached is not None:
                    out[i] = cached
                    self.hits += 1
        todo = [i for i, cov in enumerate(out) if cov is None]
        empty: LocalCoverage = (frozenset(), frozenset())
        for i in todo:
            ctx, _ = self.context(hosts[i], keys[i])
            if not plan.host_can_match(ctx):
                out[i] = empty
                continue
            out[i] = _coverage_local(canon, plan, ctx, hosts[i], match_cap)
        if todo:
            with self._lock:
                for i in todo:
                    self.misses += 1
                    self._coverage[(key, keys[i], match_cap)] = out[i]
                    contains_key = (key, keys[i])
                    if contains_key not in self._contains:
                        self._contains[contains_key] = bool(out[i][0])
                while len(self._coverage) > self.max_results:
                    self._coverage.popitem(last=False)
        return out  # fully populated: every index was cached or computed

    def contains_many(
        self,
        pattern: Pattern,
        hosts: Sequence[Graph],
        host_keys: Optional[Sequence[Optional[str]]] = None,
    ) -> List[bool]:
        """Batched containment: one pattern vs a host group.

        The database-batched form of :meth:`contains`: the pattern's
        canonical identity and plan resolve once, cached answers for
        the whole group are read under a single lock acquisition, and
        only genuinely novel (pattern, host) pairs run VF2 (with the
        type-count prefilter applied first). Posting builds in
        ``query/index.py`` call this per pattern per tier.
        """
        keys = [
            host_keys[i]
            if host_keys is not None and host_keys[i] is not None
            else graph_content_key(host)
            for i, host in enumerate(hosts)
        ]
        canon, key, plan = self.plan(pattern)
        out: List[Optional[bool]] = [None] * len(hosts)
        with self._lock:
            for i, hk in enumerate(keys):
                cached = self._contains.get((key, hk))
                if cached is not None:
                    out[i] = cached
                    self.hits += 1
        todo = [i for i, flag in enumerate(out) if flag is None]
        for i in todo:
            ctx, _ = self.context(hosts[i], keys[i])
            if not plan.host_can_match(ctx):
                out[i] = False
                continue
            found = False
            for _ in find_isomorphisms(
                canon, hosts[i], limit=1, context=ctx, plan=plan
            ):
                found = True
            out[i] = found
        if todo:
            with self._lock:
                for i in todo:
                    self.misses += 1
                    self._contains[(key, keys[i])] = out[i]
                while len(self._contains) > self.max_results:
                    self._contains.popitem(last=False)
        return [bool(flag) for flag in out]

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
        self._generation += 1
        self._identity.clear()
        self._content_canon.clear()
        self._plans.clear()
        self._exact_plans.clear()
        self._contexts.clear()
        self._coverage.clear()
        self._contains.clear()

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached plan, context, and result."""
        with self._lock:
            self._identity.clear()
            self._content_canon.clear()
            self._plans.clear()
            self._exact_plans.clear()
            self._contexts.clear()
            self._coverage.clear()
            self._contains.clear()
            self.hits = 0
            self.misses = 0
            self.plan_builds = 0
            self.context_builds = 0
            self.exact_plan_builds = 0

    def stats(self) -> Dict[str, int]:
        """Cache occupancy and hit counters (for benches / diagnostics)."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "exact_plans": len(self._exact_plans),
                "contexts": len(self._contexts),
                "coverage_entries": len(self._coverage),
                "contains_entries": len(self._contains),
                "hits": self.hits,
                "misses": self.misses,
                "plan_builds": self.plan_builds,
                "context_builds": self.context_builds,
                "exact_plan_builds": self.exact_plan_builds,
            }


def _coverage_local(
    canon: Pattern,
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
    for mapping in find_isomorphisms(canon, host, context=ctx, plan=plan):
        count += 1
        for hv in mapping.values():
            covered_nodes.add(hv)
        for (pu, pv) in canon.graph.edge_types:
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
    "CanonKey",
    "LocalCoverage",
]
