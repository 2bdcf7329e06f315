"""Query engine over explanation views — the paper's "queryable" property.

§1 motivates GVEX with analyst queries like *"which toxicophores occur
in mutagens?"* and *"which nonmutagens contain the toxicophore P22?"*.
A :class:`ViewIndex` makes a generated (or JSON-loaded)
:class:`~repro.graphs.view.ViewSet` directly queryable.

Architecture
------------
At build time the index canonicalizes every view pattern (WL key +
exact-isomorphism disambiguation) and precomputes an **inverted
occurrence index**: canonical-pattern-key -> posting lists of
``(label, graph_index)`` per tier. Queries — both the legacy methods
(:meth:`explanations_containing`, :meth:`graphs_containing`,
:meth:`discriminative_patterns`, :meth:`pattern_statistics`) and the
composable DSL executed by :meth:`select` — then reduce to posting-list
lookups and set algebra instead of per-call ``O(views × subgraphs)``
isomorphism scans.

Patterns never seen before (free-form analyst input) are matched once,
and their posting lists are memoized under the pattern's canonical key,
so repeated queries stay cheap. Database-tier posting lists are built
lazily per pattern because full graphs are much larger than
explanation subgraphs.

Match results are cached under ``(canonical pattern key, stable host
key)`` — *not* ``id()`` pairs, which the allocator may reuse after GC.
Explanation-tier host keys are *content-defined* (graph index +
selected nodes), so cached matches also survive **incremental
maintenance**: :meth:`ViewIndex.add_view` / :meth:`remove_view` /
:meth:`patch_views` patch the posting lists per admitted view instead
of rebuilding — the warm-replica serving path (docs/runtime.md).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError, ValidationError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationView, ViewSet
from repro.matching.canonical import pattern_identity
from repro.matching.plan_cache import PLAN_CACHE
from repro.query.dsl import (
    SCOPE_EXPLANATIONS,
    And,
    LabelTerm,
    Not,
    Or,
    PatternTerm,
    Query,
    ScopeTerm,
)

from dataclasses import dataclass

#: (WL key, position in the key's exact-isomorphism bucket) — unique
#: and stable per canonical pattern for the index's lifetime, unlike
#: ``id()`` which can be recycled.
CanonKey = Tuple[str, int]

#: stable host identity: ("expl", graph_index, selected nodes) for an
#: explanation subgraph — content-defining (an induced subgraph is
#: determined by its source graph and node set), so cached match
#: results survive incremental view patches — or ("db", index) for a
#: full source graph
HostKey = Tuple


def _host_key(sub) -> HostKey:
    return ("expl", sub.graph_index, sub.nodes)


@dataclass(frozen=True)
class PatternOccurrence:
    """One place a pattern occurs."""

    label: Hashable
    graph_index: int
    in_explanation: bool  # matched the explanation subgraph (vs full graph)


class ViewIndex:
    """Queryable inverted index over a set of explanation views.

    Parameters
    ----------
    views:
        The explanation views (one per label).
    db:
        Optional source database; enables queries against the *full*
        graphs (e.g. "which nonmutagens contain pattern P?"), not just
        the explanation tier.

    First-time (pattern, host) probes consult the process-wide
    match-plan cache, so an index rebuilt over the same views re-pays
    nothing for the pairs an earlier index already matched.
    """

    def __init__(
        self,
        views: ViewSet,
        db: Optional[GraphDatabase] = None,
    ) -> None:
        self.views = views
        self.db = db
        self._identity: Dict[str, List[Pattern]] = {}
        self._match_cache: Dict[Tuple[CanonKey, HostKey], bool] = {}
        #: canonical key -> labels whose *pattern tier* contains it
        self._pattern_labels: Dict[CanonKey, Set[Hashable]] = {}
        #: canonical key -> {label: [graph_index, ...]} over explanation
        #: subgraphs (posting lists in view/subgraph order)
        self._expl_postings: Dict[CanonKey, Dict[Hashable, List[int]]] = {}
        #: canonical key -> [(label-or-None, db index), ...] in db order
        self._graph_postings: Dict[CanonKey, List[Tuple[Optional[Hashable], int]]] = {}
        #: db index -> label of the view whose explanation covers it
        self._group_of: Dict[int, Hashable] = {}
        for view in views:
            for sub in view.subgraphs:
                self._group_of.setdefault(sub.graph_index, view.label)

        # register every view pattern so isomorphic duplicates unify,
        # then build the explanation-tier posting lists eagerly: this is
        # a one-time patterns × subgraphs matching pass, after which
        # every query is a dict lookup.
        build_order: List[Tuple[Pattern, CanonKey]] = []
        for view in views:
            for p in view.patterns:
                canon, key = self._canon(p)
                self._pattern_labels.setdefault(key, set()).add(view.label)
                if key not in self._expl_postings:
                    self._expl_postings[key] = {}  # placeholder keeps order
                    build_order.append((canon, key))
        for canon, key in build_order:
            self._expl_postings[key] = self._scan_explanations(canon, key)

    # ------------------------------------------------------------------
    # label-centric queries
    # ------------------------------------------------------------------
    def labels(self) -> List[Hashable]:
        return self.views.labels

    def patterns_for_label(self, label: Hashable) -> List[Pattern]:
        """The higher-tier patterns of one label's view."""
        return list(self.views[label].patterns)

    def subgraphs_for_label(self, label: Hashable):
        return list(self.views[label].subgraphs)

    # ------------------------------------------------------------------
    # pattern-centric queries (thin wrappers over the inverted index)
    # ------------------------------------------------------------------
    def labels_with_pattern(self, pattern: Pattern) -> List[Hashable]:
        """Labels whose view contains a pattern isomorphic to ``pattern``."""
        _, key = self._canon(pattern)
        members = self._pattern_labels.get(key, set())
        return [view.label for view in self.views if view.label in members]

    def explanations_containing(
        self, pattern: Pattern, label: Optional[Hashable] = None
    ) -> List[PatternOccurrence]:
        """Explanation subgraphs the pattern matches (induced semantics).

        This is the paper's "which toxicophores occur in mutagens?"
        query: pass the toxicophore pattern and ``label='mutagen'``.
        """
        postings = self._expl_postings_for(pattern)
        out: List[PatternOccurrence] = []
        for view in self.views:
            if label is not None and view.label != label:
                continue
            for gidx in postings.get(view.label, ()):
                out.append(PatternOccurrence(view.label, gidx, True))
        return out

    def graphs_containing(
        self, pattern: Pattern, label: Optional[Hashable] = None
    ) -> List[PatternOccurrence]:
        """Source graphs the pattern matches (needs ``db``).

        This is the paper's "which nonmutagens contain pattern P22?"
        query — it runs against whole graphs, not explanations, so it
        also finds occurrences the explainer did not select.
        """
        postings = self._graph_postings_for(pattern)
        return [
            PatternOccurrence(g_label, idx, False)
            for g_label, idx in postings
            if label is None or g_label == label
        ]

    # ------------------------------------------------------------------
    # cross-label analysis
    # ------------------------------------------------------------------
    def discriminative_patterns(
        self, target: Hashable, against: Hashable
    ) -> List[Pattern]:
        """Patterns of ``target``'s view matching no explanation of
        ``against`` — the paper's "representative substructures that
        distinguish mutagens from nonmutagens" (P12 in Example 1.1)."""
        self.views[against]  # unknown labels raise KeyError, not match-all
        out = []
        for p in self.views[target].patterns:
            if not self._expl_postings_for(p).get(against):
                out.append(p)
        return out

    def pattern_statistics(self, pattern: Pattern) -> Dict[Hashable, int]:
        """How many explanations per label contain the pattern."""
        postings = self._expl_postings_for(pattern)
        return {
            view.label: len(postings.get(view.label, ()))
            for view in self.views
        }

    # ------------------------------------------------------------------
    # composable query execution (repro.query.dsl)
    # ------------------------------------------------------------------
    def select(self, query: Query) -> List[PatternOccurrence]:
        """Execute a :class:`~repro.query.dsl.Query` expression.

        Pattern atoms resolve to posting lists from the inverted index;
        ``&``/``|``/``~`` become set algebra over ``(label,
        graph_index)`` occurrence keys. Results are ordered like the
        legacy methods: view/subgraph order for the explanation tier,
        database order for the graph tier.
        """
        if not isinstance(query, Query):
            raise QueryError(f"select expects a Query, got {type(query).__name__}")
        scope = query.scope()
        universe = self._universe(scope)
        universe_set = set(universe)
        keys = self._evaluate(query, scope, universe_set)
        in_expl = scope == SCOPE_EXPLANATIONS
        return [
            PatternOccurrence(label, gidx, in_expl)
            for label, gidx in universe
            if (label, gidx) in keys
        ]

    def count(self, query: Query) -> int:
        """Number of occurrences matching ``query``."""
        return len(self.select(query))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _canon(self, pattern: Pattern) -> Tuple[Pattern, CanonKey]:
        """Canonical representative + stable canonical key."""
        canon = pattern_identity(pattern, self._identity)
        wl_key = canon.key()
        bucket = self._identity[wl_key]
        for pos, candidate in enumerate(bucket):
            if candidate is canon:
                return canon, (wl_key, pos)
        raise AssertionError("canonical pattern missing from its bucket")

    def _matches_group(
        self, canon: Pattern, key: CanonKey, hosts: List[Graph],
        host_keys: List[HostKey],
    ) -> List[bool]:
        """Whether one pattern occurs in each host of a group.

        Locally-cached answers are reused; the rest go through the plan
        cache's database-batched probe (one plan resolution, one lock
        round for the whole group). Every posting build calls this.
        """
        out: List[Optional[bool]] = [
            self._match_cache.get((key, hk)) for hk in host_keys
        ]
        todo = [i for i, flag in enumerate(out) if flag is None]
        if todo:
            fresh = PLAN_CACHE.contains_many(canon, [hosts[i] for i in todo])
            for i, flag in zip(todo, fresh):
                self._match_cache[(key, host_keys[i])] = flag
                out[i] = flag
        return [bool(flag) for flag in out]

    def _scan_explanations(
        self, canon: Pattern, key: CanonKey
    ) -> Dict[Hashable, List[int]]:
        """Posting lists over the explanation tier, in view order.

        One database-batched probe per pattern: every view subgraph in
        one :meth:`_matches_group` call.
        """
        subs = [sub for view in self.views for sub in view.subgraphs]
        flags = self._matches_group(
            canon, key,
            [sub.subgraph for sub in subs],
            [_host_key(sub) for sub in subs],
        )
        hits = {id(sub) for sub, flag in zip(subs, flags) if flag}
        out: Dict[Hashable, List[int]] = {}
        for view in self.views:
            out[view.label] = [
                sub.graph_index
                for sub in view.subgraphs
                if id(sub) in hits
            ]
        return out

    def _expl_postings_for(self, pattern: Pattern) -> Dict[Hashable, List[int]]:
        canon, key = self._canon(pattern)
        postings = self._expl_postings.get(key)
        if postings is None:
            postings = self._scan_explanations(canon, key)
            self._expl_postings[key] = postings
        return postings

    def _graph_postings_for(
        self, pattern: Pattern
    ) -> List[Tuple[Optional[Hashable], int]]:
        if self.db is None:
            raise ValidationError("graph-scope queries require a source database")
        canon, key = self._canon(pattern)
        postings = self._graph_postings.get(key)
        if postings is None:
            flags = self._matches_group(
                canon, key,
                list(self.db.graphs),
                [("db", idx) for idx in range(len(self.db.graphs))],
            )
            postings = [
                (self._group_of.get(idx), idx)
                for idx, flag in enumerate(flags)
                if flag
            ]
            self._graph_postings[key] = postings
        return postings

    def _universe(self, scope: str) -> List[Tuple[Optional[Hashable], int]]:
        if scope == SCOPE_EXPLANATIONS:
            return [
                (view.label, sub.graph_index)
                for view in self.views
                for sub in view.subgraphs
            ]
        if self.db is None:
            raise ValidationError("graph-scope queries require a source database")
        return [(self._group_of.get(idx), idx) for idx in range(len(self.db.graphs))]

    def _evaluate(
        self, node: Query, scope: str, universe: Set[Tuple[Optional[Hashable], int]]
    ) -> Set[Tuple[Optional[Hashable], int]]:
        if isinstance(node, PatternTerm):
            if scope == SCOPE_EXPLANATIONS:
                postings = self._expl_postings_for(node.pattern)
                return {
                    (label, gidx)
                    for label, gidxs in postings.items()
                    for gidx in gidxs
                }
            return set(self._graph_postings_for(node.pattern))
        if isinstance(node, LabelTerm):
            return {key for key in universe if key[0] == node.label}
        if isinstance(node, ScopeTerm):
            return set(universe)  # scope was handled at query level
        if isinstance(node, And):
            return self._evaluate(node.left, scope, universe) & self._evaluate(
                node.right, scope, universe
            )
        if isinstance(node, Or):
            return self._evaluate(node.left, scope, universe) | self._evaluate(
                node.right, scope, universe
            )
        if isinstance(node, Not):
            return universe - self._evaluate(node.operand, scope, universe)
        raise QueryError(f"unsupported query node {type(node).__name__}")

    # ------------------------------------------------------------------
    # incremental maintenance (warm serve replicas patch, not rebuild)
    # ------------------------------------------------------------------
    def add_view(self, view: ExplanationView) -> None:
        """Admit one view incrementally, patching the posting lists.

        Every existing canonical key gains a posting list for the new
        label (match results for previously seen (pattern, host) pairs
        come from the cache); the view's own patterns register new keys
        where needed. Raises :class:`QueryError` when the label already
        has a view — replace via :meth:`remove_view` or
        :meth:`patch_views`.
        """
        if view.label in self.views:
            raise QueryError(
                f"label {view.label!r} already has a view; remove it first"
            )
        self.views.add(view)
        self._rebuild_group_of()
        self._admit_view(view)
        self._refresh_graph_posting_labels()

    def remove_view(self, label: Hashable) -> ExplanationView:
        """Remove one label's view, dropping its posting-list entries.

        Memoized free-form patterns and the match cache survive — the
        cost of re-admitting a similar view later stays incremental.
        """
        if label not in self.views:
            raise QueryError(f"no view for label {label!r}")
        removed = self.views.views.pop(label)
        self._rebuild_group_of()
        self._drop_label(label)
        self._refresh_graph_posting_labels()
        return removed

    def patch_views(self, new_views: ViewSet) -> None:
        """Adopt a new view set by patching instead of rebuilding.

        Per label: unchanged view *objects* keep their postings;
        removed labels are dropped; added or replaced views are
        re-admitted incrementally. The canonical-pattern identity map
        and the match cache are preserved, so repeated serve explains
        only pay isomorphism checks for genuinely new (pattern, host)
        pairs. Equivalent to ``ViewIndex(new_views, db)`` for every
        query (``tests/test_view_index_incremental.py``).
        """
        old = {label: self.views.views[label] for label in self.views.labels}
        self.views = new_views
        self._rebuild_group_of()
        for label, old_view in old.items():
            if new_views.get(label) is not old_view:
                self._drop_label(label)
        for label in new_views.labels:
            view = new_views[label]
            if old.get(label) is not view:
                self._admit_view(view)
        self._refresh_graph_posting_labels()

    def patched_copy(self, new_views: ViewSet) -> "ViewIndex":
        """A new index adopting ``new_views``, reusing this one's caches.

        The threaded serving path must never mutate an index that
        concurrent readers hold (readers also memoize into the posting
        dicts). This clones the container dicts — contents are shared;
        canonical bucket order is preserved so :data:`CanonKey`
        positions stay valid — patches the clone incrementally, and
        returns it for an atomic swap. Readers keep a
        stale-but-consistent snapshot, exactly like the old
        invalidate-and-rebuild behavior, at patch cost.
        """
        clone = object.__new__(ViewIndex)
        clone.views = self.views
        clone.db = self.db
        clone._identity = {k: list(v) for k, v in self._identity.items()}
        clone._match_cache = dict(self._match_cache)
        clone._pattern_labels = {
            k: set(v) for k, v in self._pattern_labels.items()
        }
        clone._expl_postings = {
            k: dict(v) for k, v in self._expl_postings.items()
        }
        clone._graph_postings = dict(self._graph_postings)
        clone._group_of = dict(self._group_of)
        clone.patch_views(new_views)
        return clone

    # -- internals of the patch path -----------------------------------
    def _rebuild_group_of(self) -> None:
        self._group_of = {}
        for view in self.views:
            for sub in view.subgraphs:
                self._group_of.setdefault(sub.graph_index, view.label)

    def _drop_label(self, label: Hashable) -> None:
        for postings in self._expl_postings.values():
            postings.pop(label, None)
        for members in self._pattern_labels.values():
            members.discard(label)

    def _admit_view(self, view: ExplanationView) -> None:
        # the view's pattern tier may introduce new canonical keys;
        # those need a full posting scan (nothing is cached for them)
        fresh: List[Tuple[Pattern, CanonKey]] = []
        for p in view.patterns:
            canon, key = self._canon(p)
            self._pattern_labels.setdefault(key, set()).add(view.label)
            if key not in self._expl_postings:
                self._expl_postings[key] = {}
                fresh.append((canon, key))
        fresh_keys = {key for _, key in fresh}
        # every pre-existing key needs this label's posting list: scan
        # only the admitted view's subgraphs (cache-assisted)
        hosts = [sub.subgraph for sub in view.subgraphs]
        host_keys = [_host_key(sub) for sub in view.subgraphs]
        for key, postings in self._expl_postings.items():
            if key in fresh_keys:
                continue
            canon = self._identity[key[0]][key[1]]
            flags = self._matches_group(canon, key, hosts, host_keys)
            postings[view.label] = [
                sub.graph_index
                for sub, flag in zip(view.subgraphs, flags)
                if flag
            ]
        for canon, key in fresh:
            self._expl_postings[key] = self._scan_explanations(canon, key)

    def extend_db(
        self,
        graphs: Sequence[Graph],
        labels: Optional[Sequence[Hashable]] = None,
    ) -> range:
        """Admit new database graphs (a stream chunk), patching postings.

        The database axis of incremental maintenance: growing the
        source database used to mean lazily-built graph postings went
        stale for every cached pattern. Instead of invalidating the
        whole db tier, this appends the graphs to ``db`` and matches
        each *cached* pattern against only the new suffix, keeping
        every posting list identical to a from-scratch rebuild
        (``tests/test_view_index_incremental.py``). Patterns never
        queried at graph scope stay lazy and pay nothing.

        Returns the new graphs' database indices.
        """
        if self.db is None:
            raise QueryError("extend_db requires a source database")
        new_indices = self.db.extend(graphs, labels)
        hosts = [self.db.graphs[idx] for idx in new_indices]
        host_keys = [("db", idx) for idx in new_indices]
        for key, postings in self._graph_postings.items():
            canon = self._identity[key[0]][key[1]]
            flags = self._matches_group(canon, key, hosts, host_keys)
            additions = [
                (self._group_of.get(idx), idx)
                for idx, flag in zip(new_indices, flags)
                if flag
            ]
            if additions:
                self._graph_postings[key] = postings + additions
        return new_indices

    def _refresh_graph_posting_labels(self) -> None:
        """Re-label cached db-tier postings after ``_group_of`` changed.

        The expensive part — pattern-vs-full-graph isomorphism — is
        unaffected by view changes (the database is fixed), so only the
        group labels are rewritten.
        """
        for key, postings in self._graph_postings.items():
            self._graph_postings[key] = [
                (self._group_of.get(idx), idx) for _, idx in postings
            ]

    # ------------------------------------------------------------------
    def index_stats(self) -> Dict[str, int]:
        """Size of the inverted index (for /health and diagnostics)."""
        return {
            "patterns": len(self._expl_postings),
            "explanation_postings": sum(
                len(gidxs)
                for postings in self._expl_postings.values()
                for gidxs in postings.values()
            ),
            "graph_postings": sum(len(p) for p in self._graph_postings.values()),
            "match_cache": len(self._match_cache),
        }


__all__ = ["ViewIndex", "PatternOccurrence", "CanonKey"]
