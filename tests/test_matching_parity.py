"""Production-vs-reference matcher parity.

The production matcher (int-row VF2 over per-host
:class:`MatchContext`\\ s, process-wide plan cache, database-batched
``pmatch``) must be *bit-identical* to the seed VF2 kept in
:mod:`repro.reference` everywhere its results are observable:

* mapping streams — identical sequences (same matchings, same order,
  same truncation under ``limit``);
* coverage sets — identical node/edge reference sets, including under
  ``match_cap`` truncation;
* mined pattern lists — identical canonical candidates, supports, and
  embedding counts;
* end-to-end views and query DSL answers — identical across the whole
  dataset zoo.

Hypothesis properties drive the mapping-stream check over random
typed patterns and hosts (directed and undirected, typed edges), from
one-word hosts up to 200 nodes, plus two fixed 4,500-node hosts;
``TestContext`` checks the host context's rows, signature counts and
degrees against their definitions; zoo tests pin the end-to-end
pipeline, with the reference substituted through
:func:`repro.reference.reference_matcher` (and Psum's pool priced by
it through :func:`repro.reference.rematch_coverage`). Pruning (degree bounds,
type signatures) may only ever *skip doomed subtrees*, so any
divergence is a soundness bug, not a tolerance issue.
"""

import random
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.config import GvexConfig
from repro.core.approx import explain_database
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.pattern import Pattern
from repro.matching.context import MatchContext, MatchPlan, graph_content_key
from repro.matching import coverage as coverage_module
from repro.matching.coverage import CoverageIndex, pmatch
from repro.matching.isomorphism import find_isomorphisms
from repro.matching.plan_cache import MATCH_CAP, PLAN_CACHE, MatchPlanCache
from repro.mining.index import SubsetIndex
from repro.mining.pgen import mine_patterns
from repro.query import Q, ViewIndex
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.model import GnnClassifier

ZOO = sorted(DATASETS)


# ----------------------------------------------------------------------
# strategies: random typed hosts and connected typed patterns
# ----------------------------------------------------------------------
@st.composite
def typed_graphs(draw, max_nodes=9, max_types=3, directed=None):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_types - 1),
            min_size=n,
            max_size=n,
        )
    )
    is_directed = draw(st.booleans()) if directed is None else directed
    g = Graph(types, directed=is_directed)
    possible = (
        [(u, v) for u in range(n) for v in range(n) if u != v]
        if is_directed
        else list(combinations(range(n), 2))
    )
    if possible:
        for u, v in draw(
            st.lists(
                st.sampled_from(possible),
                unique=True,
                max_size=min(len(possible), 14),
            )
        ):
            if not g.has_edge(u, v):
                g.add_edge(u, v, draw(st.integers(min_value=0, max_value=1)))
    return g


@st.composite
def pattern_host_pairs(draw):
    host = draw(typed_graphs())
    pn = draw(st.integers(min_value=1, max_value=min(4, host.n_nodes + 1)))
    pg = Graph(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=pn, max_size=pn
            )
        ),
        directed=host.directed,
    )
    possible = (
        [(u, v) for u in range(pn) for v in range(pn) if u != v]
        if host.directed
        else list(combinations(range(pn), 2))
    )
    for u, v in draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=8)
        if possible
        else st.just([])
    ):
        if not pg.has_edge(u, v):
            pg.add_edge(u, v, draw(st.integers(min_value=0, max_value=1)))
    if not pg.is_connected():  # keep only valid patterns
        pg = Graph([pg.node_type(0)], directed=host.directed)
    return Pattern(pg), host


# ----------------------------------------------------------------------
# hypothesis property: equal match streams on random inputs
# ----------------------------------------------------------------------
def random_host(n, directed, rng, avg_degree, n_types=3):
    """A seeded sparse typed host of ``n`` nodes."""
    g = Graph([rng.randrange(n_types) for _ in range(n)], directed=directed)
    for _ in range(avg_degree * n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, rng.randrange(2))
    return g


@st.composite
def multi_word_hosts(draw, directed):
    """Seeded hosts of 60-140 nodes, whose rows span several words."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_host(draw(st.integers(min_value=60, max_value=140)), directed, rng, 3)


def context_hosts(directed):
    """Typed hosts of one directedness: 1-12 nodes or 60-140 nodes."""
    return st.one_of(
        typed_graphs(max_nodes=12, directed=directed), multi_word_hosts(directed)
    )


def typed_neighbors(g, kind, etype, v):
    """``v``'s neighbors of one row kind, read off the edge list: an
    edge ``a -> b`` makes ``b`` an out-neighbor of ``a`` and ``a`` an
    in-neighbor of ``b``; undirected edges go both ways."""
    out = set()
    for a, b, t in g.edges():
        if etype is not None and t != etype:
            continue
        if a == v and (kind != "in" or not g.directed):
            out.add(b)
        if b == v and (kind != "out" or not g.directed):
            out.add(a)
    return out


def edges_at(g, v, direction):
    """``v``'s edges for one signature direction, as ``(a, b)`` pairs:
    out-edges for ``"o"``, in-edges for ``"i"``, both for ``""``; on an
    undirected host each incident edge, once, for every direction."""
    out = [(v, w) for w in g.neighbors(v)]
    if not g.directed:
        return out
    inc = [(w, v) for w in g.in_neighbors(v)]
    return {"o": out, "i": inc, "": out + inc}[direction]


def cut_pattern(host, rng, size, twist=False):
    """A connected induced subgraph of ``host`` as a pattern.

    ``twist`` rotates one node type, usually turning the pattern into
    a near miss whose search scans the host without matching.
    """
    nodes = [rng.randrange(host.n_nodes)]
    frontier = set(host.all_neighbors(nodes[0]))
    while len(nodes) < size and frontier:
        v = rng.choice(sorted(frontier))
        nodes.append(v)
        frontier |= set(host.all_neighbors(v))
        frontier -= set(nodes)
    sub, _ = host.induced_subgraph(sorted(nodes))
    types = [int(t) for t in sub.node_types]
    if twist:
        types[-1] = (types[-1] + 1) % 3
    g = Graph(types, directed=host.directed)
    for u, v, t in sub.edges():
        g.add_edge(u, v, t)
    return Pattern(g)


@st.composite
def multi_word_pairs(draw):
    """Hosts of 60-200 nodes (one to four 64-bit words) with patterns cut
    from them, so candidate masks and mapped images cross word
    boundaries."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    host = random_host(
        draw(st.integers(min_value=60, max_value=200)),
        draw(st.booleans()),
        rng,
        avg_degree=draw(st.sampled_from([2, 3, 5])),
    )
    pattern = cut_pattern(
        host, rng, draw(st.integers(min_value=1, max_value=4)), draw(st.booleans())
    )
    return pattern, host


def assert_streams_match_reference(pattern, host, limit):
    ref = list(reference.find_isomorphisms(pattern, host, limit=limit))
    # ad-hoc (plan-cache mediated) and with explicit carriers
    assert list(find_isomorphisms(pattern, host, limit=limit)) == ref
    carried = find_isomorphisms(
        pattern,
        host,
        limit=limit,
        context=MatchContext(host),
        plan=MatchPlan(pattern),
    )
    assert list(carried) == ref  # same matchings, order, dict layout


@settings(max_examples=180, deadline=None)
@given(
    pair=st.one_of(pattern_host_pairs(), multi_word_pairs()),
    limit=st.sampled_from([None, 1, 2, 7]),
)
def test_match_streams_bit_identical(pair, limit):
    assert_streams_match_reference(*pair, limit)


@pytest.mark.parametrize("directed", [False, True])
def test_lazy_host_streams_bit_identical(directed):
    """Rows are built per node on first use; on a 4,500-node host,
    where search maps only a few nodes, the streams must still equal
    the reference's."""
    rng = random.Random(11 + directed)
    host = random_host(4500, directed, rng, 3)
    patterns = [
        cut_pattern(host, rng, size, twist)
        for size in (1, 2, 3, 4)
        for twist in (False, True)
    ]
    for pattern in patterns:
        for limit in (None, 1, 7):
            assert_streams_match_reference(pattern, host, limit)


@settings(max_examples=60, deadline=None)
@given(pair=pattern_host_pairs(), cap=st.sampled_from([1, 3, 10_000]))
def test_coverage_bit_identical(pair, cap):
    pattern, host = pair
    ref = reference.match_coverage(pattern, host, 4, cap)
    # bypass the shared canonical registry: coverage under a truncating
    # cap is defined over the *exact* pattern labelling, so production
    # is checked through a private cache seeded with this pattern
    cache = MatchPlanCache()
    nodes, edges = cache.coverage(pattern, host, cap)
    assert frozenset((4, v) for v in nodes) == ref.nodes
    assert frozenset((4, e) for e in edges) == ref.edges


# ----------------------------------------------------------------------
# context units
# ----------------------------------------------------------------------
class TestContext:
    def test_content_key_is_content_defined(self):
        a = Graph([0, 1])
        a.add_edge(0, 1, 2)
        b = Graph([0, 1])
        b.add_edge(0, 1, 2)
        c = Graph([0, 1])
        c.add_edge(0, 1, 3)  # different edge type
        assert graph_content_key(a) == graph_content_key(b)
        assert graph_content_key(a) != graph_content_key(c)
        assert graph_content_key(a) != graph_content_key(
            Graph([0, 1], directed=True)
        )

    @pytest.mark.parametrize("directed", [False, True])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rows_are_typed_neighbor_masks(self, directed, data):
        """Row ``v`` of every kind and edge type is the bitmask of
        ``v``'s neighbors of that kind joined by an edge of that type."""
        g = data.draw(context_hosts(directed))
        ctx = MatchContext(g)
        for kind in ("all", "out", "in"):
            for etype in (None, 0, 1, 2):  # type 2 never occurs
                rows = ctx.rows(kind, etype)
                for v in g.nodes():
                    want = typed_neighbors(g, kind, etype, v)
                    assert rows[v] == sum(1 << w for w in want), (kind, etype, v)

    @pytest.mark.parametrize("directed", [False, True])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_sig_counts_and_degrees_by_definition(self, directed, data):
        """``sig_counts`` counts ``v``'s out-edges (``"o"``), in-edges
        (``"i"``) or both (``""``) of one type to one neighbor type;
        an undirected edge counts once in every direction."""
        g = data.draw(context_hosts(directed))
        ctx = MatchContext(g)
        assert list(ctx.degrees) == [g.degree(v) for v in g.nodes()]
        assert list(ctx.node_types) == [g.node_type(v) for v in g.nodes()]
        for direction in ("", "o", "i"):
            for etype in (0, 1, 2):
                for ntype in (0, 1, 2):
                    key = (direction, etype, ntype)
                    want = [
                        sum(
                            1
                            for a, b in edges_at(g, v, direction)
                            if g.edge_type(a, b) == etype
                            and g.node_type(b if a == v else a) == ntype
                        )
                        for v in g.nodes()
                    ]
                    assert list(ctx.sig_counts(key)) == want, key

    @pytest.mark.parametrize("directed", [False, True])
    def test_rows_built_on_first_lookup(self, directed):
        """Each ``(kind, etype)`` table is memoized and holds a row only
        for the nodes looked up so far; rows looked up in any order
        equal a full ascending pass on a second context."""
        g = random_host(150, directed, random.Random(3), avg_degree=4)
        looked_up = list(g.nodes())
        random.Random(5).shuffle(looked_up)
        looked_up = looked_up[:40]
        lazy, full = MatchContext(g), MatchContext(g)
        # a typed "all" table on a directed host reads the out and in
        # tables, so those are checked before it touches them
        for kind in ("out", "in", "all"):
            for etype in (None, 0, 1):
                rows = lazy.rows(kind, etype)
                assert lazy.rows(kind, etype) is rows
                assert len(rows) == 0, (kind, etype)
                got = {v: rows[v] for v in looked_up}
                assert sorted(rows) == sorted(looked_up), (kind, etype)
                every = full.rows(kind, etype)
                ascending = [every[v] for v in g.nodes()]
                assert len(every) == g.n_nodes
                assert all(got[v] == ascending[v] for v in looked_up), (kind, etype)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(typed_graphs(max_nodes=8), min_size=1, max_size=6))
    def test_plan_cache_context_equals_standalone(self, graphs):
        """The plan cache's shared context for each host of a group
        equals the standalone build field by field, and content-equal
        hosts share one context."""
        graphs = graphs + [graphs[0].copy()]  # a rebuilt-identical host
        cache = MatchPlanCache()
        for g in graphs:
            ctx, key = cache.context(g)
            assert key == graph_content_key(g)
            ref = MatchContext(g)
            assert list(ctx.degrees) == list(ref.degrees)
            assert list(ctx.node_types) == list(ref.node_types)
            for kind in ("all", "out", "in"):
                for etype in (None, 0, 1):
                    a, b = ctx.rows(kind, etype), ref.rows(kind, etype)
                    assert [a[v] for v in g.nodes()] == [b[v] for v in g.nodes()]
            for direction in ("", "o", "i"):
                for etype in (0, 1):
                    for ntype in (0, 1, 2):
                        sig = (direction, etype, ntype)
                        assert list(ctx.sig_counts(sig)) == list(ref.sig_counts(sig))
        assert cache.context(graphs[-1])[0] is cache.context(graphs[0])[0]
        assert cache.context_builds == len({graph_content_key(g) for g in graphs})

    def test_plan_cache_context_follows_mutation(self):
        """A host mutated after its context was cached gets a fresh
        context that sees the new edge, because the key is the host's
        content."""
        cache = MatchPlanCache()
        g = Graph([0, 1, 2])
        g.add_edge(0, 1, 0)
        typed = Pattern.from_parts([1, 2], [(0, 1)], edge_types=[1])
        before, key = cache.context(g)
        assert not cache.contains(typed, g)
        g.add_edge(1, 2, 1)
        after, new_key = cache.context(g)
        assert new_key != key and after is not before
        assert list(after.degrees) == [1, 2, 1]
        assert after.rows("all", 1)[2] == 1 << 1
        assert cache.contains(typed, g)

    def test_prefilter_rejects_impossible_types(self):
        host = Graph([0, 0, 1])
        host.add_edge(0, 1)
        plan = MatchPlan(Pattern.from_parts([2], []))
        assert not plan.host_can_match(MatchContext(host))


class TestPlanCache:
    def test_cross_call_coverage_hits(self):
        cache = MatchPlanCache()
        host = Graph([0, 1, 0])
        host.add_edge(0, 1)
        host.add_edge(1, 2)
        p = Pattern.from_parts([0, 1], [(0, 1)])
        first = cache.coverage(p, host)
        before = cache.stats()["hits"]
        # a re-created pattern against a rebuilt-identical host: hit
        rebuilt = Graph([0, 1, 0])
        rebuilt.add_edge(0, 1)
        rebuilt.add_edge(1, 2)
        assert cache.coverage(Pattern.from_parts([0, 1], [(0, 1)]), rebuilt) == first
        assert cache.stats()["hits"] == before + 1
        # an isomorphic relabelling is matched on its own node ids, and
        # its uncapped coverage equals the first pattern's
        q = Pattern.from_parts([1, 0], [(0, 1)])
        assert cache.coverage(q, rebuilt) == first

    def test_batch_matches_content_identical_hosts_once(self):
        """A batch does no more matching than one-host calls in a row:
        hosts that share a content key are matched once."""
        hosts = [Graph([0, 1, 0]) for _ in range(3)]
        for h in hosts:
            h.add_edge(0, 1)
        p = Pattern.from_parts([0, 1], [(0, 1)])
        for method in ("coverage_many", "contains_many"):
            cache = MatchPlanCache()
            answers = getattr(cache, method)(p, hosts)
            assert answers[0] == answers[1] == answers[2]
            stats = cache.stats()
            assert (stats["misses"], stats["hits"], stats["context_builds"]) == (1, 2, 1)

    def test_contains_and_eviction(self):
        cache = MatchPlanCache(max_contexts=1, max_results=2)
        hosts = [Graph([0, i % 2]) for i in range(4)]
        for h in hosts:
            h.add_edge(0, 1)
        p = Pattern.from_parts([0, 1], [(0, 1)])
        results = [cache.contains(p, h) for h in hosts]
        assert results == [False, True, False, True]
        stats = cache.stats()
        assert stats["contexts"] == 1  # FIFO-capped
        assert stats["contains_entries"] <= 2

    def test_default_cap_is_match_cap(self):
        """``coverage`` and ``coverage_many`` stop at ``MATCH_CAP``
        mappings unless told otherwise, and ``repro.matching.coverage``
        re-exports that one cap."""
        assert coverage_module.MATCH_CAP is MATCH_CAP
        host = Graph([0] * (MATCH_CAP + 5))  # every node is a match
        p = Pattern.singleton(0)
        cache = MatchPlanCache()
        capped = cache.coverage(p, host)
        assert len(capped[0]) == MATCH_CAP
        assert cache.coverage_many(p, [host]) == [capped]
        assert len(cache.coverage(p, host, match_cap=MATCH_CAP + 1)[0]) == MATCH_CAP + 1

    def test_clear(self):
        cache = MatchPlanCache()
        cache.contains(Pattern.singleton(0), Graph([0]))
        cache.clear()
        assert cache.stats()["plans"] == 0

    def test_max_patterns_bounds_the_plan_table(self):
        """``max_patterns`` bounds the plan table, least recently used
        plan out first, and answers stay correct after eviction."""
        cache = MatchPlanCache(max_patterns=3)
        host = Graph([0, 1])
        host.add_edge(0, 1)
        edge = Pattern.from_parts([0, 1], [(0, 1)])
        assert cache.contains(edge, host)
        for t in range(5):  # overflow the plan table
            cache.contains(Pattern.singleton(t), host)
        assert cache.stats()["plans"] == 3
        assert cache.stats()["plan_builds"] == 6
        # the edge's plan was evicted: its coverage plans it again
        assert cache.coverage(edge, host) == ({0, 1}, {(0, 1)})
        assert cache.stats()["plan_builds"] == 7
        assert cache.contains(edge, host)
        assert not cache.contains(Pattern.singleton(9), host)
        assert cache.stats()["plans"] == 3

    def test_capped_coverage_ignores_call_history(self):
        """Capped coverage is enumerated on the caller's own pattern, so
        an isomorphic pattern asked first cannot change the answer."""
        host = graph_from_edges([0, 0, 1, 1], [(0, 3), (1, 2)])
        edge_10 = Pattern.from_parts([1, 0], [(0, 1)])
        expected = reference.match_coverage(edge_10, host, match_cap=1)
        assert {v for _, v in expected.nodes} == {1, 2}
        primed = MatchPlanCache()
        primed.coverage(Pattern.from_parts([0, 1], [(0, 1)]), host, match_cap=1)
        for cache in (MatchPlanCache(), primed):
            nodes, edges = cache.coverage(edge_10, host, match_cap=1)
            assert nodes == {1, 2} and edges == {(1, 2)}
            assert cache.coverage_many(edge_10, [host], match_cap=1) == [
                (nodes, edges)
            ]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_answers_equal_the_reference_in_any_call_order(self, data):
        """``coverage``, ``coverage_many`` and ``contains`` answer what
        the seed VF2 answers on the caller's pattern, for a pattern cut
        from a host and an isomorphic relabelling of it, every call
        asked once in a drawn order, at small caps."""
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        directed = data.draw(st.booleans())
        hosts = [
            random_host(rng.randrange(4, 10), directed, rng, rng.randrange(2, 5), 2)
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        pattern = cut_pattern(hosts[0], rng, data.draw(st.integers(2, 3)))
        n = pattern.n_nodes
        perm = data.draw(st.permutations(range(n)))
        types = [0] * n
        for v in range(n):
            types[perm[v]] = pattern.graph.node_type(v)
        relabelled = Graph(types, directed=directed)
        for u, v, t in pattern.graph.edges():
            relabelled.add_edge(perm[u], perm[v], t)
        patterns = [pattern, Pattern(relabelled)]
        calls = [
            (op, p, h, cap)
            for op in ("coverage", "coverage_many", "contains")
            for p in patterns
            for h in hosts
            for cap in (1, 2, 3, MATCH_CAP)
        ]

        def expected(p, h, cap):
            cov = reference.match_coverage(p, h, match_cap=cap)
            return {v for _, v in cov.nodes}, {e for _, e in cov.edges}

        cache = MatchPlanCache()
        for op, p, h, cap in data.draw(st.permutations(calls)):
            if op == "coverage":
                assert cache.coverage(p, h, cap) == expected(p, h, cap)
            elif op == "coverage_many":
                assert cache.coverage_many(p, hosts, cap) == [
                    expected(p, g, cap) for g in hosts
                ]
            else:
                found = any(True for _ in reference.find_isomorphisms(p, h, 1))
                assert cache.contains(p, h) == found

    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(pattern_host_pairs(), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_concurrent_mixed_queries_bit_identical(self, pairs, seed):
        """The multi-worker serve pool's contract on the shared cache.

        Four threads fire interleaved coverage/contains queries at one
        cache with deliberately tiny bounds (so eviction races with
        lookups); every answer must equal the single-threaded reference
        and no thread may observe an exception or a torn entry.
        """
        single = MatchPlanCache()
        expected = [
            (single.coverage(p, h), single.contains(p, h)) for p, h in pairs
        ]
        shared = MatchPlanCache(max_contexts=2, max_results=8)
        barrier = threading.Barrier(4)
        errors, observed = [], {}

        def worker(tid):
            rng = random.Random(seed + tid)
            order = list(range(len(pairs))) * 3
            rng.shuffle(order)
            out = []
            barrier.wait(timeout=10)
            try:
                for idx in order:
                    p, h = pairs[idx]
                    out.append((idx, shared.coverage(p, h),
                                shared.contains(p, h)))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            observed[tid] = out

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for out in observed.values():
            for idx, cov, cont in out:
                assert (cov, cont) == expected[idx]
        stats = shared.stats()
        assert stats["contexts"] <= 2  # bounds hold under the race

    def test_reinit_after_fork_replaces_lock_and_contents(self):
        cache = MatchPlanCache()
        cache.contains(Pattern.singleton(0), Graph([0]))
        old_lock = cache._lock
        cache._reinit_after_fork()
        assert cache._lock is not old_lock
        assert cache.stats()["plans"] == 0
        # and the cache still works after reinit
        assert cache.contains(Pattern.singleton(0), Graph([0]))


# ----------------------------------------------------------------------
# pmatch: database-batched == per-host
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    hosts=st.lists(typed_graphs(max_nodes=6, directed=False), min_size=1, max_size=4),
    pair=pattern_host_pairs(),
)
def test_pmatch_equals_per_host(hosts, pair):
    pattern, extra = pair
    if extra.directed != hosts[0].directed:
        extra = hosts[0]
    if pattern.graph.directed:
        pattern = Pattern.singleton(0)
    group = hosts + [extra]
    batched = pmatch(pattern, group)
    for h, host in enumerate(group):
        single = reference.match_coverage(pattern, host, h)
        assert batched[h].nodes == single.nodes
        assert batched[h].edges == single.edges


# ----------------------------------------------------------------------
# mining / incremental-matcher parity
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(hosts=st.lists(typed_graphs(max_nodes=6), min_size=1, max_size=3))
def test_mined_patterns_bit_identical(hosts):
    hosts = [h for h in hosts if not h.directed] or [Graph([0, 0])]
    with reference.reference_matcher():
        ref = mine_patterns(hosts, max_size=3)
    fast = mine_patterns(hosts, max_size=3)
    assert [
        (m.pattern.graph.node_types.tolist(), m.pattern.graph.edge_types,
         m.support, m.embeddings)
        for m in ref
    ] == [
        (m.pattern.graph.node_types.tolist(), m.pattern.graph.edge_types,
         m.support, m.embeddings)
        for m in fast
    ]


def test_incremental_matcher_agrees_with_reference():
    """The subset index's coverage of each ``IncUpdateP`` candidate is,
    after every admission, the seed VF2's coverage in ``G[V_S]``."""
    host = graph_from_edges([0, 0, 0, 1], [(0, 1), (0, 2), (1, 2), (2, 3)])
    tri = Pattern.from_parts([0, 0, 0], [(0, 1), (1, 2), (0, 2)])
    index = SubsetIndex(host, 3)
    for v in host.nodes():
        index.add(v)
        pool = index.pool([tri])
        vs_sub, ids = host.induced_subgraph(index.nodes)
        with reference.reference_matcher():
            matcher = CoverageIndex([vs_sub])
            expected = [matcher.coverage(c.pattern()) for c in pool]
        assert [(c.nodes, c.edges) for c in pool] == [
            (
                {ids[u] for _, u in cov.nodes},
                {(ids[a], ids[b]) for _, (a, b) in cov.edges},
            )
            for cov in expected
        ]
    assert pool[0].nodes == {0, 1, 2}


# ----------------------------------------------------------------------
# zoo-wide end-to-end parity: views, coverage, query DSL
# ----------------------------------------------------------------------
def zoo_setup(dataset):
    info = dataset_info(dataset)
    db = load_dataset(dataset, scale="test", seed=0)
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    return db, model


def view_fingerprint(views):
    return [
        (
            view.label,
            [(s.graph_index, s.nodes, s.score) for s in view.subgraphs],
            [(p.key(), sorted(p.graph.edge_types.items())) for p in view.patterns],
            view.edge_loss,
        )
        for view in views
    ]


@pytest.mark.parametrize("dataset", ZOO)
def test_zoo_views_and_queries_bit_identical(dataset):
    db, model = zoo_setup(dataset)
    config = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 5)

    def run():
        views = explain_database(db, model, config)
        index = ViewIndex(views, db=db)
        patterns = [p for view in views for p in view.patterns]
        queries = []
        for p in patterns:
            occs = index.select(Q.pattern(p))
            queries.append([(o.label, o.graph_index, o.in_explanation) for o in occs])
            occs = index.select(Q.pattern(p) & Q.in_scope("graphs"))
            queries.append([(o.label, o.graph_index, o.in_explanation) for o in occs])
        hosts = [s.subgraph for view in views for s in view.subgraphs]
        cov = CoverageIndex(hosts)
        coverage = [
            (sorted(cov.coverage(p).nodes), sorted(cov.coverage(p).edges))
            for p in patterns
        ]
        return view_fingerprint(views), queries, coverage

    # Psum reads PGen's coverage; rematch_coverage puts it on the matcher
    with reference.reference_matcher(), reference.rematch_coverage():
        expected = run()
    assert run() == expected


def test_reference_matcher_bypasses_plan_cache(mutagen_db):
    """Inside ``reference_matcher()`` nothing reads or fills the
    process-wide plan cache, so the parity arms above really compare
    two independent implementations."""
    model = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=0)
    before = PLAN_CACHE.stats()
    with reference.reference_matcher():
        views = explain_database(
            mutagen_db, model, GvexConfig().with_bounds(0, 4)
        )
        index = ViewIndex(views, db=mutagen_db)
        for view in views:
            for p in view.patterns:
                index.select(Q.pattern(p) & Q.in_scope("graphs"))
    assert PLAN_CACHE.stats() == before


def test_global_plan_cache_is_shared():
    # Psum-style coverage then an index build over the same hosts: the
    # second consumer must hit the process-wide cache, not re-match
    host = Graph([0, 1, 0])
    host.add_edge(0, 1)
    host.add_edge(1, 2)
    p = Pattern.from_parts([0, 1], [(0, 1)])
    PLAN_CACHE.coverage(p, host)
    before = PLAN_CACHE.stats()["hits"]
    PLAN_CACHE.contains(p, host)  # containment derives from coverage
    assert PLAN_CACHE.stats()["hits"] == before + 1
