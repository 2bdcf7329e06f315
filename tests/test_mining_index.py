"""The pieces of StreamGVEX's pattern side (hypothesis properties).

* ESU's order: sorting enumerated subsets by :func:`esu_path` gives
  back the emission order; the ``nodes`` and ``containing`` options
  restrict the one ESU without changing what it finds.
* The classifier: two subsets' signatures are equal exactly when their
  ``Pattern.from_induced`` content keys are.
* The subset index: after every admit and evict, its pool is
  ``mine_patterns`` over ``G[V_S]`` element for element, also when the
  enumeration cap truncates; each candidate's coverage is the
  matcher's over ``G[V_S]``; and ``IncUpdateP`` through the index
  selects what re-mining selects.
* The lazy ΔP: its two answers (any fresh class; any fresh class of two
  or more nodes) are those of the listed ΔP, also under a small cap;
  inside a node set ``S`` of the host it yields what it yields over
  ``G[S]``, in the same order, also where the cap binds.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GvexConfig
from repro.core.streaming import StreamGvex
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.io import graph_to_dict
from repro.graphs.pattern import Pattern
from repro.matching.coverage import MATCH_CAP, CoverageIndex
from repro.mining.classes import SubsetClassifier, subset_signature
from repro.mining.enumerate import connected_node_subsets, esu_path
from repro.mining.index import SubsetIndex
from repro.mining.mdl import MinedPattern
from repro.mining.pgen import FRESH_CAP, fresh_classes, mine_incremental, mine_patterns
from repro.reference import remine_inc_update_p, remined_delta


#: ``IncUpdateP`` reads no model; the explainer only needs one to exist
MODEL = GnnClassifier(2, 2, hidden_dims=(4,), seed=0)


@st.composite
def graphs(draw, max_nodes=9, max_types=2):
    n = draw(st.integers(1, max_nodes))
    types = draw(st.lists(st.integers(0, max_types - 1), min_size=n, max_size=n))
    directed = draw(st.booleans())
    g = Graph(types, directed=directed)
    pairs = (
        [(u, v) for u in range(n) for v in range(n) if u != v]
        if directed
        else list(combinations(range(n), 2))
    )
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)):
            if not g.has_edge(u, v):
                g.add_edge(u, v, draw(st.integers(0, 1)))
    return g


def wire(mined):
    return [
        (m.pattern.graph.content_key(), graph_to_dict(m.pattern.graph), m.support, m.embeddings)
        for m in mined
    ]


def mined(index, max_candidates=50):
    """The index's pool with no incumbents, as ``mine_patterns`` lists it."""
    return [
        MinedPattern(c.pattern(), support=1, embeddings=c.embeddings)
        for c in index.pool([], max_candidates)
    ]


def assert_coverage_is_the_matchers(index, max_candidates):
    """Every candidate covers, in host ids, what the matcher finds in
    ``G[V_S]``: one pattern per live subset content and both flavours
    of singleton per node type as incumbents, then the pool itself."""
    g = index.graph
    vs_sub, ids = g.induced_subgraph(index.nodes)
    incumbents = {}
    for s in connected_node_subsets(
        g, index.max_size, min_size=2, cap=None, nodes=index.nodes
    ):
        p = Pattern.from_induced(g, s)
        incumbents.setdefault(p.graph.content_key(), p)
    for t in sorted(set(vs_sub.node_types.tolist())):
        incumbents[("singleton", t)] = Pattern.singleton(t)
        incumbents[("directed", t)] = Pattern(Graph([t], directed=True))
    matcher = CoverageIndex([vs_sub])
    for c in index.pool(list(incumbents.values()), max_candidates):
        if c.mappings > MATCH_CAP:
            continue  # the matcher stops short; IncUpdateP falls back
        cov = matcher.coverage(c.pattern())
        assert c.nodes == {ids[v] for _, v in cov.nodes}
        assert c.edges == {(ids[u], ids[w]) for _, (u, w) in cov.edges}


# ----------------------------------------------------------------------
# ESU's order
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(g=graphs(), max_size=st.integers(1, 5))
def test_esu_path_sorts_subsets_into_emission_order(g, max_size):
    subsets = list(connected_node_subsets(g, max_size, cap=None))
    assert sorted(subsets, key=lambda s: esu_path(g, s)) == subsets
    for s in subsets:
        path = esu_path(g, s)
        assert sorted(path) == list(s) and path[0] == s[0]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=graphs(), max_size=st.integers(1, 5))
def test_restricted_esu_equals_esu_on_the_induced_subgraph(data, g, max_size):
    keep = sorted(data.draw(st.sets(st.integers(0, g.n_nodes - 1), min_size=1)))
    cap = data.draw(st.sampled_from([None, 1, 3, 10]))
    sub, ids = g.induced_subgraph(keep)
    want = [
        tuple(ids[v] for v in s)
        for s in connected_node_subsets(sub, max_size, cap=cap)
    ]
    assert list(connected_node_subsets(g, max_size, cap=cap, nodes=keep)) == want
    # containing=: exactly the subsets holding that node, each once
    node = data.draw(st.sampled_from(keep))
    rooted = list(
        connected_node_subsets(g, max_size, min_size=2, cap=None, nodes=keep, containing=node)
    )
    every = connected_node_subsets(g, max_size, min_size=2, cap=None, nodes=keep)
    assert len(rooted) == len(set(rooted))
    assert set(rooted) == {s for s in every if node in s}


# ----------------------------------------------------------------------
# the classifier
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(a=graphs(max_nodes=7), b=graphs(max_nodes=7), max_size=st.integers(1, 5))
def test_signatures_equal_exactly_when_content_keys_are(a, b, max_size):
    subsets = [(h, s) for h in (a, b) for s in connected_node_subsets(h, max_size, cap=40)]
    keys = [Pattern.from_induced(h, s).graph.content_key() for h, s in subsets]
    sigs = [subset_signature(h, s) for h, s in subsets]
    for i in range(len(subsets)):
        for j in range(i, len(subsets)):
            assert (sigs[i] == sigs[j]) == (keys[i] == keys[j])
    # one classifier across both hosts: classes are isomorphism classes
    classifier = SubsetClassifier()
    classes = [classifier.classify(h, s) for h, s in subsets]
    for (h, s), cls in zip(subsets, classes):
        assert classifier.class_of(Pattern.from_induced(h, s)) == cls


# ----------------------------------------------------------------------
# the subset index
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    g=graphs(),
    max_size=st.integers(1, 5),
    cap=st.sampled_from([100_000, 0, 1, 2, 3, 5, 8]),
    max_candidates=st.sampled_from([50, 1, 2]),
)
def test_index_pool_equals_mine_patterns_after_every_step(
    data, g, max_size, cap, max_candidates
):
    index = SubsetIndex(g, max_size, enumeration_cap=cap)
    # IncUpdateP reads an index with the production cap, which is the
    # cap re-mining uses; each side carries its own incumbents along
    stream = SubsetIndex(g, max_size)
    config = GvexConfig(max_pattern_size=max_size)
    algo = StreamGvex(MODEL, config)
    got, want = [], []
    for _ in range(data.draw(st.integers(1, 12))):
        outside = [v for v in g.nodes() if v not in index.nodes]
        evict = index.nodes and (not outside or data.draw(st.booleans()))
        if evict:
            v = data.draw(st.sampled_from(sorted(index.nodes)))
            index.drop(v)
            stream.drop(v)
        else:
            v = data.draw(st.sampled_from(outside))
            index.add(v)
            stream.add(v)
        if not index.nodes:
            continue
        vs_sub, _ = g.induced_subgraph(index.nodes)
        expected = mine_patterns(
            [vs_sub], max_size, 1, max_candidates=max_candidates, enumeration_cap=cap
        )
        assert wire(mined(index, max_candidates)) == wire(expected)
        assert_coverage_is_the_matchers(index, max_candidates)
        algo._inc_update_p(g, set(index.nodes), got, config, stream)
        remine_inc_update_p(algo, g, set(index.nodes), want, config, None)
        assert [graph_to_dict(p.graph) for p in got] == [
            graph_to_dict(p.graph) for p in want
        ]


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 9, 100_000])
def test_index_counts_only_the_cap_smallest_paths(cap):
    """Past ``enumeration_cap`` live subsets, the pool counts only the
    cap smallest ESU paths, as ``mine_patterns``' truncated ESU does."""
    host = graph_from_edges([0, 1, 0, 1, 0, 1], [(i, (i + 1) % 6) for i in range(6)])
    index = SubsetIndex(host, 4, enumeration_cap=cap)
    for v in (5, 2, 4, 0, 3, 1):
        index.add(v)
    expected = mine_patterns([host], 4, 1, max_candidates=50, enumeration_cap=cap)
    assert wire(mined(index)) == wire(expected)


def test_index_breaks_full_ties_by_esu_path():
    """A directed path, an out-star and an in-star tie on MDL, size and
    WL key (``_wl_key`` ignores direction); only their first subsets'
    ESU paths order them. Admitting the later components first puts
    the classes in the index in the opposite order."""
    host = graph_from_edges(
        [0] * 9,
        [(0, 1), (1, 2), (3, 4), (3, 5), (6, 8), (7, 8)],
        directed=True,
    )
    index = SubsetIndex(host, 3)
    for v in reversed(host.nodes()):
        index.add(v)
    pool = mined(index)
    expected = mine_patterns([host], 3, 1, max_candidates=50)
    assert wire(pool) == wire(expected)
    triples = [m for m in pool if m.pattern.n_nodes == 3]
    assert len(triples) == 3
    assert len({(m.mdl_score, m.pattern.size, m.pattern.key()) for m in triples}) == 1
    firsts = [sorted(m.pattern.graph.edge_types) for m in triples]
    assert firsts == [[(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 2), (1, 2)]]


# ----------------------------------------------------------------------
# the lazy ΔP
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    g=graphs(),
    max_size=st.integers(1, 5),
    radius=st.integers(1, 2),
    cap=st.sampled_from([20_000, 1, 2, 4, 9]),
)
def test_lazy_delta_answers_equal_the_listed_delta(data, g, max_size, radius, cap):
    new_node = data.draw(st.integers(0, g.n_nodes - 1))
    seen = sorted(data.draw(st.sets(st.integers(0, g.n_nodes - 1))))
    known = (
        [m.pattern for m in mine_patterns([g.induced_subgraph(seen)[0]], max_size=3)]
        if seen
        else []
    )
    listed = mine_incremental(g, new_node, radius, known, max_size, cap)
    reference = remined_delta(g, new_node, radius, known, max_size, cap)
    assert [graph_to_dict(p.graph) for p in listed] == [
        graph_to_dict(p.graph) for _, p in reference
    ]
    # a classifier warmed on other subsets of the host answers the same
    warm = SubsetClassifier()
    for s in connected_node_subsets(g, max_size, cap=30):
        warm.classify(g, s)
    for classifier in (None, warm):
        lazy = fresh_classes(g, new_node, radius, known, max_size, cap, classifier)
        assert (next(lazy, None) is not None) == bool(listed)
        lazy = fresh_classes(g, new_node, radius, known, max_size, cap, classifier)
        assert any(len(s) >= 2 for s in lazy) == any(p.n_nodes >= 2 for p in listed)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    g=graphs(max_types=3),
    max_size=st.integers(1, 5),
    radius=st.integers(1, 3),
    cap=st.sampled_from([20_000, 1, 2, 4, 9]),
)
def test_delta_inside_a_node_set_is_the_delta_of_its_subgraph(
    data, g, max_size, radius, cap
):
    """``fresh_classes(host, v, nodes=S)`` yields what ``fresh_classes``
    over ``G[S]`` yields for ``v``, mapped to host ids, in order: the
    ball is taken inside ``S`` and the walk is ESU's over it."""
    keep = sorted(data.draw(st.sets(st.integers(0, g.n_nodes - 1), min_size=1)))
    new_node = data.draw(st.sampled_from(keep))
    vs = sorted(data.draw(st.sets(st.sampled_from(keep))))
    known = (
        [m.pattern for m in mine_patterns([g.induced_subgraph(vs)[0]], max_size=3)]
        if vs
        else []
    )
    sub, ids = g.induced_subgraph(keep)
    want = [
        tuple(ids[v] for v in s)
        for s in fresh_classes(sub, ids.index(new_node), radius, known, max_size, cap)
    ]
    got = fresh_classes(g, new_node, radius, known, max_size, cap, nodes=keep)
    assert list(got) == want


def test_delta_inside_a_node_set_caps_where_its_subgraph_does():
    """A ball of 37,005 subsets inside ``S``: both walks stop at
    ``FRESH_CAP`` at the same subset, before the class of the edge
    ``(t, v)``. Low-id nodes outside ``S`` are adjacent to it, so a walk
    that counted them, took the ball in the host, or ran only the
    subsets holding ``v`` would yield another list."""
    clique, t, v = list(range(3, 24)), 24, 25
    host = Graph([0] * 24 + [2, 1])
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            host.add_edge(a, b)
        host.add_edge(a, v)
        if a < 9:
            for outside in (0, 1, 2):
                host.add_edge(outside, a)
    host.add_edge(t, v)
    keep = clique + [t, v]
    ball = host.k_hop_nodes(v, 2, within=set(keep))
    assert sum(1 for _ in connected_node_subsets(host, 5, cap=None, nodes=ball)) > FRESH_CAP
    known = [Pattern.singleton(0)]
    sub, ids = host.induced_subgraph(keep)
    want = [tuple(ids[u] for u in s) for s in fresh_classes(sub, ids.index(v), 2, known)]
    assert (t, v) not in want
    assert list(fresh_classes(host, v, 2, known, nodes=keep)) == want
