"""Psum's pool priced by PGen's own enumeration, against the matcher.

``PMatch`` is induced, so a mined candidate's matches in a host are the
subsets ``mine_patterns`` put in its class: each candidate carries the
union of their nodes and induced edges as its ``coverage``, and
``summarize`` runs the matcher only where that could differ (a host
that reached ``enumeration_cap``, a candidate with more than
``MATCH_CAP`` possible mappings in one host) or where the caller
injected the pool. :func:`repro.reference.rematch_coverage` prices
every candidate with the matcher, as Psum did before; both must select
the same patterns, with the same counts, on drawn host groups, past
each cap, and across the dataset zoo.
"""

from dataclasses import replace
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GvexConfig, VERIFY_SOFT
from repro.core import psum
from repro.core.approx import explain_database
from repro.core.psum import summarize
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.io import graph_to_dict, viewset_to_dict
from repro.matching.coverage import MATCH_CAP, CoverageIndex
from repro.mining.pgen import mine_patterns
from repro.reference import rematch_coverage


@st.composite
def hosts(draw, edge_types):
    """A typed host: 1-7 nodes, then 0-2 isolated ones."""
    n = draw(st.integers(1, 7))
    directed = draw(st.booleans())
    pairs = (
        [(u, v) for u in range(n) for v in range(n) if u != v]
        if directed
        else list(combinations(range(n), 2))
    )
    n_all = n + draw(st.integers(0, 2))
    g = Graph(draw(st.lists(st.integers(0, 1), min_size=n_all, max_size=n_all)),
              directed=directed)
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)):
            g.add_edge(u, v, draw(st.integers(0, edge_types - 1)))
    return g


@st.composite
def host_groups(draw):
    edge_types = draw(st.integers(1, 3))
    return draw(st.lists(hosts(edge_types), min_size=1, max_size=4))


def outcome(result):
    return (
        [graph_to_dict(p.graph) for p in result.patterns],
        result.covered_nodes,
        result.total_nodes,
        result.covered_edges,
        result.total_edges,
        result.edge_loss,
    )


def summarized_both_ways(group, config):
    got = summarize(group, config)
    with rematch_coverage():
        want = summarize(group, config)
    return outcome(got), outcome(want)


@settings(max_examples=120, deadline=None)
@given(group=host_groups(), max_size=st.integers(1, 5))
def test_mined_coverage_is_the_matchers(group, max_size):
    """Every candidate's coverage equals ``CoverageIndex``'s, and Psum
    selects what it selects when the matcher prices the pool."""
    index = CoverageIndex(group)
    for mined in mine_patterns(group, max_size=max_size):
        if mined.coverage is None:  # left to the matcher
            assert mined.pattern.n_nodes > 3
            continue
        assert mined.coverage == index.coverage(mined.pattern), mined
    got, want = summarized_both_ways(group, GvexConfig(max_pattern_size=max_size))
    assert got == want


def test_psum_prices_with_the_matcher_where_its_cap_binds():
    """One host ``K_9 ∪ K_5``, one node type. The 5-clique class has
    C(9,5) + 1 = 127 subsets and up to 15,240 mappings; the matcher
    stops at 10,000 of them, having covered only the K_9, so Psum
    selects the 4-clique. The union of the subsets covers all 14 nodes
    and every edge, and would select the 5-clique, which ranks first."""
    cliques = list(combinations(range(9), 2)) + list(combinations(range(9, 14), 2))
    host = graph_from_edges([0] * 14, cliques)
    got, want = summarized_both_ways([host], GvexConfig(max_pattern_size=5))
    assert got == want
    assert [len(p["node_types"]) for p in got[0]] == [4]
    k5 = next(m for m in mine_patterns([host]) if m.pattern.n_nodes == 5)
    assert k5.embeddings * 120 > MATCH_CAP
    assert k5.coverage is None


def test_psum_prices_with_the_matcher_where_enumeration_stops(monkeypatch):
    """A 5-node path of one type with the enumeration capped at 2
    subsets: the edge class was seen on {0, 1, 2} only, yet matches
    every edge. A capped host leaves the pool to the matcher, so Psum
    selects the edge alone, as it does on the matcher's pricing of the
    same pool; the enumeration's coverage would add a singleton."""
    host = graph_from_edges([0] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    capped = partial(mine_patterns, enumeration_cap=2)
    mined = capped([host], max_size=2)
    config = GvexConfig(max_pattern_size=2)
    monkeypatch.setattr(psum, "mine_patterns", capped)
    got = summarize([host], config)
    pool = [replace(m, coverage=None) for m in mined]
    want = summarize([host], config, candidates=pool)
    assert outcome(got) == outcome(want)
    assert [p.n_nodes for p in got.patterns] == [2]
    # singletons are not enumerated, so the cap leaves them priced
    assert [m.coverage is None for m in mined] == [True, False]
    assert mined[1].coverage == CoverageIndex([host]).coverage(mined[1].pattern)


def test_injected_pool_is_priced_by_the_matcher():
    """A caller's pool is priced by the matcher, whatever coverage its
    candidates carry."""
    host = graph_from_edges([0, 0, 0], [(0, 1), (1, 2)])
    pool = mine_patterns([host], max_size=2)
    wrong = [replace(m, coverage=pool[-1].coverage) for m in pool]
    result = summarize([host], GvexConfig(), candidates=wrong)
    assert outcome(result) == outcome(summarize([host], GvexConfig(), candidates=pool))
    assert result.covered_edges == 2


@pytest.mark.parametrize("bounds", [(0, 5), (2, 8)])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_views_equal_matcher_priced_psum_across_zoo(dataset, bounds, monkeypatch):
    """``explain_database`` gives the views it gives when the matcher
    prices Psum's pool, and its Psum runs no matcher at all."""
    db = load_dataset(dataset, scale="test", seed=0)
    info = dataset_info(dataset)
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    config = GvexConfig(verification=VERIFY_SOFT).with_bounds(*bounds)
    priced = []
    coverage = CoverageIndex.coverage

    def counted(index, pattern):
        priced.append(pattern)
        return coverage(index, pattern)

    monkeypatch.setattr(CoverageIndex, "coverage", counted)
    with rematch_coverage():
        matched = viewset_to_dict(explain_database(db, model, config))
    assert priced
    del priced[:]
    views = explain_database(db, model, config)
    assert viewset_to_dict(views) == matched, (dataset, bounds)
    assert priced == []
    assert any(view.patterns for view in views)
