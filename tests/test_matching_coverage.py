"""Tests for pattern coverage (PMatch) and the incremental matcher (IncPMatch)."""

import pytest

from repro.exceptions import GraphError
from repro.graphs.generators import chain_graph, ring_graph
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.pattern import Pattern
from repro.matching.coverage import CoverageIndex, covered_node_count, match_coverage
from repro.mining.index import SubsetIndex

#: triangle 0-1-2, a type-1 node 3 hanging off 2, then triangle 3-4-5
STREAM_HOST = graph_from_edges(
    [0, 0, 0, 1, 0, 0], [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
)
TRIANGLE = Pattern.from_parts([0, 0, 0], [(0, 1), (1, 2), (2, 0)])


def incumbent(index, pattern):
    """The index's coverage of ``pattern`` in ``G[V_S]`` as an incumbent."""
    return index.pool([pattern], max_candidates=0)[0]


def batch(index, pattern):
    """The matcher's coverage of ``pattern`` in ``G[V_S]``, in host ids."""
    vs_sub, ids = index.graph.induced_subgraph(index.nodes)
    cov = match_coverage(pattern, vs_sub)
    nodes = {ids[v] for _, v in cov.nodes}
    return nodes, {(ids[u], ids[w]) for _, (u, w) in cov.edges}


class TestMatchCoverage:
    def test_full_coverage_of_matching_host(self):
        host = ring_graph([0] * 5)
        ring = Pattern(ring_graph([0] * 5))
        cov = match_coverage(ring, host)
        assert cov.n_nodes == 5
        assert cov.n_edges == 5

    def test_partial_coverage(self):
        # type-1 singleton covers only the type-1 nodes
        host = graph_from_edges([0, 1, 1, 0], [(0, 1), (1, 2), (2, 3)])
        cov = match_coverage(Pattern.singleton(1), host)
        assert cov.nodes == frozenset({(0, 1), (0, 2)})
        assert cov.n_edges == 0

    def test_edge_coverage_canonical_keys(self):
        host = chain_graph([0, 0, 0])
        edge = Pattern.from_parts([0, 0], [(0, 1)])
        cov = match_coverage(edge, host)
        assert cov.edges == frozenset({(0, (0, 1)), (0, (1, 2))})

    def test_no_match_empty_coverage(self):
        host = chain_graph([0, 0])
        cov = match_coverage(Pattern.singleton(5), host)
        assert cov.n_nodes == 0 and cov.n_edges == 0

    def test_match_cap_limits_work(self):
        host = ring_graph([0] * 8)
        edge = Pattern.from_parts([0, 0], [(0, 1)])
        cov = match_coverage(edge, host, match_cap=1)
        assert cov.n_nodes == 2


class TestCoverageIndex:
    def test_multi_host_coverage(self):
        hosts = [chain_graph([0, 1]), chain_graph([1, 1])]
        index = CoverageIndex(hosts)
        cov = index.coverage(Pattern.singleton(1))
        assert cov.nodes == frozenset({(0, 1), (1, 0), (1, 1)})
        assert index.n_nodes == 4
        assert index.n_edges == 2

    def test_cache_shared_for_isomorphic_patterns(self):
        """Patterns are memoized by content: an isomorphic relabelling
        is matched on its own node ids and, uncapped, covers the same."""
        hosts = [chain_graph([0, 1, 0])]
        index = CoverageIndex(hosts)
        a = Pattern.from_parts([0, 1], [(0, 1)])
        b = Pattern.from_parts([1, 0], [(0, 1)])
        assert index.coverage(a) == index.coverage(b)
        assert index.coverage(Pattern.from_parts([0, 1], [(0, 1)])) is index.coverage(a)

    def test_covers_all_nodes(self):
        hosts = [chain_graph([0, 1, 0])]
        index = CoverageIndex(hosts)
        assert not index.covers_all_nodes([Pattern.singleton(0)])
        assert index.covers_all_nodes(
            [Pattern.singleton(0), Pattern.singleton(1)]
        )

    def test_covered_node_count(self):
        hosts = [chain_graph([0, 1]), chain_graph([0, 0])]
        assert covered_node_count([Pattern.singleton(0)], hosts) == 3


class TestIncrementalMatcher:
    """``IncPMatch`` is :class:`SubsetIndex`: as ``V_S`` streams in and
    out, it prices each ``IncUpdateP`` candidate with its coverage of
    ``G[V_S]`` without running the matcher."""

    def test_streaming_matches_batch(self):
        """After every admission, the index covers what the matcher
        covers on the induced subgraph of the nodes admitted so far."""
        index = SubsetIndex(STREAM_HOST, 3)
        single1 = Pattern.singleton(1)
        for v in STREAM_HOST.nodes():
            index.add(v)
            for pattern in (TRIANGLE, single1):
                got = incumbent(index, pattern)
                assert (got.nodes, got.edges) == batch(index, pattern), (v, pattern)
        assert incumbent(index, TRIANGLE).nodes == {0, 1, 2}
        assert incumbent(index, TRIANGLE).edges == {(0, 1), (0, 2), (1, 2)}
        assert incumbent(index, single1).nodes == {3}

    def test_evicted_node_takes_its_coverage(self):
        index = SubsetIndex(STREAM_HOST, 3)
        for v in STREAM_HOST.nodes():
            index.add(v)
        index.drop(1)
        edge = Pattern.from_parts([0, 0], [(0, 1)])
        assert incumbent(index, TRIANGLE).nodes == set()
        assert (incumbent(index, edge).nodes, incumbent(index, edge).edges) == (
            {0, 2, 4, 5},
            {(0, 2), (4, 5)},
        )
        index.add(1)
        assert incumbent(index, TRIANGLE).nodes == {0, 1, 2}

    def test_register_after_stream_catches_up(self):
        """A pattern the index first sees after the stream is priced
        from the subsets already indexed."""
        index = SubsetIndex(chain_graph([0, 0]), 3)
        index.add(0)
        index.add(1)
        edge = Pattern.from_parts([0, 0], [(0, 1)])
        assert incumbent(index, edge).nodes == {0, 1}
        assert incumbent(index, edge).edges == {(0, 1)}
        assert incumbent(index, TRIANGLE).nodes == set()

    def test_union_covered_nodes(self):
        index = SubsetIndex(Graph([0, 1, 2]), 3)
        for v in (0, 1, 2):
            index.add(v)
        pool = index.pool([Pattern.singleton(0), Pattern.singleton(1)], 0)
        assert pool[0].nodes | pool[1].nodes == {0, 1}
        # then one singleton candidate per node type of V_S
        assert [c.nodes for c in pool[2:]] == [{0}, {1}, {2}]

    def test_node_outside_the_graph_rejected(self):
        index = SubsetIndex(chain_graph([0, 0]), 3)
        index.add(0)
        for node in (2, -1):
            with pytest.raises(GraphError):
                index.add(node)
        assert index.nodes == {0}
        assert incumbent(index, Pattern.singleton(0)).nodes == {0}

    def test_directed_stream(self):
        host = graph_from_edges([0, 1], [(0, 1)], directed=True)  # edge 0 -> 1
        fwd = Pattern.from_parts([0, 1], [(0, 1)], directed=True)
        bwd = Pattern.from_parts([1, 0], [(0, 1)], directed=True)
        index = SubsetIndex(host, 3)
        index.add(0)
        assert incumbent(index, fwd).nodes == set()
        index.add(1)
        assert incumbent(index, fwd).nodes == {0, 1}
        assert incumbent(index, fwd).edges == {(0, 1)}
        assert incumbent(index, bwd).nodes == set()
        # a one-node pattern matches only hosts of its own directedness
        singletons = [Pattern.singleton(0), Pattern(Graph([0], directed=True))]
        for pattern in [fwd, bwd, *singletons]:
            got = incumbent(index, pattern)
            assert (got.nodes, got.edges) == batch(index, pattern), pattern
