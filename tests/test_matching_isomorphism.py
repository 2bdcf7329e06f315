"""Tests for induced subgraph isomorphism, with networkx as the oracle."""

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms import isomorphism as nxiso

from repro.graphs.generators import erdos_renyi, ring_graph
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.pattern import Pattern
from repro.matching.canonical import deduplicate_patterns
from repro.matching.isomorphism import (
    are_isomorphic,
    find_isomorphisms,
    first_isomorphism,
    is_subgraph_isomorphic,
)
from tests.networkx_bridge import to_networkx


def _nx_induced_isomorphic(pattern: Pattern, host: Graph) -> bool:
    """Oracle: networkx induced-subgraph isomorphism with type matching."""
    h = to_networkx(host)
    p = to_networkx(pattern.graph)
    node_match = nxiso.categorical_node_match("type", None)
    edge_match = nxiso.categorical_edge_match("type", None)
    cls = nxiso.DiGraphMatcher if host.directed else nxiso.GraphMatcher
    return cls(h, p, node_match=node_match, edge_match=edge_match).subgraph_is_isomorphic()


class TestBasicMatching:
    def test_singleton_matches_same_type(self):
        host = graph_from_edges([0, 1, 1], [(0, 1), (1, 2)])
        assert is_subgraph_isomorphic(Pattern.singleton(1), host)
        assert not is_subgraph_isomorphic(Pattern.singleton(7), host)

    def test_edge_pattern(self):
        host = graph_from_edges([0, 1, 2], [(0, 1), (1, 2)])
        assert is_subgraph_isomorphic(Pattern.from_parts([0, 1], [(0, 1)]), host)
        # no 0-2 edge in host
        assert not is_subgraph_isomorphic(Pattern.from_parts([0, 2], [(0, 1)]), host)

    def test_induced_semantics(self):
        # triangle host; a path pattern on the same 3 types must NOT match
        # because the extra host edge violates induced semantics
        host = graph_from_edges([0, 0, 0], [(0, 1), (1, 2), (2, 0)])
        path = Pattern.from_parts([0, 0, 0], [(0, 1), (1, 2)])
        tri = Pattern.from_parts([0, 0, 0], [(0, 1), (1, 2), (2, 0)])
        assert not is_subgraph_isomorphic(path, host)
        assert is_subgraph_isomorphic(tri, host)

    def test_edge_types_respected(self):
        host = Graph([0, 0])
        host.add_edge(0, 1, edge_type=5)
        good = Pattern.from_parts([0, 0], [(0, 1)], edge_types=[5])
        bad = Pattern.from_parts([0, 0], [(0, 1)], edge_types=[1])
        assert is_subgraph_isomorphic(good, host)
        assert not is_subgraph_isomorphic(bad, host)

    def test_directed_orientation(self):
        host = graph_from_edges([0, 1], [(0, 1)], directed=True)
        fwd = Pattern.from_parts([0, 1], [(0, 1)], directed=True)
        bwd = Pattern.from_parts([1, 0], [(0, 1)], directed=True)  # 1 -> 0
        assert is_subgraph_isomorphic(fwd, host)
        assert not is_subgraph_isomorphic(bwd, host)

    def test_directedness_must_agree(self):
        host = graph_from_edges([0, 1], [(0, 1)], directed=True)
        undirected = Pattern.from_parts([0, 1], [(0, 1)])
        assert not is_subgraph_isomorphic(undirected, host)

    def test_pattern_larger_than_host(self):
        host = graph_from_edges([0, 0], [(0, 1)])
        big = Pattern.from_parts([0] * 3, [(0, 1), (1, 2)])
        assert not is_subgraph_isomorphic(big, host)

    def test_limit_respected(self):
        host = ring_graph([0] * 6)
        edge = Pattern.from_parts([0, 0], [(0, 1)])
        assert len(list(find_isomorphisms(edge, host, limit=3))) == 3
        assert list(find_isomorphisms(edge, host, limit=0)) == []

    def test_match_count_ring(self):
        # each of 6 ring edges matches in 2 orientations
        host = ring_graph([0] * 6)
        edge = Pattern.from_parts([0, 0], [(0, 1)])
        assert len(list(find_isomorphisms(edge, host))) == 12

    def test_mapping_is_valid(self):
        host = graph_from_edges([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3)])
        pat = Pattern.from_parts([0, 1], [(0, 1)])
        for mapping in find_isomorphisms(pat, host):
            for pv, hv in mapping.items():
                assert pat.node_type(pv) == host.node_type(hv)
            assert host.has_edge(mapping[0], mapping[1])

    def test_first_isomorphism_none(self):
        host = graph_from_edges([0], [])
        assert first_isomorphism(Pattern.singleton(9), host) is None


class TestAgainstNetworkxOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_undirected(self, seed):
        rng = np.random.default_rng(seed)
        host = erdos_renyi(8, 0.35, seed=seed)
        host.node_types[:] = rng.integers(0, 3, size=8)
        # random connected pattern: induced from a host BFS ball or random graph
        if seed % 2 == 0:
            center = int(rng.integers(0, 8))
            nodes = list(host.k_hop_nodes(center, 1))[:4]
            if not host.is_connected_subset(nodes):
                nodes = [center]
            pattern = Pattern.from_induced(host, nodes)
        else:
            cand = erdos_renyi(4, 0.6, seed=seed + 100)
            cand.node_types[:] = rng.integers(0, 3, size=4)
            comp = cand.connected_components()[0]
            pattern = Pattern.from_induced(cand, comp)
        assert is_subgraph_isomorphic(pattern, host) == _nx_induced_isomorphic(
            pattern, host
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_directed(self, seed):
        rng = np.random.default_rng(seed + 50)
        host = erdos_renyi(7, 0.3, seed=seed, directed=True)
        host.node_types[:] = rng.integers(0, 2, size=7)
        cand = erdos_renyi(3, 0.7, seed=seed + 7, directed=True)
        cand.node_types[:] = rng.integers(0, 2, size=3)
        comp = cand.connected_components()[0]
        pattern = Pattern.from_induced(cand, comp)
        assert is_subgraph_isomorphic(pattern, host) == _nx_induced_isomorphic(
            pattern, host
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_induced_subsets_always_match(self, seed):
        rng = np.random.default_rng(seed)
        host = erdos_renyi(9, 0.4, seed=seed)
        host.node_types[:] = rng.integers(0, 4, size=9)
        center = int(rng.integers(0, 9))
        nodes = sorted(host.k_hop_nodes(center, 1))[:5]
        if not host.is_connected_subset(nodes):
            nodes = [center]
        pattern = Pattern.from_induced(host, nodes)
        assert is_subgraph_isomorphic(pattern, host)


class TestExactIsomorphism:
    def test_relabelled_rings(self):
        a = Pattern(ring_graph([0, 1, 2, 0]))
        b = Pattern(ring_graph([2, 0, 0, 1]))
        assert are_isomorphic(a, b)

    def test_size_mismatch(self):
        a = Pattern.singleton(0)
        b = Pattern.from_parts([0, 0], [(0, 1)])
        assert not are_isomorphic(a, b)

    def test_same_degree_sequence_different_graphs(self):
        # path P4 vs star S3: both 4 nodes 3 edges, not isomorphic
        path = Pattern.from_parts([0] * 4, [(0, 1), (1, 2), (2, 3)])
        star = Pattern.from_parts([0] * 4, [(0, 1), (0, 2), (0, 3)])
        assert not are_isomorphic(path, star)

    def test_deduplicate_patterns(self):
        a = Pattern.from_parts([0, 1], [(0, 1)])
        b = Pattern.from_parts([1, 0], [(0, 1)])  # isomorphic to a
        c = Pattern.from_parts([1, 1], [(0, 1)])
        unique = deduplicate_patterns([a, b, c, a])
        assert len(unique) == 2
        assert unique[0] is a
