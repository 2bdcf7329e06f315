"""Unit tests for repro.graphs.generators and io, and the networkx bridge."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs import generators as gen
from repro.graphs import io
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import graph_from_edges
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet
from tests.networkx_bridge import from_networkx, to_networkx


class TestGenerators:
    def test_chain(self):
        g = gen.chain_graph([0, 1, 2])
        assert g.n_edges == 2
        assert g.is_connected()

    def test_ring(self):
        g = gen.ring_graph([0] * 5)
        assert g.n_edges == 5
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_ring_too_small(self):
        with pytest.raises(GraphError):
            gen.ring_graph([0, 0])

    def test_star(self):
        g = gen.star_graph(4, center_type=1)
        assert g.degree(0) == 4
        assert g.node_type(0) == 1

    def test_biclique(self):
        g = gen.biclique_graph(2, 3)
        assert g.n_edges == 6
        assert g.degree(0) == 3

    def test_house_motif(self):
        g = gen.house_motif()
        assert g.n_nodes == 5
        assert g.n_edges == 6

    def test_cycle_motif(self):
        g = gen.cycle_motif(6)
        assert g.n_nodes == 6 and g.n_edges == 6

    def test_random_tree(self):
        g = gen.random_tree(10, seed=0)
        assert g.n_edges == 9
        assert g.is_connected()

    def test_barabasi_albert(self):
        g = gen.barabasi_albert(30, 2, seed=0)
        assert g.n_nodes == 30
        assert g.is_connected()
        assert g.n_edges >= 28

    def test_barabasi_albert_deterministic(self):
        a = gen.barabasi_albert(20, 2, seed=5)
        b = gen.barabasi_albert(20, 2, seed=5)
        assert a == b

    def test_erdos_renyi_extremes(self):
        assert gen.erdos_renyi(10, 0.0, seed=0).n_edges == 0
        assert gen.erdos_renyi(5, 1.0, seed=0).n_edges == 10

    def test_sbm(self):
        g, blocks = gen.stochastic_block_model([5, 5], 0.9, 0.05, seed=0)
        assert g.n_nodes == 10
        assert list(blocks[:5]) == [0] * 5

    def test_disjoint_union(self):
        a = gen.chain_graph([0, 1])
        b = gen.ring_graph([2, 2, 2])
        u, parts = gen.disjoint_union([a, b])
        assert u.n_nodes == 5
        assert u.n_edges == 4
        assert parts[1] == [2, 3, 4]
        assert not u.has_edge(1, 2)

    def test_attach_motif_keeps_motif_induced(self):
        host = gen.chain_graph([0] * 4)
        motif = gen.ring_graph([1, 1, 1])
        combined, motif_ids = gen.attach_motif(host, motif, anchor=0, seed=3)
        assert combined.n_nodes == 7
        sub, _ = combined.induced_subgraph(motif_ids)
        assert sub.n_edges == 3  # ring intact
        assert combined.is_connected()


class TestIo:
    def test_graph_roundtrip(self, tmp_path):
        g = graph_from_edges(
            [0, 1, 2], [(0, 1), (1, 2)], features=np.eye(3), directed=False
        )
        d = io.graph_to_dict(g)
        assert io.graph_from_dict(d) == g

    def test_directed_roundtrip(self):
        g = graph_from_edges([0, 1], [(0, 1)], directed=True)
        assert io.graph_from_dict(io.graph_to_dict(g)) == g

    def test_database_roundtrip(self, tmp_path):
        db = GraphDatabase(
            [graph_from_edges([0, 1], [(0, 1)])], labels=[1], name="x"
        )
        path = tmp_path / "db.json"
        io.save_database(db, path)
        loaded = io.load_database(path)
        assert loaded.name == "x"
        assert loaded.labels == [1]
        assert loaded[0] == db[0]

    def test_viewset_roundtrip(self, tmp_path):
        sub = graph_from_edges([0, 1], [(0, 1)])
        view = ExplanationView(
            label="mutagen",
            score=1.5,
            subgraphs=[
                ExplanationSubgraph(0, (2, 5), sub, consistent=True, score=0.7)
            ],
            patterns=[Pattern.from_parts([0, 1], [(0, 1)])],
        )
        vs = ViewSet()
        vs.add(view)
        path = tmp_path / "views.json"
        io.save_views(vs, path)
        loaded = io.load_views(path)
        assert "mutagen" in loaded
        got = loaded["mutagen"]
        assert got.score == 1.5
        assert got.subgraphs[0].nodes == (2, 5)
        assert got.subgraphs[0].consistent and not got.subgraphs[0].counterfactual
        assert got.patterns[0].key() == view.patterns[0].key()

    def test_empty_view_round_trips_byte_stable(self, tmp_path):
        """A label group with no subgraphs persists ``"score": 0.0``, so
        save -> load -> save writes the same bytes."""
        from repro.config import GvexConfig
        from repro.runtime import assemble_views

        views = assemble_views({}, GvexConfig(), [0, 1])
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        io.save_views(views, first)
        io.save_views(io.load_views(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestViewsSchema:
    """The versioned views wire format (schema 2, v1 read-compat)."""

    def test_writes_current_schema_marker(self):
        d = io.viewset_to_dict(ViewSet())
        assert d["schema"] == io.VIEWS_SCHEMA_VERSION == 2

    def test_v1_files_without_marker_still_load(self):
        sub = graph_from_edges([0, 1], [(0, 1)])
        view = ExplanationView(
            label=1,
            score=2.0,
            subgraphs=[ExplanationSubgraph(0, (0, 1), sub, consistent=True)],
            patterns=[Pattern.from_parts([0, 1], [(0, 1)])],
        )
        vs = ViewSet()
        vs.add(view)
        v1 = io.viewset_to_dict(vs)
        del v1["schema"]
        for item in v1["views"]:
            del item["edge_loss"]  # v1 predates edge_loss serialization
        loaded = io.viewset_from_dict(v1)
        assert loaded[1].score == 2.0
        assert loaded[1].edge_loss == 0.0

    def test_unknown_future_schema_rejected(self):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            io.viewset_from_dict({"schema": 99, "views": []})

    def test_non_empty_views_round_trip_byte_for_byte(self, tmp_path):
        sub = graph_from_edges([0, 1, 2], [(0, 1), (1, 2)])
        vs = ViewSet()
        vs.add(
            ExplanationView(
                label=1,
                score=0.75,
                edge_loss=0.125,
                subgraphs=[
                    ExplanationSubgraph(
                        3, (2, 5, 9), sub, consistent=True, score=0.375
                    )
                ],
                patterns=[Pattern.from_parts([0, 1], [(0, 1)])],
            )
        )
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        io.save_views(vs, first)
        io.save_views(io.load_views(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("subgraph", "graph_index", 1.5),
            ("subgraph", "graph_index", True),
            ("subgraph", "graph_index", -1),
            ("subgraph", "graph_index", 2**63),
            ("subgraph", "nodes", [0.7, 1.2]),
            ("subgraph", "nodes", [False, 1]),
            ("subgraph", "nodes", "01"),
            ("subgraph", "consistent", "false"),
            ("subgraph", "counterfactual", "no"),
            ("subgraph", "counterfactual", 0),
            ("subgraph", "score", "0.5"),
            ("subgraph", "score", True),
            ("view", "label", 1.5),
            ("view", "label", True),
            ("view", "label", None),
            ("view", "score", "2.0"),
            ("view", "edge_loss", False),
        ],
    )
    def test_refuses_what_it_would_coerce(self, where, key, value):
        """Views files follow graph_from_dict's rule: a value of the
        wrong kind raises ValidationError instead of loading coerced."""
        from repro.exceptions import ValidationError

        sub = graph_from_edges([0, 1], [(0, 1)])
        vs = ViewSet()
        vs.add(
            ExplanationView(
                label=1,
                score=2.0,
                subgraphs=[ExplanationSubgraph(0, (0, 1), sub, consistent=True)],
            )
        )
        d = io.viewset_to_dict(vs)
        view = d["views"][0]
        (view if where == "view" else view["subgraphs"][0])[key] = value
        with pytest.raises(ValidationError):
            io.viewset_from_dict(d)

    def test_schema2_preserves_edge_loss(self):
        vs = ViewSet()
        vs.add(ExplanationView(label=0, edge_loss=0.25))
        assert io.viewset_from_dict(io.viewset_to_dict(vs))[0].edge_loss == 0.25

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, data):
        """Any generated view set survives dict -> JSON -> dict intact."""
        vs = ViewSet()
        n_views = data.draw(st.integers(0, 3))
        for label in range(n_views):
            n_subs = data.draw(st.integers(0, 3))
            subgraphs = []
            for s in range(n_subs):
                n = data.draw(st.integers(1, 4))
                types = data.draw(
                    st.lists(st.integers(0, 3), min_size=n, max_size=n)
                )
                edges = [(i, i + 1) for i in range(n - 1)]
                g = graph_from_edges(types, edges)
                nodes = tuple(
                    sorted(
                        data.draw(
                            st.sets(st.integers(0, 30), min_size=n, max_size=n)
                        )
                    )
                )
                subgraphs.append(
                    ExplanationSubgraph(
                        graph_index=s,
                        nodes=nodes,
                        subgraph=g,
                        consistent=data.draw(st.booleans()),
                        counterfactual=data.draw(st.booleans()),
                        score=data.draw(
                            st.floats(0, 10, allow_nan=False).map(
                                lambda x: round(x, 6)
                            )
                        ),
                    )
                )
            patterns = []
            if subgraphs:
                patterns.append(Pattern.from_induced(subgraphs[0].subgraph,
                                                     [0]))
            vs.add(
                ExplanationView(
                    label=label,
                    subgraphs=subgraphs,
                    patterns=patterns,
                    score=data.draw(
                        st.floats(0, 100, allow_nan=False).map(
                            lambda x: round(x, 6)
                        )
                    ),
                    edge_loss=data.draw(
                        st.floats(0, 1, allow_nan=False).map(
                            lambda x: round(x, 6)
                        )
                    ),
                )
            )
        wire = json.loads(json.dumps(io.viewset_to_dict(vs)))
        loaded = io.viewset_from_dict(wire)
        assert loaded.labels == vs.labels
        for label in vs.labels:
            a, b = vs[label], loaded[label]
            assert a.score == b.score and a.edge_loss == b.edge_loss
            assert [p.key() for p in a.patterns] == [p.key() for p in b.patterns]
            assert len(a.subgraphs) == len(b.subgraphs)
            for sa, sb in zip(a.subgraphs, b.subgraphs):
                assert sa.nodes == sb.nodes
                assert sa.graph_index == sb.graph_index
                assert sa.subgraph == sb.subgraph
                assert sa.consistent == sb.consistent
                assert sa.counterfactual == sb.counterfactual
                assert sa.score == sb.score


class TestConvert:
    def test_to_networkx_types(self):
        g = graph_from_edges([3, 4], [(0, 1)])
        nxg = to_networkx(g)
        assert nxg.nodes[0]["type"] == 3
        assert nxg.edges[0, 1]["type"] == 0

    def test_roundtrip(self):
        g = graph_from_edges([1, 2, 3], [(0, 1), (1, 2)])
        assert from_networkx(to_networkx(g)) == g

    def test_directed_roundtrip(self):
        g = graph_from_edges([0, 1], [(0, 1)], directed=True)
        back = from_networkx(to_networkx(g))
        assert back.directed
        assert back.has_edge(0, 1) and not back.has_edge(1, 0)
