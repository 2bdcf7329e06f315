"""Tests for fidelity, conciseness, and capability metrics."""

import numpy as np
import pytest

from repro.api.registry import explainer_specs
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import graph_from_edges
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationSubgraph, ExplanationView, ViewSet
from repro.metrics.capability import COLUMNS, capability_rows, capability_table
from repro.metrics.conciseness import (
    mean_compression,
    mean_edge_loss,
    sparsity,
    sparsity_single,
)
from repro.metrics.fidelity import (
    fidelity_minus_single,
    fidelity_plus_single,
    fidelity_scores,
)

from tests.conftest import N, O


def _expl(graph, nodes, idx=0):
    sub, _ = graph.induced_subgraph(nodes)
    return ExplanationSubgraph(idx, tuple(nodes), sub)


class TestFidelity:
    def test_motif_explanation_high_fidelity_plus(self, trained_model, mutagen_db):
        """Removing the true motif should drop P(mutagen) substantially."""
        values = []
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1 or trained_model.predict(mutagen_db[idx]) != 1:
                continue
            g = mutagen_db[idx]
            motif = [v for v in g.nodes() if g.node_type(v) in (N, O)]
            values.append(fidelity_plus_single(trained_model, g, motif, 1))
        assert values
        assert np.mean(values) > 0.3

    def test_motif_explanation_low_fidelity_minus(self, trained_model, mutagen_db):
        values = []
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1 or trained_model.predict(mutagen_db[idx]) != 1:
                continue
            g = mutagen_db[idx]
            motif = [v for v in g.nodes() if g.node_type(v) in (N, O)]
            values.append(fidelity_minus_single(trained_model, g, motif, 1))
        assert np.mean(values) < 0.3

    def test_full_graph_explanation_fidelity_minus_zero(self, trained_model, mutagen_db):
        g = mutagen_db[0]
        label = trained_model.predict(g)
        assert fidelity_minus_single(
            trained_model, g, list(g.nodes()), label
        ) == pytest.approx(0.0)

    def test_fidelity_scores_aggregates(self, trained_model, mutagen_db):
        expls = {}
        for idx in range(4):
            g = mutagen_db[idx]
            expls[idx] = _expl(g, list(g.nodes())[:3], idx)
        plus, minus = fidelity_scores(trained_model, mutagen_db, expls)
        assert np.isfinite(plus) and np.isfinite(minus)

    def test_empty_explanations(self, trained_model, mutagen_db):
        assert fidelity_scores(trained_model, mutagen_db, {}) == (0.0, 0.0)


class TestConciseness:
    def test_sparsity_single(self):
        g = graph_from_edges([0] * 4, [(0, 1), (1, 2), (2, 3)])
        expl = _expl(g, [0, 1])
        # (4 nodes + 3 edges), expl has 2 nodes + 1 edge -> 1 - 3/7
        assert sparsity_single(4, 3, expl) == pytest.approx(1 - 3 / 7)

    def test_sparsity_average(self):
        g = graph_from_edges([0] * 4, [(0, 1), (1, 2), (2, 3)])
        db = GraphDatabase([g, g])
        expls = {0: _expl(g, [0]), 1: _expl(g, [0, 1, 2, 3])}
        got = sparsity(db, expls)
        expected = ((1 - 1 / 7) + (1 - 7 / 7)) / 2
        assert got == pytest.approx(expected)

    def test_sparsity_empty(self):
        db = GraphDatabase([graph_from_edges([0], [])])
        assert sparsity(db, {}) == 0.0

    def test_compression_and_edge_loss(self):
        g = graph_from_edges([0, 1], [(0, 1)])
        view = ExplanationView(label=0, edge_loss=0.25)
        view.subgraphs.append(_expl(g, [0, 1]))
        view.patterns.append(Pattern.singleton(0))
        vs = ViewSet()
        vs.add(view)
        assert mean_compression(vs) == pytest.approx(1 - 1 / 3)
        assert mean_edge_loss(vs) == pytest.approx(0.25)

    def test_empty_viewset(self):
        assert mean_compression(ViewSet()) == 0.0
        assert mean_edge_loss(ViewSet()) == 0.0


class TestCapability:
    def test_rows_match_class_count(self):
        rows = capability_rows()
        table1 = [spec for spec in explainer_specs() if spec.in_table1]
        assert [r[0] for r in rows] == [s.cls.capabilities.name for s in table1]
        assert all(len(r) == len(COLUMNS) for r in rows)

    def test_gvex_rows_fully_featured(self):
        for row in capability_rows():
            if row[0].startswith("GVEX"):
                assert row[4:] == ["yes"] * 6

    def test_table_renders(self):
        table = capability_table()
        assert "GVEX" in table
        assert "SubgraphX" in table
        assert "Queryable" in table
