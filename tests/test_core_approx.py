"""End-to-end tests for ApproxGVEX (Algorithm 1)."""

import pytest

from repro.config import (
    GvexConfig,
    SCOPE_PER_GROUP,
    VERIFY_NONE,
    VERIFY_PAPER,
    VERIFY_SOFT,
)
from repro.core.approx import ApproxGvex, explain_database, explain_graph
from repro.core.verifiers import verify_view
from repro.graphs.graph import graph_from_edges
from repro.matching.coverage import CoverageIndex

from tests.conftest import C, N, O


class TestExplainGraph:
    def test_respects_upper_bound(self, trained_model, mutagen_db, small_config):
        g = mutagen_db[1]
        label = trained_model.predict(g)
        result = explain_graph(trained_model, g, label, small_config)
        assert result.subgraph is not None
        assert result.subgraph.n_nodes <= 6

    def test_respects_lower_bound(self, trained_model, mutagen_db):
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(4, 8)
        g = mutagen_db[1]
        label = trained_model.predict(g)
        result = explain_graph(trained_model, g, label, config)
        assert result.subgraph is not None
        assert 4 <= result.subgraph.n_nodes <= 8

    def test_unreachable_lower_bound_returns_none(self, trained_model, mutagen_db):
        g = mutagen_db[0]
        config = GvexConfig().with_bounds(g.n_nodes + 5, g.n_nodes + 10)
        label = trained_model.predict(g)
        result = explain_graph(trained_model, g, label, config)
        assert result.subgraph is None

    def test_empty_graph(self, trained_model, small_config):
        result = explain_graph(
            trained_model, graph_from_edges([], []), 0, small_config
        )
        assert result.subgraph is None

    def test_score_positive(self, trained_model, mutagen_db, small_config):
        g = mutagen_db[3]
        label = trained_model.predict(g)
        result = explain_graph(trained_model, g, label, small_config)
        assert result.subgraph.score > 0

    def test_finds_motif_nodes_on_mutagens(self, trained_model, mutagen_db):
        """The selected nodes should overlap the planted NO2 motif."""
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5)
        hits, total = 0, 0
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1 or trained_model.predict(mutagen_db[idx]) != 1:
                continue
            g = mutagen_db[idx]
            result = explain_graph(trained_model, g, 1, config, graph_index=idx)
            if result.subgraph is None:
                continue
            motif = {v for v in g.nodes() if g.node_type(v) in (N, O)}
            total += 1
            if motif & set(result.subgraph.nodes):
                hits += 1
        assert total > 0
        assert hits / total >= 0.7

    @pytest.mark.parametrize("mode", [VERIFY_SOFT, VERIFY_NONE, VERIFY_PAPER])
    def test_all_modes_run(self, trained_model, mutagen_db, mode):
        from dataclasses import replace

        config = replace(
            GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5),
            verification=mode,
        )
        g = mutagen_db[1]
        label = trained_model.predict(g)
        result = explain_graph(trained_model, g, label, config)
        # paper mode may legitimately return None when nothing verifies
        if result.subgraph is not None:
            assert result.subgraph.n_nodes <= 5


class TestApproxGvexDatabase:
    def test_views_for_all_labels(self, trained_model, mutagen_db, small_config):
        views = explain_database(mutagen_db, trained_model, small_config)
        assert len(views) == 2
        for view in views:
            assert view.label in (0, 1)
            assert view.subgraphs, f"no subgraphs for label {view.label}"
            assert view.patterns, f"no patterns for label {view.label}"

    def test_patterns_cover_subgraph_nodes(self, trained_model, mutagen_db, small_config):
        views = explain_database(mutagen_db, trained_model, small_config)
        for view in views:
            index = CoverageIndex([s.subgraph for s in view.subgraphs])
            assert index.covers_all_nodes(view.patterns)

    def test_label_subset(self, trained_model, mutagen_db, small_config):
        algo = ApproxGvex(trained_model, small_config, labels=[1])
        views = algo.explain(mutagen_db)
        assert views.labels == [1]

    def test_view_score_is_sum_of_subgraph_scores(
        self, trained_model, mutagen_db, small_config
    ):
        views = explain_database(mutagen_db, trained_model, small_config)
        for view in views:
            assert view.score == pytest.approx(
                sum(s.score for s in view.subgraphs)
            )

    def test_verify_view_end_to_end(self, trained_model, mutagen_db, small_config):
        """Generated views satisfy C1 and the per-graph C3 bound."""
        views = explain_database(mutagen_db, trained_model, small_config)
        for view in views:
            result = verify_view(
                view, mutagen_db.graphs, trained_model, small_config, label=view.label
            )
            assert result.c1_patterns_cover_nodes
            assert result.c3_properly_covers

    def test_most_subgraphs_consistent(self, trained_model, mutagen_db):
        """Soft mode gates growth on consistency, so nearly all produced
        subgraphs should satisfy M(G_s) = M(G) (the Fidelity- story;
        hard counterfactual label flips are measured probabilistically
        by the paper's Fidelity+ metric instead)."""
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 8)
        views = explain_database(mutagen_db, trained_model, config)
        subs = [s for v in views for s in v.subgraphs]
        assert subs
        consistent = sum(1 for s in subs if s.consistent)
        assert consistent / len(subs) >= 0.8

    def test_group_coverage_scope_budget(self, trained_model, mutagen_db):
        from dataclasses import replace

        config = replace(
            GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 12),
            coverage_scope=SCOPE_PER_GROUP,
        )
        views = explain_database(mutagen_db, trained_model, config)
        for view in views:
            assert view.n_subgraph_nodes <= 12

    def test_predicted_labels_override(self, trained_model, mutagen_db, small_config):
        algo = ApproxGvex(trained_model, small_config)
        forced = [0] * len(mutagen_db)
        views = algo.explain(mutagen_db, predicted=forced)
        assert views.labels == [0]
        assert len(views[0].subgraphs) > 0


class _RankingStub:
    """Verifier stub for ``_grow_lazy``'s confident branch.

    Every selection is confident (0.95 > τ) and never counterfactual, so
    growth runs to the upper bound; the remainder probability of
    ``S ∪ {v}`` is ``rest[v]``. ``asked`` records, per selection, the
    probabilities the ranking read.
    """

    def __init__(self, rest):
        self.rest = rest
        self.selected = frozenset()
        self.asked = {}

    def subset_probability(self, nodes, label):
        return 0.95

    def prefetch_extensions(self, base, candidates):
        return 0

    def prefetch_remainders(self, keys):
        return 0

    def remainder_probability(self, nodes, label):
        (v,) = frozenset(nodes) - self.selected
        self.asked.setdefault(self.selected, {})[v] = self.rest[v]
        return self.rest[v]

    def check(self, nodes, label):
        self.selected = frozenset(nodes)
        return False, False


class TestTieOnlyNovelty:
    """Novelty is mined only for candidates tied at the lowest remainder
    probability, and the ranking still picks what the eager ``min``
    over every candidate's novelty picked."""

    NAN = float("nan")
    TYPES = [C, C, C, C, C, C, N, O, O, N, O, C]
    EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7),
             (6, 8), (3, 9), (9, 10), (4, 11)]
    # exact ties at the minimum in every round, a NaN that leads the
    # first round's ranking (min() keeps it) and one that never wins
    REST = [NAN, 0.4, 0.25, 0.3, 0.25, 0.3, 0.25, 0.25, 0.5, NAN, 0.25, 0.3]
    #: selection order of the eager ranking, recorded before novelty
    #: became tie-only; mining every candidate ("all novel") gives
    #: [0, 4, 10, 2, 6, 7, 3, 5] instead, so novelty decides here
    PINNED = [0, 6, 7, 4, 10, 2, 3, 5]

    def _grow(self, monkeypatch):
        from repro.core import approx
        from repro.core.explainability import ExplainabilityOracle
        from repro.gnn.model import GnnClassifier

        graph = graph_from_edges(self.TYPES, self.EDGES)
        model = GnnClassifier(3, 2, hidden_dims=(8, 8), seed=0)
        oracle = ExplainabilityOracle(model, graph, GvexConfig())
        state = oracle.new_state()
        stub = _RankingStub(self.REST)
        order, mined = [], []
        add, novelty = oracle.add, approx._pattern_novelty

        def record_add(st, v):
            order.append(int(v))
            return add(st, v)

        def record_novelty(g, selected, pool):
            mined.append((frozenset(selected), sorted(pool)))
            return novelty(g, selected, pool)

        monkeypatch.setattr(oracle, "add", record_add)
        monkeypatch.setattr(approx, "_pattern_novelty", record_novelty)
        approx._grow_lazy(graph, stub, oracle, state, set(), 1, 0, 8, VERIFY_SOFT)
        return order, mined, stub

    def test_choice_matches_eager_ranking(self, monkeypatch):
        order, _, _ = self._grow(monkeypatch)
        assert order == self.PINNED

    def test_mines_only_ties_at_the_minimum(self, monkeypatch):
        _, mined, stub = self._grow(monkeypatch)
        assert mined
        for selected, candidates in mined:
            asked = stub.asked[selected]
            low = min(p for p in asked.values() if p == p)
            assert candidates == sorted(v for v, p in asked.items() if p == low)
            assert len(candidates) > 1
