"""Tests for EVerify/VpExtend/view verification and Psum."""

import pytest

from repro.config import GvexConfig, VERIFY_PAPER, VERIFY_SOFT
from repro.core.approx import explain_graph
from repro.core.psum import summarize
from repro.core.verifiers import (
    BatchedGnnVerifier,
    GnnVerifier,
    uniform_prior,
    verify_view,
    vp_extend,
    vp_extend_frontier,
)
from repro.exceptions import ModelError
from repro.graphs.generators import chain_graph, ring_graph
from repro.graphs.graph import Graph, graph_from_edges
from repro.graphs.pattern import Pattern
from repro.graphs.view import ExplanationSubgraph, ExplanationView
from repro.matching.coverage import CoverageIndex
from repro.mining.mdl import MinedPattern

from tests.conftest import C, N, O, nitro_motif


class TestGnnVerifier:
    @pytest.mark.parametrize("cls", [GnnVerifier, BatchedGnnVerifier])
    def test_construction_launches_no_forward(
        self, trained_model, mutagen_db, monkeypatch, cls
    ):
        """``M(G)`` is no verifier's business: building one runs no
        forward pass, serial or stacked."""
        launched = []
        for name in ("predict", "predict_proba", "predict_proba_batch"):
            real = getattr(trained_model, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                launched.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(trained_model, name, spy)
        verifier = cls(trained_model, mutagen_db[1])
        assert launched == []
        assert verifier.inference_calls == 0

    def test_subset_label_cached(self, trained_model, mutagen_db):
        g = mutagen_db[0]
        verifier = GnnVerifier(trained_model, g)
        first = verifier.label_of_nodes([0, 1])
        calls = verifier.inference_calls
        second = verifier.label_of_nodes({1, 0})
        assert first == second
        assert verifier.inference_calls == calls  # cache hit

    def test_remainder_of_everything_is_empty_label(self, trained_model, mutagen_db):
        g = mutagen_db[0]
        verifier = GnnVerifier(trained_model, g)
        assert verifier.label_of_remainder(range(g.n_nodes)) is None

    def test_check_empty_set(self, trained_model, mutagen_db):
        verifier = GnnVerifier(trained_model, mutagen_db[0])
        assert verifier.check([], 0) == (False, False)

    def test_motif_subgraph_is_explanation(self, trained_model, mutagen_db):
        """Removing the planted NO2 motif flips a mutagen's label."""
        flips = 0
        checked = 0
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1:
                continue
            g = mutagen_db[idx]
            if trained_model.predict(g) != 1:
                continue
            verifier = GnnVerifier(trained_model, g)
            motif_nodes = [
                v
                for v in g.nodes()
                if g.node_type(v) in (N, O)
            ]
            checked += 1
            _, counterfactual = verifier.check(motif_nodes, 1)
            flips += counterfactual
        assert checked > 0
        assert flips / checked >= 0.8


class TestUniformPriorFallbacks:
    """Empty-set / full-graph edge cases answer from the shared prior."""

    @pytest.fixture(params=[GnnVerifier, BatchedGnnVerifier])
    def verifier(self, request, trained_model, mutagen_db):
        return request.param(trained_model, mutagen_db[0])

    def test_uniform_prior_helper(self):
        prior = uniform_prior(4)
        assert prior.shape == (4,)
        assert all(p == 0.25 for p in prior)
        with pytest.raises(ValueError):
            uniform_prior(0)

    def test_empty_subset_probability(self, verifier):
        expected = 1.0 / verifier.model.n_classes
        for label in range(verifier.model.n_classes):
            assert verifier.subset_probability([], label) == expected
        assert verifier.inference_calls == 0  # no forward launched

    def test_full_graph_remainder_probability(self, verifier):
        n = verifier.graph.n_nodes
        expected = 1.0 / verifier.model.n_classes
        assert verifier.remainder_probability(range(n), 0) == expected
        # superset keys (id multiplicity aside) behave the same
        assert verifier.remainder_probability(list(range(n)) * 2, 1) == expected
        assert verifier.inference_calls == 0

    def test_label_edge_cases(self, verifier):
        assert verifier.label_of_nodes([]) is None
        assert verifier.label_of_remainder(range(verifier.graph.n_nodes)) is None
        assert verifier.check([], 0) == (False, False)
        assert verifier.inference_calls == 0

    def test_prefetch_skips_degenerate_keys(self, verifier):
        n = verifier.graph.n_nodes
        assert verifier.prefetch_subsets([frozenset()]) == 0
        assert verifier.prefetch_remainders([frozenset(range(n))]) == 0
        assert verifier.inference_calls == 0

    def test_subset_probability_of_whole_graph_is_real(self, verifier):
        """The *subset* covering all nodes is the graph itself — a valid
        (non-degenerate) query that must run inference."""
        n = verifier.graph.n_nodes
        label = verifier.model.predict(verifier.graph)
        p = verifier.subset_probability(range(n), label)
        assert 0.0 <= p <= 1.0
        assert verifier.inference_calls == 1
        assert p == pytest.approx(
            float(verifier.model.predict_proba(verifier.graph)[label])
        )


class _NoBatchModel:
    """A classifier with every method but ``predict_proba_batch``."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "predict_proba_batch":
            raise AttributeError(name)
        return getattr(self._inner, name)


class TestBatchedVerifierRefusal:
    def test_model_without_batch_forward_is_refused(
        self, trained_model, mutagen_db
    ):
        graph = mutagen_db[1]
        label = trained_model.predict(graph)
        model = _NoBatchModel(trained_model)
        with pytest.raises(ModelError, match="predict_proba_batch"):
            BatchedGnnVerifier(model, graph)
        # an object that cannot run any forward gets the same typed error
        with pytest.raises(ModelError, match="predict_proba_batch"):
            BatchedGnnVerifier(object(), graph)
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)
        with pytest.raises(ModelError, match="predict_proba_batch"):
            explain_graph(model, graph, label, config)
        # the serial schedule still answers for such a model
        assert GnnVerifier(model, graph).label_of_nodes(graph.nodes()) == label


class TestVpExtendFrontier:
    def test_matches_serial_vp_extend(self, trained_model, mutagen_db):
        g = mutagen_db[1]
        for mode in (VERIFY_SOFT, VERIFY_PAPER):
            verifier = GnnVerifier(trained_model, g)
            selected = frozenset({0})
            expected = [
                v
                for v in g.nodes()
                if vp_extend(v, selected, verifier, 1, 4, mode)
            ]
            frontier = vp_extend_frontier(
                g.nodes(), selected, BatchedGnnVerifier(trained_model, g), 1, 4, mode
            )
            assert frontier == expected

    def test_respects_upper_bound(self, trained_model, mutagen_db):
        verifier = BatchedGnnVerifier(trained_model, mutagen_db[0])
        assert (
            vp_extend_frontier(
                [2, 3], frozenset({0, 1}), verifier, 0, 2, VERIFY_PAPER
            )
            == []
        )
        assert verifier.inference_calls == 0  # over-bound: no probes


class TestVpExtend:
    def test_size_bound(self, trained_model, mutagen_db):
        verifier = GnnVerifier(trained_model, mutagen_db[0])
        assert not vp_extend(
            2, frozenset({0, 1}), verifier, 0, upper_bound=2, mode=VERIFY_SOFT
        )
        assert vp_extend(
            2, frozenset({0, 1}), verifier, 0, upper_bound=3, mode=VERIFY_SOFT
        )

    def test_already_selected(self, trained_model, mutagen_db):
        verifier = GnnVerifier(trained_model, mutagen_db[0])
        assert not vp_extend(0, frozenset({0}), verifier, 0, 10, VERIFY_SOFT)

    def test_paper_mode_requires_both_properties(self, trained_model, mutagen_db):
        # find a mutagen predicted correctly; its full motif should pass,
        # a single carbon should not
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1:
                continue
            g = mutagen_db[idx]
            if trained_model.predict(g) != 1:
                continue
            verifier = GnnVerifier(trained_model, g)
            motif = [v for v in g.nodes() if g.node_type(v) in (N, O)]
            consistent, counterfactual = verifier.check(motif, 1)
            if not (consistent and counterfactual):
                continue
            # motif minus one node, extended by that node, passes
            partial = frozenset(motif[:-1])
            assert vp_extend(motif[-1], partial, verifier, 1, 10, VERIFY_PAPER)
            return
        pytest.skip("no cleanly-verified mutagen in fixture")

    def test_unknown_mode_raises(self, trained_model, mutagen_db):
        verifier = GnnVerifier(trained_model, mutagen_db[0])
        with pytest.raises(ValueError):
            vp_extend(0, frozenset(), verifier, 0, 5, "bogus")


class TestPsum:
    def test_full_node_coverage(self):
        subs = [graph_from_edges([C, N, O, O], [(0, 1), (1, 2), (1, 3)])]
        result = summarize(subs, GvexConfig())
        assert result.node_coverage_complete
        index = CoverageIndex(subs)
        assert index.covers_all_nodes(result.patterns)

    def test_empty_input(self):
        result = summarize([], GvexConfig())
        assert result.patterns == []
        assert result.edge_loss == 0.0

    def test_prefers_structured_patterns(self):
        # two identical NO2-decorated chains: the shared motif should be
        # picked before singletons
        subs = []
        for _ in range(2):
            g = graph_from_edges(
                [C, C, N, O, O], [(0, 1), (1, 2), (2, 3), (2, 4)]
            )
            subs.append(g)
        result = summarize(subs, GvexConfig())
        assert result.node_coverage_complete
        assert any(p.n_nodes > 1 for p in result.patterns)

    def test_edge_loss_bounds(self):
        subs = [ring_graph([C] * 6)]
        result = summarize(subs, GvexConfig())
        assert 0.0 <= result.edge_loss <= 1.0

    def test_injected_candidates(self):
        subs = [chain_graph([C, C])]
        cands = [MinedPattern(Pattern.singleton(C), support=1, embeddings=2)]
        result = summarize(subs, GvexConfig(), candidates=cands)
        assert len(result.patterns) == 1
        assert result.node_coverage_complete
        assert result.edge_loss == 1.0  # singleton covers no edge

    def test_edgeless_subgraphs(self):
        subs = [Graph([C, N])]
        result = summarize(subs, GvexConfig())
        assert result.node_coverage_complete
        assert result.edge_loss == 0.0  # no edges to miss

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP 'Directed singleton patterns': Pattern.singleton builds "
            "an undirected graph, which matches nothing on a directed host"
        ),
    )
    def test_directed_isolated_node_is_covered(self):
        # Lemma 4.3's precondition: PGen's singletons can cover every node
        host = graph_from_edges([C, N, N], [(0, 1)], directed=True)
        result = summarize([host], GvexConfig())
        assert result.node_coverage_complete


class TestVerifyView:
    def _view_for(self, model, db, config, idx):
        g = db[idx]
        label = model.predict(g)
        motif = [v for v in g.nodes() if g.node_type(v) in (N, O)]
        sub, _ = g.induced_subgraph(motif)
        verifier = GnnVerifier(model, g)
        consistent, counterfactual = verifier.check(motif, label)
        view = ExplanationView(label=label)
        view.subgraphs.append(
            ExplanationSubgraph(
                idx, tuple(motif), sub, consistent, counterfactual, 0.0
            )
        )
        view.patterns = [Pattern(nitro_motif())]
        return view, label

    def test_valid_view_passes(self, trained_model, mutagen_db, small_config):
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1 or trained_model.predict(mutagen_db[idx]) != 1:
                continue
            view, pred = self._view_for(trained_model, mutagen_db, small_config, idx)
            if not (view.subgraphs[0].consistent and view.subgraphs[0].counterfactual):
                continue
            result = verify_view(
                view, mutagen_db.graphs, trained_model, small_config, label=pred
            )
            assert result.c1_patterns_cover_nodes
            assert result.c2_explanations_valid
            assert result.c3_properly_covers
            assert result.ok
            return
        pytest.skip("no verified mutagen available")

    def test_c1_fails_without_covering_patterns(self, trained_model, mutagen_db, small_config):
        view, pred = self._view_for(trained_model, mutagen_db, small_config, 1)
        view.patterns = [Pattern.singleton(N)]  # leaves the O's uncovered
        result = verify_view(
            view, mutagen_db.graphs, trained_model, small_config, label=pred
        )
        assert not result.c1_patterns_cover_nodes

    def test_c3_fails_outside_bounds(self, trained_model, mutagen_db):
        config = GvexConfig().with_bounds(0, 1)  # max 1 node per graph
        view, pred = self._view_for(trained_model, mutagen_db, config, 1)
        result = verify_view(
            view, mutagen_db.graphs, trained_model, config, label=pred
        )
        assert not result.c3_properly_covers

    def test_group_scope_coverage(self, trained_model, mutagen_db):
        config = GvexConfig().with_bounds(0, 100)
        view, pred = self._view_for(trained_model, mutagen_db, config, 1)
        result = verify_view(
            view,
            mutagen_db.graphs,
            trained_model,
            config,
            label=pred,
            per_graph_coverage=False,
        )
        assert result.c3_properly_covers
        assert result.total_nodes == view.n_subgraph_nodes
