"""Tests for all explainers behind the common interface."""

import numpy as np
import pytest

from repro.api.registry import explainer_specs
from repro.config import GvexConfig
from repro.explainers import (
    ApproxGvexExplainer,
    GcfExplainer,
    GnnExplainer,
    GStarX,
    RandomExplainer,
    StreamGvexExplainer,
    SubgraphX,
)
from repro.graphs.graph import graph_from_edges
from repro.metrics.fidelity import fidelity_scores

from tests.conftest import N, O


def make_explainers(model):
    config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5)
    return {
        "AG": ApproxGvexExplainer(model, config),
        "SG": StreamGvexExplainer(model, config),
        "GE": GnnExplainer(model, epochs=40, seed=0),
        "SX": SubgraphX(model, rollouts=12, shapley_samples=4, seed=0),
        "GX": GStarX(model, coalition_samples=12, seed=0),
        "GCF": GcfExplainer(model, seed=0),
        "RND": RandomExplainer(model, seed=0),
    }


@pytest.fixture(scope="module")
def explainers(trained_model):
    return make_explainers(trained_model)


class TestCommonContract:
    @pytest.mark.parametrize(
        "key", ["AG", "SG", "GE", "SX", "GX", "GCF", "RND"]
    )
    def test_explain_one_graph(self, explainers, mutagen_db, trained_model, key):
        explainer = explainers[key]
        g = mutagen_db[1]
        label = trained_model.predict(g)
        expl = explainer.explain_graph(g, label=label, max_nodes=5)
        assert expl is not None, key
        assert 1 <= expl.n_nodes <= 5
        assert all(0 <= v < g.n_nodes for v in expl.nodes)
        assert expl.subgraph.n_nodes == expl.n_nodes

    @pytest.mark.parametrize("key", ["AG", "GE", "GX", "RND"])
    def test_empty_graph_returns_none(self, explainers, key):
        assert (
            explainers[key].explain_graph(graph_from_edges([], []), label=0)
            is None
        )

    def test_explain_database_filters_label(self, explainers, mutagen_db, trained_model):
        expls = explainers["RND"].explain_database(mutagen_db, label=1, max_nodes=4)
        for idx in expls:
            assert trained_model.predict(mutagen_db[idx]) == 1

    def test_capabilities_table1_claims(self):
        # the registry lists Table 1's rows in the paper's order, and
        # GVEX rows are the only fully-featured ones
        table1 = [spec.cls for spec in explainer_specs() if spec.in_table1]
        assert table1 == [
            SubgraphX,
            GnnExplainer,
            GStarX,
            GcfExplainer,
            ApproxGvexExplainer,
            StreamGvexExplainer,
        ]
        for cls in table1:
            caps = cls.capabilities
            full = (
                caps.label_specific
                and caps.size_bound
                and caps.coverage
                and caps.configurable
                and caps.queryable
            )
            assert full == (caps.short_name in ("AG", "SG"))


class TestGnnExplainer:
    def test_mask_learning_runs(self, trained_model, mutagen_db):
        ge = GnnExplainer(trained_model, epochs=20, seed=0)
        g = mutagen_db[1]
        label = trained_model.predict(g)
        weights, feats = ge.learn_masks(g, label)
        assert len(weights) == g.n_edges
        assert all(0 <= w <= 1 for w in weights.values())
        assert feats.shape == (3,)

    def test_masks_favor_motif_edges_on_mutagen(self, trained_model, mutagen_db):
        """The learned edge mask should rank NO2 edges above average."""
        ge = GnnExplainer(trained_model, epochs=80, seed=0)
        scores_motif, scores_other = [], []
        checked = 0
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1 or trained_model.predict(mutagen_db[idx]) != 1:
                continue
            g = mutagen_db[idx]
            weights, _ = ge.learn_masks(g, 1)
            for (u, v), w in weights.items():
                if g.node_type(u) in (N, O) or g.node_type(v) in (N, O):
                    scores_motif.append(w)
                else:
                    scores_other.append(w)
            checked += 1
            if checked >= 4:
                break
        assert checked > 0
        assert np.mean(scores_motif) > np.mean(scores_other) - 0.05


class TestSubgraphX:
    def test_respects_budget(self, trained_model, mutagen_db):
        sx = SubgraphX(trained_model, rollouts=10, shapley_samples=3, seed=1)
        g = mutagen_db[3]
        expl = sx.explain_graph(g, max_nodes=4)
        assert expl is not None
        assert expl.n_nodes <= 4

    def test_subgraph_connected(self, trained_model, mutagen_db):
        sx = SubgraphX(trained_model, rollouts=10, shapley_samples=3, seed=1)
        g = mutagen_db[5]
        expl = sx.explain_graph(g, max_nodes=5)
        assert expl.subgraph.is_connected()


class TestGStarX:
    def test_node_scores_shape(self, trained_model, mutagen_db):
        gx = GStarX(trained_model, coalition_samples=10, seed=0)
        g = mutagen_db[1]
        scores = gx.node_scores(g, trained_model.predict(g))
        assert scores.shape == (g.n_nodes,)

    def test_motif_nodes_rank_high(self, trained_model, mutagen_db):
        gx = GStarX(trained_model, coalition_samples=40, seed=0)
        ranks = []
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1 or trained_model.predict(mutagen_db[idx]) != 1:
                continue
            g = mutagen_db[idx]
            scores = gx.node_scores(g, 1)
            order = list(np.argsort(-scores))
            motif = [v for v in g.nodes() if g.node_type(v) in (N, O)]
            ranks.append(min(order.index(v) for v in motif))
            if len(ranks) >= 4:
                break
        assert ranks
        assert np.mean(ranks) <= 3.0  # a motif node among the top ranks


class TestGcfExplainer:
    def test_deletion_flips_label_when_possible(self, trained_model, mutagen_db):
        gcf = GcfExplainer(trained_model, seed=0)
        flips = 0
        total = 0
        for idx, label in enumerate(mutagen_db.labels):
            if label != 1 or trained_model.predict(mutagen_db[idx]) != 1:
                continue
            g = mutagen_db[idx]
            expl = gcf.explain_graph(g, label=1)
            if expl is None:
                continue
            total += 1
            flips += expl.counterfactual
            if total >= 5:
                break
        assert total > 0
        assert flips / total >= 0.6

    def test_representative_counterfactuals(self, trained_model, mutagen_db):
        gcf = GcfExplainer(trained_model, coverage_distance=1.0, seed=0)
        indices = [
            i
            for i, l in enumerate(mutagen_db.labels)
            if l == 1 and trained_model.predict(mutagen_db[i]) == 1
        ][:6]
        reps = gcf.representative_counterfactuals(
            mutagen_db, 1, indices, max_representatives=3
        )
        assert len(reps) >= 1
        for src, cf in reps:
            assert src in indices
            assert trained_model.predict(cf) != 1


class TestQualityOrdering:
    def test_gvex_beats_random_on_fidelity_plus(self, trained_model, mutagen_db, explainers):
        """The headline shape: AG's Fidelity+ exceeds the random floor."""
        indices = [
            i
            for i, l in enumerate(mutagen_db.labels)
            if trained_model.predict(mutagen_db[i]) == 1
        ][:8]
        ag = explainers["AG"].explain_database(
            mutagen_db, label=1, max_nodes=5, indices=indices
        )
        rnd = explainers["RND"].explain_database(
            mutagen_db, label=1, max_nodes=5, indices=indices
        )
        ag_plus, ag_minus = fidelity_scores(trained_model, mutagen_db, ag)
        rnd_plus, _ = fidelity_scores(trained_model, mutagen_db, rnd)
        assert ag_plus > rnd_plus - 0.05
        assert ag_minus <= 0.25
