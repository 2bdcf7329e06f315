"""Tests for the repro.api front door: registry + service facade."""

import json

import pytest

from repro.api import (
    ExplainerSpec,
    ExplanationService,
    Q,
    build_explainer,
    explainer_names,
    explainer_specs,
    get_spec,
    pattern_from_spec,
    register_explainer,
)
from repro.config import CoverageConstraint, GvexConfig
from repro.exceptions import (
    ConfigurationError,
    ExplanationError,
    RegistryError,
)
from repro.explainers import (
    ApproxGvexExplainer,
    GnnExplainer,
    RandomExplainer,
    StreamGvexExplainer,
    SubgraphX,
)
from repro.explainers.base import Explainer, ExplainerCapabilities
from repro.graphs.graph import graph_from_edges
from repro.graphs.pattern import Pattern

from tests.conftest import C, N


class TestRegistry:
    def test_canonical_names(self):
        names = explainer_names()
        assert "gvex-approx" in names and "gvex-stream" in names
        assert {"subgraphx", "gnnexplainer", "gstarx", "gcfexplainer"} <= set(names)

    def test_alias_resolution_case_insensitive(self):
        assert get_spec("AG").cls is ApproxGvexExplainer
        assert get_spec("approx").cls is ApproxGvexExplainer
        assert get_spec("STREAM").cls is StreamGvexExplainer
        assert get_spec("sx").cls is SubgraphX
        assert get_spec("GE").cls is GnnExplainer

    def test_unknown_name_raises(self):
        with pytest.raises(RegistryError):
            get_spec("definitely-not-registered")
        with pytest.raises(RegistryError):
            build_explainer("nope", model=None)

    def test_build_routes_config_and_seed(self, trained_model):
        config = GvexConfig(theta=0.2)
        ag = build_explainer("AG", trained_model, config=config, seed=3)
        assert ag.config is config  # takes_config, ignores seed
        sg = build_explainer("SG", trained_model, config=config, seed=3)
        assert sg.config is config
        ge = build_explainer("GE", trained_model, config=config, seed=3, epochs=5)
        assert ge.epochs == 5  # override reached; config silently skipped

    def test_bad_override_raises_registry_error(self, trained_model):
        with pytest.raises(RegistryError):
            build_explainer("random", trained_model, bogus_kwarg=1)

    def test_register_custom_explainer(self, trained_model):
        class MyExplainer(RandomExplainer):
            capabilities = ExplainerCapabilities(
                name="Mine", short_name="ME", requires_learning=False,
                tasks="GC", target="Subgraph", model_agnostic=True,
                label_specific=False, size_bound=True, coverage=False,
                configurable=False, queryable=False,
            )

        spec = register_explainer(ExplainerSpec(
            name="my-explainer", cls=MyExplainer, aliases=("me",),
            in_table1=False,
        ))
        try:
            assert get_spec("ME").cls is MyExplainer
            built = build_explainer("my-explainer", trained_model, seed=1)
            assert isinstance(built, MyExplainer)
            # alias collision with a different spec is rejected
            with pytest.raises(RegistryError):
                register_explainer(ExplainerSpec(
                    name="other", cls=MyExplainer, aliases=("ag",),
                ))
            # ... and a failed re-registration must not destroy the
            # existing spec (validation happens before any mutation)
            with pytest.raises(RegistryError):
                register_explainer(ExplainerSpec(
                    name="gvex-approx", cls=MyExplainer, aliases=("me",),
                ))
            assert get_spec("gvex-approx").cls is ApproxGvexExplainer
            assert get_spec("AG").cls is ApproxGvexExplainer
        finally:
            # re-register to replace, then drop from the registry dicts
            from repro.api import registry as reg
            reg._REGISTRY.pop("my-explainer", None)
            for alias in ("my-explainer", "me"):
                reg._ALIASES.pop(alias, None)

    def test_every_spec_builds_and_explains_views(self, trained_model, mutagen_db):
        """The uniform contract: all registered methods produce views."""
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 4)
        fast_overrides = {
            "subgraphx": dict(rollouts=2, shapley_samples=2),
            "gnnexplainer": dict(epochs=3),
            "gstarx": dict(coalition_samples=4),
        }
        small = mutagen_db.graphs[:4]
        from repro.graphs.database import GraphDatabase
        from repro.runtime import build_plan, run_plan
        db = GraphDatabase(small, labels=mutagen_db.labels[:4], name="mini")
        for spec in explainer_specs():
            overrides = fast_overrides.get(spec.name, {})
            explainer = build_explainer(
                spec.name, trained_model, config=config, seed=0, **overrides
            )
            assert isinstance(explainer, Explainer)
            plan = build_plan(
                db, trained_model, config, method=spec.name,
                explainer_kwargs=overrides,
            )
            views = run_plan(plan)
            for view in views:
                assert view.subgraphs or view.patterns == []
                for sub in view.subgraphs:
                    assert sub.n_nodes <= 4


class TestServiceLifecycle:
    @pytest.fixture(scope="class")
    def svc(self, trained_model, mutagen_db):
        service = ExplanationService(
            db=mutagen_db,
            model=trained_model,
            config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
        )
        return service

    def test_needs_dataset_or_db(self):
        with pytest.raises(ConfigurationError):
            ExplanationService()

    def test_views_before_explain_raises(self, trained_model, mutagen_db):
        fresh = ExplanationService(db=mutagen_db, model=trained_model)
        with pytest.raises(ExplanationError):
            _ = fresh.views

    def test_explain_persist_load_query(self, svc, tmp_path):
        views = svc.explain("gvex-approx")
        assert svc.has_views and svc.last_method == "gvex-approx"
        path = svc.persist(tmp_path / "views.json")
        data = json.loads(path.read_text())
        assert data["schema"] == 2

        replica = ExplanationService(db=svc.db)
        replica.load_views(path)
        p = Pattern.from_parts([N, 2], [(0, 1)])
        assert [
            (h.label, h.graph_index) for h in replica.query(Q.pattern(p))
        ] == [(h.label, h.graph_index) for h in svc.query(Q.pattern(p))]
        assert replica.views.labels == views.labels

    def test_query_pattern_convenience(self, svc):
        p = Pattern.singleton(N)
        direct = svc.query(Q.pattern(p) & Q.in_scope("graphs") & Q.label(1))
        conv = svc.query_pattern(p, scope="graphs", label=1)
        assert direct == conv

    def test_explain_with_labels_subset(self, svc):
        views = svc.explain("gvex-approx", labels=[1])
        assert views.labels == [1]
        # the service's current views switched to the new result
        assert svc.views.labels == [1]
        svc.explain("gvex-approx")  # restore both labels for other tests

    def test_explain_via_alias_and_baseline(self, svc):
        views = svc.explain("rnd", seed=0)
        assert svc.last_method == "random"
        assert len(views) >= 1

    def test_fit_or_load_round_trip(self, mutagen_db, tmp_path, trained_model):
        path = tmp_path / "model.npz"
        trained_model.save(path)
        service = ExplanationService(db=mutagen_db)
        model = service.fit_or_load(path)
        assert service.train_metrics is None  # loaded, not trained
        g = mutagen_db[0]
        assert model.predict(g) == trained_model.predict(g)

    def test_capabilities_table(self):
        table = ExplanationService.capabilities()
        assert "GVEX" in table and "Queryable" in table


class TestServiceParallel:
    def test_parallel_matches_serial(self, trained_model, mutagen_db):
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5)
        svc = ExplanationService(db=mutagen_db, model=trained_model, config=config)
        serial = svc.explain("gvex-approx")
        parallel = svc.explain("gvex-approx", processes=2)
        assert serial.labels == parallel.labels
        for label in serial.labels:
            a, b = serial[label], parallel[label]
            assert [s.nodes for s in a.subgraphs] == [s.nodes for s in b.subgraphs]
            assert sorted(p.key() for p in a.patterns) == sorted(
                p.key() for p in b.patterns
            )
        # the retired scheduling parameters are gone: they now reach
        # the explainer as unknown constructor overrides
        for retired in (
            {"n_shards": 3},
            {"shard_stats": {"shard_size": [{"shard_size": 1}]}},
        ):
            with pytest.raises(RegistryError):
                svc.explain("gvex-approx", **retired)

    def test_parallel_forwards_constructor_overrides(
        self, trained_model, mutagen_db
    ):
        from tests.conftest import explain_database_parallel

        config = GvexConfig().with_bounds(0, 4)
        # unknown override surfaces from the worker build, not silently
        with pytest.raises(RegistryError):
            explain_database_parallel(
                mutagen_db, trained_model, config, processes=1,
                method="random", explainer_kwargs={"bogus": 1},
            )
        # gvex-approx has no constructor knobs beyond the config
        with pytest.raises(RegistryError):
            explain_database_parallel(
                mutagen_db, trained_model, config, processes=2,
                method="gvex-approx", explainer_kwargs={"rollouts": 3},
            )
        # a valid override reaches forked workers without error
        svc = ExplanationService(db=mutagen_db, model=trained_model, config=config)
        views = svc.explain("gnnexplainer", processes=2, epochs=1, labels=[1])
        assert views.labels == [1]

    def test_parallel_baseline_method(self, trained_model, mutagen_db):
        """Non-GVEX methods distribute through the registry too.

        Stochastic baselines draw from per-worker RNGs, so exact node
        picks may differ from the serial order; the contract is the
        same groups, the same explained graphs, and the size bound.
        """
        from tests.conftest import explain_database_parallel

        config = GvexConfig().with_bounds(0, 4)
        views_p = explain_database_parallel(
            mutagen_db, trained_model, config, processes=2, method="random", seed=0
        )
        views_s = explain_database_parallel(
            mutagen_db, trained_model, config, processes=1, method="random", seed=0
        )
        assert views_p.labels == views_s.labels
        for label in views_p.labels:
            assert [s.graph_index for s in views_p[label].subgraphs] == [
                s.graph_index for s in views_s[label].subgraphs
            ]
            assert all(s.n_nodes <= 4 for s in views_p[label].subgraphs)


class TestConfigWire:
    def test_round_trip(self):
        config = (
            GvexConfig(theta=0.2, radius=0.7, gamma=0.3)
            .with_coverage(1, 2, 9)
            .with_bounds(1, 8)
        )
        wire = json.loads(json.dumps(config.to_dict()))
        assert GvexConfig.from_dict(wire) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            GvexConfig.from_dict({"not_a_field": 1})

    def test_retired_keys_rejected(self):
        """The retired reference-tier keys fail like any unknown key."""
        for retired in ("verifier_backend", "matching_backend", "stream_inc"):
            wire = GvexConfig(theta=0.2).with_coverage(1, 2, 9).to_dict()
            wire[retired] = "serial"
            with pytest.raises(ConfigurationError, match=retired):
                GvexConfig.from_dict(wire)

    @pytest.mark.parametrize(
        "payload",
        [
            ["theta", 0.1],
            "theta",
            7,
            {"coverage": [1, 2]},
            {"coverage": "1:2"},
            {"coverage": {"1": []}},
            {"coverage": {"1": [1]}},
            {"coverage": {"1": [1, 2, 3]}},
            {"coverage": {"1": [0.5, 2]}},
            {"coverage": {"1": [True, 2]}},
            {"coverage": {"1": None}},
            {"default_coverage": "0,6"},
            {"default_coverage": [0, "6"]},
        ],
    )
    def test_malformed_payload_is_configuration_error(self, payload):
        with pytest.raises(ConfigurationError):
            GvexConfig.from_dict(payload)

    def test_integer_coverage_labels_survive_json(self):
        config = GvexConfig().with_coverage(3, 1, 4)
        wire = json.loads(json.dumps(config.to_dict()))
        restored = GvexConfig.from_dict(wire)
        assert restored.coverage_for(3) == CoverageConstraint(1, 4)


class TestPatternWire:
    def test_pattern_from_spec(self):
        p = pattern_from_spec(
            {"node_types": [N, C], "edges": [[0, 1, 0]], "directed": False}
        )
        assert p.n_nodes == 2 and p.n_edges == 1

    def test_edges_default_empty(self):
        assert pattern_from_spec({"node_types": [C]}).n_nodes == 1

    @pytest.mark.parametrize("directed", [False, True])
    def test_benchmark_query_spec_loads(self, directed):
        """The ``/query`` spec the benchmark's load generator builds from
        a graph parses back to that graph."""
        from perfbench.common import pattern_spec

        g = graph_from_edges([N, C, C], [(0, 1), (2, 1)], directed=directed)
        assert pattern_from_spec(pattern_spec(g)).graph == g


class TestSatellites:
    def test_subgraph_for_dict_lookup(self, trained_model, mutagen_db):
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)
        from repro.core.approx import explain_database

        views = explain_database(mutagen_db, trained_model, config)
        view = views[views.labels[0]]
        for sub in view.subgraphs:
            assert view.subgraph_for(sub.graph_index) is sub
        assert view.subgraph_for(10_000) is None
        # cache invalidates when subgraphs change
        extra = view.subgraphs[0]
        from dataclasses import replace as dc_replace

        appended = dc_replace(extra, graph_index=10_000)
        view.subgraphs.append(appended)
        assert view.subgraph_for(10_000) is appended
        view.subgraphs.pop()

    def test_viewset_get(self, trained_model, mutagen_db):
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6)
        from repro.core.approx import explain_database

        views = explain_database(mutagen_db, trained_model, config)
        label = views.labels[0]
        assert views.get(label) is views[label]
        assert views.get("missing") is None
        sentinel = object()
        assert views.get("missing", sentinel) is sentinel

    def test_api_surface_check_passes(self):
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(repo / "scripts" / "check_api_surface.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
