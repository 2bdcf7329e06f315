"""Tests for StreamGVEX (Algorithm 3) and the parallel driver."""

import numpy as np
import pytest

from repro.config import GvexConfig
from repro.core.approx import explain_database
from repro.core.streaming import StreamGvex
from repro.graphs.graph import graph_from_edges
from repro.matching.coverage import CoverageIndex

from tests.conftest import N, O, explain_database_parallel


@pytest.fixture()
def stream_config():
    from dataclasses import replace

    return replace(
        GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5),
        stream_batch_size=4,
    )


class TestStreamGraph:
    def test_basic_stream(self, trained_model, mutagen_db, stream_config):
        algo = StreamGvex(trained_model, stream_config)
        g = mutagen_db[1]
        label = trained_model.predict(g)
        result = algo.explain_graph_stream(g, label)
        assert result.subgraph is not None
        assert result.subgraph.n_nodes <= 5
        assert result.patterns  # IncUpdateP maintained patterns

    def test_snapshots_recorded(self, trained_model, mutagen_db, stream_config):
        algo = StreamGvex(trained_model, stream_config)
        g = mutagen_db[1]
        result = algo.explain_graph_stream(g, trained_model.predict(g))
        assert result.snapshots
        fractions = [s.fraction_seen for s in result.snapshots]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        # objective is anytime non-decreasing in expectation but at least finite
        assert all(np.isfinite(s.objective) for s in result.snapshots)

    def test_custom_order_permutation_checked(
        self, trained_model, mutagen_db, stream_config
    ):
        algo = StreamGvex(trained_model, stream_config)
        g = mutagen_db[1]
        with pytest.raises(ValueError):
            algo.explain_graph_stream(g, 0, order=[0, 0, 1])

    def test_cache_respects_upper_bound_during_stream(
        self, trained_model, mutagen_db, stream_config
    ):
        algo = StreamGvex(trained_model, stream_config)
        g = max(mutagen_db.graphs, key=lambda x: x.n_nodes)
        result = algo.explain_graph_stream(g, trained_model.predict(g))
        assert result.subgraph is None or result.subgraph.n_nodes <= 5

    def test_order_independence_of_quality(self, trained_model, mutagen_db):
        """§A.8: different node orders give similar objective values."""
        from dataclasses import replace

        config = replace(
            GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 5),
            stream_batch_size=3,
        )
        algo = StreamGvex(trained_model, config)
        g = mutagen_db[1]
        label = trained_model.predict(g)
        rng = np.random.default_rng(0)
        scores = []
        for _ in range(3):
            order = list(rng.permutation(g.n_nodes))
            result = algo.explain_graph_stream(g, label, order=order)
            assert result.subgraph is not None
            scores.append(result.subgraph.score)
        assert max(scores) - min(scores) <= 0.5 * max(max(scores), 1e-9)

    def test_empty_graph(self, trained_model, stream_config):
        algo = StreamGvex(trained_model, stream_config)
        result = algo.explain_graph_stream(graph_from_edges([], []), 0)
        assert result.subgraph is None

    def test_lower_bound_post_processing(self, trained_model, mutagen_db):
        from dataclasses import replace

        config = replace(
            GvexConfig(theta=0.08, radius=0.3).with_bounds(4, 6),
            stream_batch_size=4,
        )
        algo = StreamGvex(trained_model, config)
        g = mutagen_db[1]
        result = algo.explain_graph_stream(g, trained_model.predict(g))
        assert result.subgraph is not None
        assert result.subgraph.n_nodes >= 4


class TestStreamDatabase:
    def test_views_generated(self, trained_model, mutagen_db, stream_config):
        algo = StreamGvex(trained_model, stream_config)
        views = algo.explain(mutagen_db)
        assert len(views) == 2
        for view in views:
            assert view.subgraphs
            assert view.patterns
            index = CoverageIndex([s.subgraph for s in view.subgraphs])
            assert index.covers_all_nodes(view.patterns)

    def test_stream_close_to_batch_quality(
        self, trained_model, mutagen_db, stream_config
    ):
        """Theorem 5.1: SG is within a constant factor of AG's objective."""
        stream_views = StreamGvex(trained_model, stream_config).explain(mutagen_db)
        approx_views = explain_database(mutagen_db, trained_model, stream_config)
        for label in approx_views.labels:
            ag = approx_views[label].score
            sg = stream_views[label].score
            if ag > 0:
                assert sg >= 0.25 * ag


class TestParallel:
    def test_serial_fallback_matches_approx(self, trained_model, mutagen_db, small_config):
        serial = explain_database_parallel(
            mutagen_db, trained_model, small_config, processes=1
        )
        direct = explain_database(mutagen_db, trained_model, small_config)
        assert serial.labels == direct.labels
        for label in direct.labels:
            assert serial[label].score == pytest.approx(direct[label].score)

    def test_parallel_matches_serial(self, trained_model, mutagen_db, small_config):
        parallel = explain_database_parallel(
            mutagen_db, trained_model, small_config, processes=2
        )
        direct = explain_database(mutagen_db, trained_model, small_config)
        assert parallel.labels == direct.labels
        for label in direct.labels:
            got = {s.graph_index: s.nodes for s in parallel[label].subgraphs}
            want = {s.graph_index: s.nodes for s in direct[label].subgraphs}
            assert got == want
