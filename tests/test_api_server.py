"""HTTP layer tests: explain + query round trips over a live socket."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ExplanationService, create_server
from repro.config import GvexConfig

from tests.conftest import N, O


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as r:
        return r.status, json.loads(r.read())


def _post(base, path, body):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as r:
        return r.status, json.loads(r.read())


@pytest.fixture(scope="module")
def live(trained_model, mutagen_db):
    svc = ExplanationService(
        db=mutagen_db,
        model=trained_model,
        config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
    )
    server = create_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url, svc
    server.shutdown()
    server.server_close()


class TestRoutes:
    def test_health_before_views(self, live):
        base, _ = live
        status, body = _get(base, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["has_model"] is True

    def test_explainers_route_lists_registry(self, live):
        base, _ = live
        _, body = _get(base, "/explainers")
        names = [e["name"] for e in body["explainers"]]
        assert "gvex-approx" in names and "gvex-stream" in names

    def test_capabilities_route(self, live):
        base, _ = live
        _, body = _get(base, "/capabilities")
        assert "GVEX" in body["table"]

    def test_explain_then_query_round_trip(self, live):
        base, svc = live
        status, summary = _post(base, "/explain", {"method": "gvex-approx"})
        assert status == 200
        assert summary["method"] == "gvex-approx"
        assert {v["label"] for v in summary["views"]} == {0, 1}

        # the paper's Q1 over the wire: N-O bond in mutagen explanations
        status, result = _post(base, "/query", {
            "pattern": {"node_types": [N, O], "edges": [[0, 1, 0]]},
            "label": 1,
        })
        assert status == 200
        assert result["matches"], "toxicophore should match mutagen explanations"
        assert all(m["label"] == 1 for m in result["matches"])
        assert result["statistics"]["0"] == 0

        # graph scope + health now reports the index
        status, result = _post(base, "/query", {
            "pattern": {"node_types": [N, O], "edges": [[0, 1, 0]]},
            "scope": "graphs",
        })
        assert status == 200
        assert all(m["in_explanation"] is False for m in result["matches"])
        _, health = _get(base, "/health")
        assert health["has_views"] is True
        assert health["index"]["patterns"] >= 1

    def test_multi_pattern_query_statistics_match_conjunction(self, live):
        """statistics must describe the same AND the matches do."""
        base, svc = live
        _post(base, "/explain", {"method": "gvex-approx"})
        body = {
            "patterns": [
                {"node_types": [N], "edges": []},
                {"node_types": [O], "edges": []},
            ],
        }
        _, result = _post(base, "/query", body)
        per_label = {}
        for m in result["matches"]:
            per_label[str(m["label"])] = per_label.get(str(m["label"]), 0) + 1
        for label, count in result["statistics"].items():
            assert count == per_label.get(label, 0)

    def test_health_does_not_build_the_index(self, trained_model, mutagen_db):
        """/health stays cheap: no eager posting-list construction."""
        svc = ExplanationService(
            db=mutagen_db,
            model=trained_model,
            config=GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 6),
        )
        svc.explain("gvex-approx")
        server = create_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _, health = _get(server.url, "/health")
            assert health["has_views"] is True
            assert "index" not in health  # not built yet
            _post(server.url, "/query", {"pattern": {"node_types": [N]}})
            _, health = _get(server.url, "/health")
            assert health["index"]["patterns"] >= 1  # built by the query
        finally:
            server.shutdown()
            server.server_close()

    def test_views_route_serves_schema_2(self, live):
        base, _ = live
        _, body = _get(base, "/views")
        assert body["schema"] == 2
        assert len(body["views"]) == 2

    def test_explain_with_config_override(self, live):
        base, svc = live
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 3).to_dict()
        _, summary = _post(base, "/explain", {
            "method": "gvex-approx", "labels": [1], "config": config,
        })
        assert [v["label"] for v in summary["views"]] == [1]
        assert all(s.n_nodes <= 3 for s in svc.views[1].subgraphs)
        # restore both-label views for other tests in this module
        _post(base, "/explain", {"method": "gvex-approx"})

    def test_error_paths(self, live):
        base, _ = live
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/nonexistent")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/explain", {"method": "not-a-method"})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/query", {"no_pattern": True})
        assert err.value.code == 400

    @pytest.mark.parametrize(
        "config",
        [
            {"coverage": {"1": []}},
            {"coverage": [1, 2]},
            {"coverage": {"1": [0, "6"]}},
            {"default_coverage": [0]},
            ["theta"],
        ],
    )
    def test_malformed_config_is_client_error(self, live, config):
        base, _ = live
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/explain", {"method": "gvex-approx", "config": config})
        assert err.value.code == 400
        assert "ConfigurationError" in json.loads(err.value.read())["error"]

    def test_explain_accepts_retired_config_keys(self, live):
        base, svc = live
        config = GvexConfig(theta=0.08, radius=0.3).with_bounds(0, 3).to_dict()
        config.update(
            verifier_backend="serial",
            matching_backend="reference",
            stream_inc="rebuild",
        )
        _, summary = _post(base, "/explain", {
            "method": "gvex-approx", "labels": [1], "config": config,
        })
        assert [v["label"] for v in summary["views"]] == [1]
        # the retired n_shards field is ignored: same answer as without
        plain = {"method": "gvex-approx", "labels": [1]}
        _, want = _post(base, "/explain", plain)
        status, got = _post(base, "/explain", dict(plain, n_shards=2))
        assert status == 200
        assert got == want
        _post(base, "/explain", {"method": "gvex-approx"})

    def test_query_without_views_is_client_error(
        self, trained_model, mutagen_db
    ):
        svc = ExplanationService(db=mutagen_db, model=trained_model)
        server = create_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url, "/query", {"pattern": {"node_types": [N]}})
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url, "/views")
            assert err.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
