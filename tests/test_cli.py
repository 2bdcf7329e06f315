"""Tests for the command-line interface."""

import json
import os
import re
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import _SERVE_STATE, main
from repro.graphs.io import load_views

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


def _normalize(out: str) -> str:
    """Strip run-dependent pieces (tmp paths, timings) from CLI output."""
    out = re.sub(r"(/[\w./-]*?/)?[\w-]+\.(json|npz)", "<PATH>", out)
    return out.strip() + "\n"


def check_cli_golden(name: str, out: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    normalized = _normalize(out)
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(normalized)
        return
    if not path.exists():
        pytest.fail(
            f"golden CLI snapshot {path} missing — regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    assert normalized == path.read_text(), (
        f"CLI output drift against {path.name}; if intentional, regenerate "
        "with REPRO_REGEN_GOLDEN=1 and review the diff"
    )


class TestStaticCommands:
    def test_capabilities(self, capsys):
        assert main(["capabilities"]) == 0
        out = capsys.readouterr().out
        assert "GVEX" in out and "Queryable" in out

    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "MUTAGENICITY" in out and "MALNET" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "bogus", "--out", "x.npz"])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    model_path = tmp / "model.npz"
    views_path = tmp / "views.json"
    assert (
        main(
            [
                "train",
                "--dataset", "pcqm4m",
                "--scale", "test",
                "--out", str(model_path),
                "--hidden", "16", "16",
                "--epochs", "80",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "explain",
                "--dataset", "pcqm4m",
                "--scale", "test",
                "--model", str(model_path),
                "--upper", "5",
                "--out", str(views_path),
            ]
        )
        == 0
    )
    return model_path, views_path


class TestPipeline:
    def test_artifacts_created(self, artifacts):
        model_path, views_path = artifacts
        assert model_path.exists()
        assert views_path.exists()
        views = load_views(views_path)
        assert len(views) >= 2
        for view in views:
            assert all(s.n_nodes <= 5 for s in view.subgraphs)

    def test_explain_stream_method(self, artifacts, tmp_path, capsys):
        model_path, _ = artifacts
        out = tmp_path / "stream_views.json"
        assert (
            main(
                [
                    "explain",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--model", str(model_path),
                    "--method", "stream",
                    "--upper", "5",
                    "--labels", "0",
                    "--out", str(out),
                ]
            )
            == 0
        )
        views = load_views(out)
        assert views.labels == [0]

    def test_explain_reference_matcher_and_shard_stats(
        self, artifacts, tmp_path, capsys
    ):
        """The seed matcher (substituted through ``reference_matcher``,
        pricing Psum's pool through ``rematch_coverage``) produces the
        same views as the default run, and the retired --shards /
        --shard-stats flags are rejected."""
        import json

        from repro.reference import reference_matcher, rematch_coverage

        model_path, views_path = artifacts
        out = tmp_path / "ref_views.json"
        args = [
            "explain",
            "--dataset", "pcqm4m",
            "--scale", "test",
            "--model", str(model_path),
            "--upper", "5",
            "--out", str(out),
        ]
        with reference_matcher(), rematch_coverage():
            code = main(args)
        assert code == 0
        reference = load_views(out)
        default = load_views(views_path)
        assert reference.labels == default.labels
        for label in default.labels:
            assert [s.nodes for s in reference[label].subgraphs] == [
                s.nodes for s in default[label].subgraphs
            ]
            assert [p.key() for p in reference[label].patterns] == [
                p.key() for p in default[label].patterns
            ]
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(
            json.dumps(
                {"shard_size": [{"shard_size": 2, "views_per_sec": 90.0}]}
            )
        )
        capsys.readouterr()
        for flag, value in (("--shards", "2"), ("--shard-stats", str(stats_path))):
            with pytest.raises(SystemExit) as exit_:
                main(args + [flag, value])
            assert exit_.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--backend", "serial"),
            ("--matching-backend", "reference"),
            ("--stream-inc", "rebuild"),
        ],
    )
    def test_retired_reference_flags_rejected(self, artifacts, flag, value):
        model_path, _ = artifacts
        with pytest.raises(SystemExit):
            main(
                [
                    "explain",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--model", str(model_path),
                    flag, value,
                ]
            )

    def test_query_inline_pattern(self, artifacts, capsys):
        _, views_path = artifacts
        pattern = json.dumps({"node_types": [0, 0], "edges": [[0, 1, 0]]})
        assert (
            main(
                [
                    "query",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--views", str(views_path),
                    "--pattern", pattern,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "match(es)" in out
        assert "per-label explanation counts" in out

    def test_explain_golden_output(self, artifacts, tmp_path, capsys):
        """Golden snapshot of the `explain` subcommand's stdout."""
        model_path, _ = artifacts
        out_path = tmp_path / "golden_views.json"
        capsys.readouterr()  # drop fixture noise
        assert (
            main(
                [
                    "explain",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--model", str(model_path),
                    "--upper", "5",
                    "--out", str(out_path),
                ]
            )
            == 0
        )
        check_cli_golden("cli_explain", capsys.readouterr().out)

    def test_query_golden_output(self, artifacts, capsys):
        """Golden snapshot of the `query` subcommand's stdout."""
        _, views_path = artifacts
        pattern = json.dumps({"node_types": [0, 0], "edges": [[0, 1, 0]]})
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--views", str(views_path),
                    "--pattern", pattern,
                ]
            )
            == 0
        )
        check_cli_golden("cli_query", capsys.readouterr().out)

    def test_explain_with_registry_alias(self, artifacts, tmp_path, capsys):
        """--method accepts any registry name/alias, not just approx/stream."""
        model_path, _ = artifacts
        out = tmp_path / "rnd_views.json"
        assert (
            main(
                [
                    "explain",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--model", str(model_path),
                    "--method", "RND",  # case-insensitive registry alias
                    "--upper", "4",
                    "--out", str(out),
                ]
            )
            == 0
        )
        views = load_views(out)
        assert all(s.n_nodes <= 4 for v in views for s in v.subgraphs)

    def test_missing_model_file_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "explain",
                    "--dataset", "pcqm4m",
                    "--model", str(tmp_path / "nope.npz"),
                    "--out", str(tmp_path / "v.json"),
                ]
            )

    @pytest.mark.parametrize(
        "pattern",
        [
            '{"node_types": [1.5]}',  # ValidationError
            '{"node_types": [0], "edges": [[0, 5, 0]]}',  # GraphError
            '{bad',  # json.JSONDecodeError
            '{"edges": [[0, 1, 0]]}',  # MissingKeyError
            '[0, 1]',  # ValidationError: not an object
        ],
    )
    def test_bad_pattern_is_one_error_line(self, artifacts, capsys, pattern):
        _, views_path = artifacts
        capsys.readouterr()
        code = main(
            [
                "query",
                "--dataset", "pcqm4m",
                "--scale", "test",
                "--views", str(views_path),
                "--pattern", pattern,
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_views_file_is_one_error_line(self, artifacts, tmp_path, capsys):
        _, views_path = artifacts
        data = json.loads(Path(views_path).read_text())
        data["views"][0]["score"] = "0.5"
        bad = tmp_path / "bad_views.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(
            [
                "query",
                "--dataset", "pcqm4m",
                "--scale", "test",
                "--views", str(bad),
                "--pattern", '{"node_types": [0]}',
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: 'score' must be a real number, got '0.5'\n"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"views": [{"label": 1}]}', "a view has no 'score' key"),
            ('{"views": [', "invalid JSON: Expecting value: line 1 column 12"),
            ('{"views": [1]}', "a view must be a JSON object, got int"),
            ("[]", "a views file must be a JSON object, got list"),
        ],
        ids=["missing-key", "truncated", "view-not-an-object", "not-an-object"],
    )
    def test_unreadable_views_file_is_one_error_line(
        self, tmp_path, capsys, payload, message
    ):
        bad = tmp_path / "bad_views.json"
        bad.write_text(payload)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--dataset", "pcqm4m",
                "--scale", "test",
                "--views", str(bad),
                "--pattern", '{"node_types": [0]}',
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_query_pattern_file_and_graph_scope(self, artifacts, tmp_path, capsys):
        _, views_path = artifacts
        pattern_file = tmp_path / "pattern.json"
        pattern_file.write_text(
            json.dumps({"node_types": [0], "edges": []})
        )
        assert (
            main(
                [
                    "query",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--views", str(views_path),
                    "--pattern", str(pattern_file),
                    "--scope", "graphs",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scope=graphs" in out


class TestServe:
    def test_serve_answers_http_round_trip(self, artifacts, capsys):
        """`repro.cli serve` handles health + query over a live socket."""
        model_path, views_path = artifacts
        _SERVE_STATE.pop("server", None)
        result = {}

        def run():
            result["code"] = main(
                [
                    "serve",
                    "--dataset", "pcqm4m",
                    "--scale", "test",
                    "--model", str(model_path),
                    "--views", str(views_path),
                    "--port", "0",
                    "--max-requests", "2",
                ]
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.time() + 30
        while "server" not in _SERVE_STATE and time.time() < deadline:
            time.sleep(0.02)
        server = _SERVE_STATE.get("server")
        assert server is not None, "serve did not bind within 30s"
        base = server.url

        with urllib.request.urlopen(base + "/health", timeout=10) as r:
            health = json.loads(r.read())
        assert health["status"] == "ok"
        assert health["has_views"] is True  # --views preloaded

        req = urllib.request.Request(
            base + "/query",
            data=json.dumps(
                {"pattern": {"node_types": [0, 0], "edges": [[0, 1, 0]]}}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as r:
            query = json.loads(r.read())
        assert "matches" in query and "statistics" in query

        thread.join(timeout=30)
        assert result.get("code") == 0  # exited after --max-requests
        out = capsys.readouterr().out
        assert "serving pcqm4m" in out
        assert "/explain /query" in out
