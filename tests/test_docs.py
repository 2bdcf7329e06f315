"""Docs hygiene: intra-repo links resolve, examples stay importable.

Mirrors the CI docs lane (``.github/workflows/ci.yml``) inside tier-1,
so a broken README/docs link or a syntax error in ``examples/`` fails
locally before it fails in CI. Beyond byte-compiling, every ``repro``
import in ``examples/`` must resolve against the current package, and
the slow lane runs the examples that check their own output.
"""

import ast
import compileall
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: a results file cited in prose or code
RESULT_CITATION = re.compile(r"results/([A-Za-z0-9_.-]+\.json)")


def _checker():
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        import check_docs_links
    finally:
        sys.path.pop(0)
    return check_docs_links


def test_readme_and_docs_exist():
    assert (REPO / "README.md").exists()
    assert (REPO / "docs" / "api.md").exists()
    assert (REPO / "docs" / "streaming.md").exists()
    assert (REPO / "docs" / "verification.md").exists()


def test_streaming_doc_cross_links_verification():
    streaming = (REPO / "docs" / "streaming.md").read_text()
    verification = (REPO / "docs" / "verification.md").read_text()
    assert "verification.md" in streaming
    assert "streaming.md" in verification


def test_api_doc_cross_linked():
    """docs/api.md is reachable from the README and both design docs."""
    for name in ("README.md", "docs/streaming.md", "docs/verification.md"):
        assert "api.md" in (REPO / name).read_text(), f"{name} must link api.md"
    api = (REPO / "docs" / "api.md").read_text()
    assert "ExplanationService" in api
    assert "register_explainer" in api
    assert "Q.pattern" in api
    assert "Deprecation policy" in api


def test_no_broken_intra_repo_links():
    checker = _checker()
    bad = {
        str(path.relative_to(REPO)): links
        for path in checker.doc_files()
        if (links := checker.broken_links(path))
    }
    assert not bad, f"broken doc links: {bad}"


def test_cited_result_files_exist():
    """Every ``results/*.json`` cited by a doc, a bench, the README or
    the changelog is present, so a perf claim never points at nothing."""
    sources = [
        REPO / "README.md",
        REPO / "CHANGES.md",
        *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / "benchmarks").glob("*.py")),
    ]
    missing = {
        str(path.relative_to(REPO)): sorted(set(names))
        for path in sources
        if (
            names := [
                name
                for name in RESULT_CITATION.findall(path.read_text())
                if not (REPO / "results" / name).exists()
            ]
        )
    }
    assert not missing, f"cited result files missing: {missing}"


def test_link_checker_flags_missing_target(tmp_path):
    checker = _checker()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Sec\n"
        "[ok](doc.md) [anchor](#sec) [web](https://x.test) "
        "[missing](nope.md)\n"
    )
    bad = checker.broken_links(doc)
    assert [target for _, target in bad] == ["nope.md"]


def test_link_checker_flags_missing_anchor(tmp_path):
    """An anchor must name a heading of the file it points into, by
    GitHub's slug rules; a heading in fenced code is no heading."""
    checker = _checker()
    (tmp_path / "target.md").write_text(
        "# Warm tier\n"
        "## Host contexts (`matching/context.py`) ##\n"
        "## Dup\n"
        "## Dup\n"
        "```\n"
        "## Fenced\n"
        "```\n"
    )
    doc = tmp_path / "doc.md"
    doc.write_text(
        "## Here\n"
        "[a](target.md#warm-tier) [b](target.md#host-contexts-matchingcontextpy) "
        "[c](target.md#dup-1) [d](#here) [e](target.md#fenced) "
        "[f](target.md#gone) [g](#nowhere) [h](target.md)\n"
    )
    bad = checker.broken_links(doc)
    assert [target for _, target in bad] == [
        "target.md#fenced", "target.md#gone", "#nowhere"
    ]


def test_examples_compile():
    assert compileall.compile_dir(
        str(REPO / "examples"), quiet=2, force=True
    ), "examples/ contains files that do not compile"


def _repro_imports(path):
    """``(module, name)`` per ``repro`` import in a file (``name`` is
    ``None`` for a plain ``import repro.x``)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module or "").split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name


def _resolves(module, name):
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(found, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_examples_resolve_their_repro_imports():
    """Each example's, bench's and benchmark script's ``repro`` imports
    name things that exist, checked without running the file (compiling
    alone would pass an import of a deleted name)."""
    scripts = {
        folder: sorted((REPO / folder).glob("*.py"))
        for folder in ("examples", "benchmarks", "perfbench")
    }
    assert all(scripts.values())
    unresolved = [
        f"{path.relative_to(REPO)}: {module}{'' if name is None else ' -> ' + name}"
        for paths in scripts.values()
        for path in paths
        for module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not unresolved, f"scripts import missing names: {unresolved}"


@pytest.mark.slow
@pytest.mark.parametrize(
    "script, marker",
    [
        pytest.param(script, marker, id=script)
        for script, marker in [
            ("streaming_anytime.py", "final streaming explanation"),
            ("view_queries.py", "Q3: patterns that distinguish"),
            ("serving_http.py", "POST /query (N-O bond in mutagens)"),
        ]
    ],
)
def test_streaming_example_runs(script, marker):
    """Examples run end to end and reach their last output line.

    ``streaming_anytime.py`` asserts that the incremental and the
    rebuild ``IncEVerify`` streams select the same nodes;
    ``view_queries.py`` drives ``ViewIndex`` through the plan cache and
    asserts the DSL agrees with the legacy queries; ``serving_http.py``
    serves ``/explain`` and ``/query`` on port 0.
    """
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert marker in proc.stdout
