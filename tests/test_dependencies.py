"""Every third-party module ``src/`` imports is a declared runtime dependency.

CI installs from ``pyproject.toml``, so an import of an undeclared
package would pass here and fail on a clean runner.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(src: Path) -> dict:
    """Top-level module name -> files under ``src`` that import it."""
    found: dict = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


@pytest.mark.skipif(
    tomllib is None, reason="tomllib is in the standard library from Python 3.11"
)
def test_every_third_party_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    third_party = {
        name: files
        for name, files in _imported_modules(ROOT / "src").items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    undeclared = {
        name: sorted(files)
        for name, files in third_party.items()
        if name not in declared
    }
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"
    assert declared == set(third_party), "a declared dependency is never imported"
