"""What ``src/`` imports: declared dependencies only, and nothing unused.

CI installs from ``pyproject.toml``, so an import of an undeclared
package would pass here and fail on a clean runner. An imported name
that its module never reads is dead weight that no lint step catches,
so the same AST walk checks that too.
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


#: imports a module keeps only for their side effects
SIDE_EFFECT_IMPORTS = {
    # each checker module registers its checker class when imported
    "src/repro/analysis/base.py": {"determinism", "forksafety", "locks", "policy"},
}


def _annotation_strings(tree: ast.AST) -> set:
    """Names read inside quoted annotations (``-> "List[int]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations.extend(a.annotation for a in every)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def _unused_imports(path: Path) -> list:
    """Names ``path`` imports but never reads or lists in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= _annotation_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        allowed = SIDE_EFFECT_IMPORTS.get(rel, set())
        unused += [
            f"{rel}:{line}: {name}"
            for line, name in _unused_imports(path)
            if name not in allowed
        ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_unused_import_check_sees_what_it_should(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "import numpy as np\n"
        "__all__ = ['Dict']\n"
        "def f(x: 'List[int]') -> 'Optional[int]':\n"
        "    return osp.join\n"
    )
    assert [name for _, name in _unused_imports(module)] == ["os", "np"]
