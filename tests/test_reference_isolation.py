"""The reference module is reachable from tests and benches only.

``repro.reference`` holds the parity oracles (the seed VF2, the
per-chunk rebuild ``IncEVerify``). Production runs one implementation
per operator, so no production module may import the reference — not
even behind a flag. This suite parses every module under ``src/repro``
with :mod:`ast`, without importing the package, and fails on any
import of the reference module from anywhere but the module itself.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = "repro.reference"


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_names(source: str, package: str):
    """Absolute dotted names every import statement in ``source`` binds.

    ``package`` resolves relative imports; ``from a import b`` yields
    both ``a`` and ``a.b`` (``b`` may be a submodule).
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def imports_reference(source: str, package: str) -> bool:
    return any(
        name == REFERENCE or name.startswith(REFERENCE + ".")
        for name in imported_names(source, package)
    )


def test_no_production_module_imports_the_reference():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = module_name(path)
        if name == REFERENCE:
            continue
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        if imports_reference(path.read_text(), package):
            offenders.append(str(path.relative_to(SRC)))
    assert not offenders, f"production modules import {REFERENCE}: {offenders}"


def test_reference_is_outside_every_all():
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                assert module_name(path) != REFERENCE, "reference defines __all__"
                assert "reference" not in ast.literal_eval(node.value), path


@pytest.mark.parametrize(
    "source, package",
    [
        ("import repro.reference", "repro.core"),
        ("from repro.reference import find_isomorphisms", "repro.core"),
        ("from repro import reference", "repro.core"),
        ("from .. import reference", "repro.core"),
        ("from ..reference import RebuildEVerify", "repro.core"),
        ("from . import reference", "repro"),
        ("def f():\n    from repro.reference import serial_verifier", "repro"),
    ],
)
def test_checker_sees_every_import_form(source, package):
    assert imports_reference(source, package)


def test_checker_ignores_lookalikes():
    source = "from repro.matching import coverage\nimport repro.references_doc"
    assert not imports_reference(source, "repro.core")
