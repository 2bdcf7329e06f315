"""Exception & wire policy checker (``REPRO4xx``).

docs/api.md promises that every error the library raises derives from
:class:`repro.exceptions.ReproError`, so API callers can catch one
base class, and the cluster fault-tolerance design (docs/
distribution.md) requires every fault path to surface a *typed* error
— a swallowed exception is a straggler the coordinator cannot reap.

``REPRO401`` — a bare ``except:`` or broad ``except Exception /
BaseException`` handler whose body never raises: the error is
swallowed on what may be a fault path. Intentional containment sites
(HTTP boundaries that answer 500, tolerant journal replay) carry a
``# repro: noqa[REPRO401]`` with a justification.

``REPRO402`` — ``raise`` of a builtin exception type
(``ValueError``, ``RuntimeError``, ``KeyError``...). Library errors
must be ``repro.exceptions`` types; where stdlib catch-compat
matters, the typed error dual-inherits (``ValidationError(ReproError,
ValueError)``). ``NotImplementedError`` (abstract methods),
``AssertionError``, ``StopIteration``, ``SystemExit`` (CLI), and
``TimeoutError`` (stdlib timeout contract) are exempt.

``REPRO403`` — wire-schema completeness for ``cluster/wire.py``:
every name in ``MESSAGE_TYPES`` must have an ``encode_<type>`` and
``decode_<type>`` function, a ``DECODERS`` entry, and a frozen golden
fixture ``tests/golden/wire/<type>.json``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.base import register_checker
from repro.analysis.findings import Finding
from repro.analysis.model import ModuleInfo, ProjectModel

#: builtin exception names whose direct raise violates the policy
FLAGGED_BUILTINS = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "LookupError",
        "AttributeError",
        "OSError",
        "IOError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OverflowError",
        "FileNotFoundError",
        "PermissionError",
        "ConnectionError",
        "EOFError",
        "UnicodeDecodeError",
    }
)

_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})


@register_checker
class ExceptionPolicyChecker:
    """REPRO401 swallowed broad handlers + REPRO402 builtin raises."""

    name = "exceptions"
    codes = ("REPRO401", "REPRO402")

    def check(self, project: ProjectModel) -> Iterable[Finding]:
        findings: List[Finding] = []
        for info in project.modules.values():
            self._visit(info, info.tree.body, 0, "<module>", findings)
        return sorted(set(findings))

    def _visit(
        self,
        info: ModuleInfo,
        body: List[ast.stmt],
        scope_line: int,
        qual: str,
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit(
                    info, stmt.body, stmt.lineno, stmt.name, findings
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                self._visit(info, stmt.body, scope_line, qual, findings)
                continue
            if isinstance(stmt, ast.Raise):
                self._check_raise(info, stmt, scope_line, qual, findings)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    self._check_handler(
                        info, handler, scope_line, qual, findings
                    )
            for child in self._suites(stmt):
                self._visit(info, child, scope_line, qual, findings)

    @staticmethod
    def _suites(stmt: ast.stmt) -> List[List[ast.stmt]]:
        out: List[List[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            value = getattr(stmt, name, None)
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                out.append(value)
        for handler in getattr(stmt, "handlers", ()) or ():
            out.append(handler.body)
        for case in getattr(stmt, "cases", ()) or ():
            out.append(case.body)
        return out

    # ------------------------------------------------------------------
    def _check_raise(
        self,
        info: ModuleInfo,
        stmt: ast.Raise,
        scope_line: int,
        qual: str,
        findings: List[Finding],
    ) -> None:
        exc = stmt.exc
        if exc is None:  # bare re-raise: always fine
            return
        name: Optional[str] = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name is None or name not in FLAGGED_BUILTINS:
            return
        findings.append(
            Finding(
                path=info.display_path,
                line=stmt.lineno,
                code="REPRO402",
                symbol=f"{qual}.{name}",
                message=(
                    f"'{qual}' raises builtin {name}; library errors "
                    f"must derive from repro.exceptions.ReproError "
                    f"(dual-inherit the builtin if catch-compat "
                    f"matters, e.g. ValidationError)"
                ),
                checker=self.name,
                scope_line=scope_line,
            )
        )

    def _check_handler(
        self,
        info: ModuleInfo,
        handler: ast.ExceptHandler,
        scope_line: int,
        qual: str,
        findings: List[Finding],
    ) -> None:
        broad = False
        if handler.type is None:
            broad = True
        elif isinstance(handler.type, ast.Name):
            broad = handler.type.id in _BROAD_HANDLERS
        elif isinstance(handler.type, ast.Tuple):
            broad = any(
                isinstance(e, ast.Name) and e.id in _BROAD_HANDLERS
                for e in handler.type.elts
            )
        if not broad:
            return
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return  # re-raised (or converted): not swallowed
        shape = (
            "bare 'except:'"
            if handler.type is None
            else f"'except {ast.unparse(handler.type)}'"
        )
        findings.append(
            Finding(
                path=info.display_path,
                line=handler.lineno,
                code="REPRO401",
                symbol=f"{qual}.except",
                message=(
                    f"{shape} in '{qual}' swallows the error (no raise "
                    f"on the handler path); catch a typed "
                    f"repro.exceptions error or re-raise — justify "
                    f"intentional containment with a noqa"
                ),
                checker=self.name,
                scope_line=scope_line,
            )
        )


@register_checker
class WirePolicyChecker:
    """REPRO403: every wire message type has encode+decode+golden."""

    name = "wire"
    codes = ("REPRO403",)

    def __init__(
        self,
        wire_module: str = "runtime.cluster.wire",
        golden_dir: Optional[Path] = None,
    ) -> None:
        self.wire_module = wire_module
        self.golden_dir = golden_dir

    def check(self, project: ProjectModel) -> Iterable[Finding]:
        info = None
        for relname, module in project.modules.items():
            if relname == self.wire_module or relname.endswith(
                "." + self.wire_module
            ):
                info = module
                break
        if info is None:
            return []  # no wire layer in this project: nothing to check
        golden_dir = self.golden_dir
        if golden_dir is None:
            # <repo>/src/<pkg> -> <repo>/tests/golden/wire
            golden_dir = (
                project.root.parent.parent / "tests" / "golden" / "wire"
            )
        types = self._message_types(info)
        functions = {
            node.name
            for node in ast.walk(info.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        decoder_keys = self._decoder_keys(info)
        findings: List[Finding] = []
        for msg_type, line in types:
            missing: List[str] = []
            for fn in (f"encode_{msg_type}", f"decode_{msg_type}"):
                if fn not in functions:
                    missing.append(f"function {fn}()")
            if decoder_keys is not None and msg_type not in decoder_keys:
                missing.append("a DECODERS entry")
            golden = golden_dir / f"{msg_type}.json"
            if not golden.is_file():
                missing.append(
                    f"golden fixture tests/golden/wire/{msg_type}.json"
                )
            if missing:
                findings.append(
                    Finding(
                        path=info.display_path,
                        line=line,
                        code="REPRO403",
                        symbol=f"wire.{msg_type}",
                        message=(
                            f"wire message type '{msg_type}' is missing "
                            + " and ".join(missing)
                            + " — every type ships encode+decode+golden"
                        ),
                        checker=self.name,
                    )
                )
        return sorted(set(findings))

    @staticmethod
    def _message_types(info: ModuleInfo) -> List[Tuple[str, int]]:
        """(type string, line) from ``MSG_*`` constant assignments."""
        out: List[Tuple[str, int]] = []
        seen: Set[str] = set()
        for stmt in info.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.startswith("MSG_")
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                    and stmt.value.value not in seen
                ):
                    seen.add(stmt.value.value)
                    out.append((stmt.value.value, stmt.lineno))
        return out

    @staticmethod
    def _decoder_keys(info: ModuleInfo) -> Optional[Set[str]]:
        """String/MSG_* keys of the module-level ``DECODERS`` dict."""
        msg_constants = {}
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id.startswith("MSG_")
                        and isinstance(stmt.value, ast.Constant)
                    ):
                        msg_constants[target.id] = stmt.value.value
        for stmt in info.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            is_decoders = any(
                isinstance(t, ast.Name) and t.id == "DECODERS"
                for t in stmt.targets
            )
            if not is_decoders or not isinstance(stmt.value, ast.Dict):
                continue
            keys: Set[str] = set()
            for key in stmt.value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
                elif isinstance(key, ast.Name) and key.id in msg_constants:
                    keys.add(msg_constants[key.id])
            return keys
        return None


__all__ = [
    "ExceptionPolicyChecker",
    "WirePolicyChecker",
    "FLAGGED_BUILTINS",
]
