"""Determinism checker (``REPRO3xx``).

The system's headline guarantee is bit-identical ``ViewSet``s across
Serial/ForkPool/Sharded/Distributed executors and against the parity
references of ``repro.reference``. Three syntactic patterns break
that guarantee silently:

``REPRO301`` — iterating an unordered ``set``/``frozenset`` expression
while appending to (or yielding into) an ordered accumulator, in a
determinism-critical package (``matching``, ``core``, ``mining``,
``query``, ``graphs``, ``runtime`` by default). Set iteration order
varies across processes (hash randomization) — exactly the executors'
fork boundary. Wrap the iterable in ``sorted(...)`` or iterate an
ordered structure.

``REPRO302`` — process-global randomness: calls through the module
state of :mod:`random` or ``numpy.random`` (``random.choice``,
``np.random.rand``, ``np.random.seed``...). Every sanctioned use goes
through a seeded ``np.random.default_rng(seed)`` / ``Generator``
passed explicitly.

``REPRO303`` — ``id(...)`` or ``time.time()`` flowing into a cache
key or sort key: a dict subscript/``get``/``setdefault``/``pop``
argument, a ``key=`` callable of ``sorted``/``min``/``max``/``sort``,
or an assignment to a ``*key*``-named variable. ``id()`` values are
reused after GC and differ across processes; wall-clock keys are
never reproducible. Content-defined keys (``graph_content_key``,
WL keys) are the sanctioned alternative (docs/matching.md).

``REPRO304`` — ``time.time()`` flowing into deadline or timeout
arithmetic: added to / subtracted from a ``timeout``/``deadline``/
``expires``/``budget``-named operand, compared against one, or
assigned to one. Wall clocks jump under NTP slew and DST, silently
corrupting the budget; every budget in the runtime is measured on
``time.monotonic()`` (``repro.runtime.deadline.Deadline``). Fires in
every package, not just the hot ones — a wall-clock deadline is
wrong anywhere.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.base import register_checker
from repro.analysis.findings import Finding
from repro.analysis.model import ModuleInfo, ProjectModel, _attr_chain

#: subpackages whose enumeration order feeds the parity contracts
DEFAULT_HOT_PACKAGES: Tuple[str, ...] = (
    "matching",
    "core",
    "mining",
    "query",
    "graphs",
    "runtime",
)

#: ``np.random`` attributes that are explicitly seeded constructors
_SEEDED_NP_RANDOM = frozenset({"default_rng", "Generator", "SeedSequence"})

#: module-state functions of the stdlib ``random`` module
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "gauss",
        "seed",
        "getrandbits",
    }
)

_DICT_KEY_METHODS = frozenset({"get", "setdefault", "pop"})

#: name fragments that mark an operand as deadline/timeout arithmetic
_DEADLINE_TOKENS = ("timeout", "deadline", "expire", "expiry", "budget")


def _is_wall_clock(node: ast.AST) -> bool:
    """True for a ``time.time()`` call (any alias chain ending there)."""
    hit = _volatile_call(node)
    return hit == "time.time"


def _contains_wall_clock(root: ast.AST) -> bool:
    return any(_is_wall_clock(node) for node in ast.walk(root))


def _deadline_named(root: ast.AST) -> bool:
    """Any Name/Attribute under ``root`` carrying a deadline token."""
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            label = node.id.lower()
        elif isinstance(node, ast.Attribute):
            label = node.attr.lower()
        else:
            continue
        if any(token in label for token in _DEADLINE_TOKENS):
            return True
    return False


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically certain to evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _volatile_call(node: ast.AST) -> Optional[str]:
    """"id" / "time.time" if node is such a call, else None."""
    if not isinstance(node, ast.Call):
        return None
    chain = _attr_chain(node.func)
    if chain == ("id",) and len(node.args) == 1:
        return "id"
    if chain is not None and chain[-2:] == ("time", "time"):
        return "time.time"
    if chain == ("time",) and not node.args:
        return "time.time"
    return None


def _find_volatile(root: ast.AST) -> Optional[Tuple[str, int]]:
    for node in ast.walk(root):
        kind = _volatile_call(node)
        if kind is not None:
            return kind, node.lineno
    return None


@register_checker
class DeterminismChecker:
    """REPRO301 set-order leaks, REPRO302 global RNG, REPRO303 id/time
    keys, REPRO304 wall-clock deadline arithmetic."""

    name = "determinism"
    codes = ("REPRO301", "REPRO302", "REPRO303", "REPRO304")

    def __init__(
        self, hot_packages: Sequence[str] = DEFAULT_HOT_PACKAGES
    ) -> None:
        self.hot_packages = tuple(hot_packages)

    def check(self, project: ProjectModel) -> Iterable[Finding]:
        findings: List[Finding] = []
        for info in project.modules.values():
            hot = info.subpackage() in self.hot_packages or (
                info.relname.split(".")[0] in self.hot_packages
            )
            scope_stack: List[Tuple[int, str]] = []
            self._visit(info, info.tree.body, hot, scope_stack, findings)
        return sorted(set(findings))

    # ------------------------------------------------------------------
    def _visit(
        self,
        info: ModuleInfo,
        body: List[ast.stmt],
        hot: bool,
        scope_stack: List[Tuple[int, str]],
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope_stack.append((stmt.lineno, stmt.name))
                self._visit(info, stmt.body, hot, scope_stack, findings)
                scope_stack.pop()
                continue
            if isinstance(stmt, ast.ClassDef):
                self._visit(info, stmt.body, hot, scope_stack, findings)
                continue
            scope_line = scope_stack[-1][0] if scope_stack else 0
            qual = scope_stack[-1][1] if scope_stack else "<module>"
            if hot and isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_set_loop(
                    info, stmt, scope_line, qual, findings
                )
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                self._check_expr(
                    info, node, hot, scope_line, qual, findings
                )
            for child in self._suites(stmt):
                self._visit(info, child, hot, scope_stack, findings)

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
    # REPRO301
    # ------------------------------------------------------------------
    def _check_set_loop(
        self,
        info: ModuleInfo,
        stmt: ast.stmt,
        scope_line: int,
        qual: str,
        findings: List[Finding],
    ) -> None:
        if not _is_set_expr(stmt.iter):
            return
        accumulates = False
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                accumulates = True
                break
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "insert")
            ):
                accumulates = True
                break
        if accumulates:
            findings.append(
                Finding(
                    path=info.display_path,
                    line=stmt.lineno,
                    code="REPRO301",
                    symbol=f"{qual}.set-iter",
                    message=(
                        "iteration over an unordered set feeds an "
                        "ordered accumulator; wrap the iterable in "
                        "sorted(...) to keep enumeration deterministic"
                    ),
                    checker=self.name,
                    scope_line=scope_line,
                )
            )

    # ------------------------------------------------------------------
    # REPRO302 / REPRO303
    # ------------------------------------------------------------------
    def _check_expr(
        self,
        info: ModuleInfo,
        node: ast.AST,
        hot: bool,
        scope_line: int,
        qual: str,
        findings: List[Finding],
    ) -> None:
        def emit(code: str, line: int, symbol: str, message: str) -> None:
            findings.append(
                Finding(
                    path=info.display_path,
                    line=line,
                    code=code,
                    symbol=symbol,
                    message=message,
                    checker=self.name,
                    scope_line=scope_line,
                )
            )

        # listcomp over a set expression: same leak as the for-loop form
        if hot and isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    emit(
                        "REPRO301",
                        node.lineno,
                        f"{qual}.set-comp",
                        "comprehension over an unordered set builds an "
                        "ordered sequence; wrap the iterable in "
                        "sorted(...)",
                    )
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain is not None:
                self._check_randomness(emit, node, chain, qual)
                self._check_key_contexts(emit, node, chain, qual)
        # d[id(x)] — a subscript key built from a volatile value
        if isinstance(node, ast.Subscript):
            hit = _find_volatile(node.slice)
            if hit is not None:
                kind, line = hit
                emit(
                    "REPRO303",
                    line,
                    f"{qual}.dictkey.{kind}",
                    f"'{kind}()' used as a subscript key; id() values "
                    f"are recycled after GC and never stable across "
                    f"processes — key on content instead",
                )
        # ``key = id(obj)`` / ``cache_key = (time.time(), ...)``
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            named_key = any(
                isinstance(t, ast.Name) and "key" in t.id.lower()
                for t in targets
            )
            if named_key and node.value is not None:
                hit = _find_volatile(node.value)
                if hit is not None:
                    kind, line = hit
                    emit(
                        "REPRO303",
                        line,
                        f"{qual}.{kind}",
                        f"'{kind}()' flows into a key-named variable; "
                        f"id() values are recycled after GC and differ "
                        f"across processes — use a content-defined key",
                    )
            # ``deadline = time.time() + budget`` — a wall-clock budget
            named_deadline = any(_deadline_named(t) for t in targets)
            if (
                named_deadline
                and node.value is not None
                and _contains_wall_clock(node.value)
            ):
                emit(
                    "REPRO304",
                    node.value.lineno,
                    f"{qual}.wallclock-deadline",
                    "'time.time()' assigned to a deadline/timeout "
                    "variable; wall clocks jump under NTP slew — "
                    "measure budgets on time.monotonic() "
                    "(repro.runtime.deadline.Deadline)",
                )
        # ``time.time() + timeout`` / ``time.time() > deadline``
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            sides = (node.left, node.right)
            if any(_contains_wall_clock(s) for s in sides) and any(
                _deadline_named(s) for s in sides
            ):
                emit(
                    "REPRO304",
                    node.lineno,
                    f"{qual}.wallclock-deadline",
                    "'time.time()' in deadline/timeout arithmetic; "
                    "wall clocks jump under NTP slew — measure "
                    "budgets on time.monotonic() "
                    "(repro.runtime.deadline.Deadline)",
                )
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(_contains_wall_clock(s) for s in sides) and any(
                _deadline_named(s) for s in sides
            ):
                emit(
                    "REPRO304",
                    node.lineno,
                    f"{qual}.wallclock-deadline",
                    "'time.time()' compared against a deadline/timeout "
                    "value; wall clocks jump under NTP slew — measure "
                    "budgets on time.monotonic() "
                    "(repro.runtime.deadline.Deadline)",
                )

    def _check_randomness(self, emit, node: ast.Call, chain, qual) -> None:
        # numpy.random.<fn> / np.random.<fn> except the seeded constructors
        if (
            len(chain) >= 3
            and chain[-2] == "random"
            and chain[0] in ("np", "numpy")
            and chain[-1] not in _SEEDED_NP_RANDOM
        ):
            emit(
                "REPRO302",
                node.lineno,
                f"{qual}.np.random.{chain[-1]}",
                f"'np.random.{chain[-1]}' uses numpy's process-global "
                f"RNG; pass a seeded np.random.default_rng(seed) "
                f"Generator instead",
            )
        # stdlib random module state: random.<fn>(...)
        if (
            len(chain) == 2
            and chain[0] == "random"
            and chain[1] in _GLOBAL_RANDOM_FNS
        ):
            emit(
                "REPRO302",
                node.lineno,
                f"{qual}.random.{chain[1]}",
                f"'random.{chain[1]}' draws from the process-global "
                f"RNG; use a seeded random.Random(seed) or numpy "
                f"Generator instead",
            )

    def _check_key_contexts(self, emit, node: ast.Call, chain, qual) -> None:
        # sorted(..., key=lambda ...: id(...)) and friends
        if chain[-1] in ("sorted", "min", "max", "sort"):
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                hit = _find_volatile(kw.value)
                if hit is not None:
                    kind, line = hit
                    emit(
                        "REPRO303",
                        line,
                        f"{qual}.sortkey.{kind}",
                        f"'{kind}()' inside a sort key makes the order "
                        f"process-dependent; sort by content instead",
                    )
        # d.get(id(x)) / d.setdefault(id(x), ...) / d.pop(id(x))
        if chain[-1] in _DICT_KEY_METHODS and node.args:
            hit = _find_volatile(node.args[0])
            if hit is not None:
                kind, line = hit
                emit(
                    "REPRO303",
                    line,
                    f"{qual}.dictkey.{kind}",
                    f"'{kind}()' used as a mapping key; id() values are "
                    f"recycled after GC and never stable across "
                    f"processes — key on content instead",
                )


__all__ = ["DeterminismChecker", "DEFAULT_HOT_PACKAGES"]
