"""Lock-discipline checker (``REPRO1xx``).

Protects the concurrency contracts of docs/runtime.md: state that a
class guards with a ``threading.Lock``/``RLock`` must *always* be
mutated with that lock held, and the project-wide lock acquisition
order must be cycle-free.

``REPRO101`` — an attribute is mutated at least once inside a
``with self.<lock>:`` block of its class (so it is *guarded* state)
and at least once outside one. ``__init__`` is exempt (the instance
is not yet shared), and a method whose name ends in ``_locked`` is
assumed to run with the lock held (the convention
``_Job._requeue_locked`` in ``runtime/cluster/coordinator.py``
follows).

``REPRO102`` — deadlock-shaped acquisitions: re-entering a
non-reentrant ``threading.Lock`` that is already held on the same
path, or a cycle in the directed graph of nested named-lock
acquisitions (lock A held while taking B somewhere, B held while
taking A elsewhere).

A ``# repro: noqa[CODE]`` on the finding's line — or on the enclosing
``def`` line, which suppresses the code for the whole function —
exempts intentional sites (e.g. ``_reinit_after_fork``, which runs in
a freshly forked single-threaded child by design).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.base import register_checker
from repro.analysis.findings import Finding
from repro.analysis.model import (
    ClassInfo,
    ModuleInfo,
    ProjectModel,
    _attr_chain,
)

#: method calls that mutate their receiver in place
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "reverse",
        "update",
    }
)

#: (module relname, line, enclosing-def line, symbol)
_Site = Tuple[str, int, int, str]


class _Mutation:
    __slots__ = ("attr", "line", "scope_line", "method", "locked")

    def __init__(
        self, attr: str, line: int, scope_line: int, method: str, locked: bool
    ):
        self.attr = attr
        self.line = line
        self.scope_line = scope_line
        self.method = method
        self.locked = locked


@register_checker
class LockDisciplineChecker:
    """REPRO101 guarded-attribute discipline + REPRO102 lock ordering."""

    name = "locks"
    codes = ("REPRO101", "REPRO102")

    def check(self, project: ProjectModel) -> Iterable[Finding]:
        findings: List[Finding] = []
        #: (outer token, inner token) -> first site
        edges: Dict[Tuple[str, str], _Site] = {}
        #: lock attr name -> classes declaring it (for token resolution)
        owners: Dict[str, List[ClassInfo]] = {}
        for info in project.modules.values():
            for cls in info.classes:
                for attr in cls.locks:
                    owners.setdefault(attr, []).append(cls)
        for info in project.modules.values():
            for cls in info.classes:
                if cls.locks or cls.conditions:
                    findings.extend(self._check_class(info, cls))
            self._scan_orderings(info, owners, edges, findings)
        findings.extend(self._cycle_findings(project, edges))
        return sorted(set(findings))

    # ------------------------------------------------------------------
    # REPRO101
    # ------------------------------------------------------------------
    def _check_class(
        self, info: ModuleInfo, cls: ClassInfo
    ) -> List[Finding]:
        mutations: List[_Mutation] = []
        for method in cls.methods():
            if method.name == "__init__":
                continue
            lock_held_always = method.name.endswith("_locked")
            self._walk_method(
                cls, method, method.body, frozenset(), lock_held_always,
                mutations,
            )
        guarded: Set[str] = {m.attr for m in mutations if m.locked}
        guarded -= set(cls.locks) | set(cls.conditions)
        out: List[Finding] = []
        for m in mutations:
            if m.locked or m.attr not in guarded:
                continue
            out.append(
                Finding(
                    path=info.display_path,
                    line=m.line,
                    code="REPRO101",
                    symbol=f"{cls.name}.{m.method}.{m.attr}",
                    message=(
                        f"'self.{m.attr}' is guarded by "
                        f"'{cls.name}'s lock elsewhere but mutated here "
                        f"without holding it (method '{m.method}')"
                    ),
                    checker=self.name,
                    scope_line=m.scope_line,
                )
            )
        return out

    def _walk_method(
        self,
        cls: ClassInfo,
        method: ast.FunctionDef,
        body: List[ast.stmt],
        held: FrozenSet[str],
        always: bool,
        mutations: List[_Mutation],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # closures run later; lock state unknowable
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = set(held)
                for item in stmt.items:
                    lock = self._own_lock(cls, item.context_expr)
                    if lock is not None:
                        acquired.add(lock)
                self._record_stmt_mutations(
                    cls, method, stmt, held, always, mutations, heads_only=True
                )
                self._walk_method(
                    cls, method, stmt.body, frozenset(acquired), always,
                    mutations,
                )
                continue
            self._record_stmt_mutations(
                cls, method, stmt, held, always, mutations
            )
            for child_body in self._nested_bodies(stmt):
                self._walk_method(
                    cls, method, child_body, held, always, mutations
                )

    @staticmethod
    def _nested_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
        out: List[List[ast.stmt]] = []
        for field_name in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                out.append(value)
        for handler in getattr(stmt, "handlers", ()) or ():
            out.append(handler.body)
        for case in getattr(stmt, "cases", ()) or ():
            out.append(case.body)
        return out

    def _record_stmt_mutations(
        self,
        cls: ClassInfo,
        method: ast.FunctionDef,
        stmt: ast.stmt,
        held: FrozenSet[str],
        always: bool,
        mutations: List[_Mutation],
        heads_only: bool = False,
    ) -> None:
        """Collect ``self.<attr>`` mutations in one statement.

        ``heads_only`` restricts the scan to the statement's own
        expressions (used for ``with`` headers, whose bodies are walked
        with the updated lock set).
        """
        locked = always or bool(held)

        def emit(attr: str, line: int) -> None:
            mutations.append(
                _Mutation(attr, line, method.lineno, method.name, locked)
            )

        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            targets = [stmt.target]
        for target in targets:
            for attr in self._self_attrs(target):
                emit(attr, stmt.lineno)
        # mutating method calls in the statement's *own* expressions;
        # nested suites re-enter via _walk_method with the correct lock
        # state, so the scan must never descend into child statements
        for root in self._head_exprs(stmt, heads_only):
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                ):
                    chain = _attr_chain(func.value)
                    if chain and len(chain) >= 2 and chain[0] == "self":
                        emit(chain[1], node.lineno)

    @staticmethod
    def _head_exprs(stmt: ast.stmt, heads_only: bool) -> List[ast.AST]:
        """The statement's own expressions, excluding child suites."""
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if hasattr(stmt, "body") or hasattr(stmt, "cases"):
            return []  # other compound statements: suites re-enter later
        return [stmt]  # simple statement: no nested suites to avoid

    @staticmethod
    def _self_attrs(target: ast.expr) -> List[str]:
        """The ``X`` of every ``self.X...`` assignment/deletion target."""
        node = target
        if isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        chain = _attr_chain(node)
        if chain and len(chain) >= 2 and chain[0] == "self":
            return [chain[1]]
        out: List[str] = []
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                out.extend(LockDisciplineChecker._self_attrs(element))
        return out

    def _own_lock(
        self, cls: ClassInfo, expr: ast.expr
    ) -> Optional[str]:
        """Canonical lock attr acquired by ``with <expr>:`` on self."""
        chain = _attr_chain(expr)
        if chain and len(chain) == 2 and chain[0] == "self":
            return cls.lock_for(chain[1])
        return None

    # ------------------------------------------------------------------
    # REPRO102
    # ------------------------------------------------------------------
    def _scan_orderings(
        self,
        info: ModuleInfo,
        owners: Dict[str, List[ClassInfo]],
        edges: Dict[Tuple[str, str], _Site],
        findings: List[Finding],
    ) -> None:
        for func, cls in self._functions(info):
            self._walk_order(
                info, cls, func, func.body, [], owners, edges, findings
            )

    @staticmethod
    def _functions(
        info: ModuleInfo,
    ) -> List[Tuple[ast.FunctionDef, Optional[ClassInfo]]]:
        out: List[Tuple[ast.FunctionDef, Optional[ClassInfo]]] = []
        for cls in info.classes:
            for method in cls.methods():
                out.append((method, cls))
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((stmt, None))
        return out

    def _lock_token(
        self,
        cls: Optional[ClassInfo],
        expr: ast.expr,
        owners: Dict[str, List[ClassInfo]],
    ) -> Optional[Tuple[str, Optional[bool]]]:
        """(token, reentrant?) for a ``with`` context expression.

        Only expressions that name a known lock attribute produce a
        token; ``reentrant`` is None when the declaring class is
        ambiguous.
        """
        chain = _attr_chain(expr)
        if chain is None:
            return None
        attr = chain[-1]
        if cls is not None and len(chain) == 2 and chain[0] == "self":
            canonical = cls.lock_for(chain[1])
            if canonical is not None:
                decl = cls.locks.get(canonical)
                return (
                    f"{cls.name}.{canonical}",
                    decl.reentrant if decl else True,  # Condition: RLock
                )
            return None
        declaring = owners.get(attr, [])
        if len(declaring) == 1:
            decl = declaring[0].locks[attr]
            return (f"{declaring[0].name}.{attr}", decl.reentrant)
        if declaring:
            # ambiguous owner: the expression text is the token
            return (ast.unparse(expr), None)
        return None

    def _walk_order(
        self,
        info: ModuleInfo,
        cls: Optional[ClassInfo],
        func: ast.FunctionDef,
        body: List[ast.stmt],
        held: List[Tuple[str, Optional[bool]]],
        owners: Dict[str, List[ClassInfo]],
        edges: Dict[Tuple[str, str], _Site],
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                new_held = list(held)
                for item in stmt.items:
                    token = self._lock_token(cls, item.context_expr, owners)
                    if token is None:
                        continue
                    name, reentrant = token
                    held_names = [t[0] for t in new_held]
                    if name in held_names and reentrant is False:
                        qual = (
                            f"{cls.name}.{func.name}" if cls else func.name
                        )
                        findings.append(
                            Finding(
                                path=info.display_path,
                                line=stmt.lineno,
                                code="REPRO102",
                                symbol=f"{qual}.{name}",
                                message=(
                                    f"non-reentrant lock '{name}' is "
                                    f"acquired again while already held "
                                    f"on this path (deadlock)"
                                ),
                                checker=self.name,
                                scope_line=func.lineno,
                            )
                        )
                    for outer_name, _ in new_held:
                        if outer_name != name:
                            edges.setdefault(
                                (outer_name, name),
                                (
                                    info.relname,
                                    stmt.lineno,
                                    func.lineno,
                                    f"{cls.name}.{func.name}"
                                    if cls
                                    else func.name,
                                ),
                            )
                    new_held.append((name, reentrant))
                self._walk_order(
                    info, cls, func, stmt.body, new_held, owners, edges,
                    findings,
                )
                continue
            for child_body in self._nested_bodies(stmt):
                self._walk_order(
                    info, cls, func, child_body, held, owners, edges,
                    findings,
                )

    def _cycle_findings(
        self,
        project: ProjectModel,
        edges: Dict[Tuple[str, str], _Site],
    ) -> List[Finding]:
        """Report every acquisition edge that participates in a cycle."""
        graph: Dict[str, Set[str]] = {}
        for outer, inner in edges:
            graph.setdefault(outer, set()).add(inner)
            graph.setdefault(inner, set())
        # iterative DFS reachability: edge (a, b) is cyclic iff a is
        # reachable from b
        reach: Dict[str, Set[str]] = {}
        for start in graph:
            seen: Set[str] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in graph.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            reach[start] = seen
        out: List[Finding] = []
        for (outer, inner), (relname, line, scope_line, qual) in edges.items():
            if outer in reach.get(inner, ()):  # b ->* a: cycle through (a,b)
                info = project.modules[relname]
                out.append(
                    Finding(
                        path=info.display_path,
                        line=line,
                        code="REPRO102",
                        symbol=f"{qual}.{outer}->{inner}",
                        message=(
                            f"lock '{inner}' is acquired while holding "
                            f"'{outer}', but the opposite order also "
                            f"exists in the project (deadlock cycle)"
                        ),
                        checker=self.name,
                        scope_line=scope_line,
                    )
                )
        return out


__all__ = ["LockDisciplineChecker", "MUTATOR_METHODS"]
