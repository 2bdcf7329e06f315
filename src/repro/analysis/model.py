"""``ProjectModel`` — parse the whole package once, share the facts.

Every checker needs the same substrate: module ASTs, a class/attribute
symbol table (which classes declare ``threading.Lock``s, which
module-level globals are mutable), and the project-internal import
graph (to answer "is this module reachable from the fork/worker entry
points?"). Parsing is stdlib :mod:`ast` only — the analysis package
must run in the dependency-free docs lane, so it never imports the
code under analysis.

Conventions the model encodes (documented in docs/analysis.md):

* a method whose name ends in ``_locked`` is *called with the lock
  held* — its mutations count as guarded;
* ``self.x = threading.Condition(self.y)`` makes holding ``x``
  equivalent to holding ``y``; a bare ``threading.Condition()`` owns
  its own hidden lock;
* ``# repro: noqa[CODE1,CODE2]`` (or bare ``# repro: noqa``) on a
  finding's line suppresses it in place.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.exceptions import AnalysisError

#: inline suppression comment: ``# repro: noqa`` or ``# repro: noqa[REPRO101]``
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")

#: calls that construct a lock object when attributed to ``threading``
_LOCK_FACTORIES = ("Lock", "RLock")

#: expressions at module level that create a mutable container
_MUTABLE_CALLS = ("dict", "list", "set", "OrderedDict", "defaultdict", "deque")


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_threading_call(node: ast.AST, names: Iterable[str]) -> Optional[str]:
    """If ``node`` is ``threading.X(...)`` / ``X(...)`` for X in names,
    return X."""
    if not isinstance(node, ast.Call):
        return None
    chain = _attr_chain(node.func)
    if chain is None:
        return None
    if len(chain) == 2 and chain[0] == "threading" and chain[1] in names:
        return chain[1]
    if len(chain) == 1 and chain[0] in names:
        return chain[0]
    return None


@dataclass
class LockDecl:
    """One ``self.<attr> = threading.Lock()/RLock()`` declaration."""

    attr: str
    reentrant: bool
    line: int


@dataclass
class ClassInfo:
    """A class definition plus its lock-relevant facts."""

    module: "ModuleInfo"
    name: str
    node: ast.ClassDef
    #: lock attribute name -> declaration (Lock vs RLock)
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    #: condition attribute -> the lock attribute it wraps (itself if
    #: constructed bare, owning a private lock)
    conditions: Dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module.relname}.{self.name}"

    def methods(self) -> List[ast.FunctionDef]:
        out: List[ast.FunctionDef] = []
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(stmt)
        return out

    def lock_for(self, attr: str) -> Optional[str]:
        """The canonical lock attr held when ``with self.<attr>:`` runs."""
        if attr in self.locks:
            return attr
        return self.conditions.get(attr)


@dataclass
class GlobalInfo:
    """One module-level assignment worth reasoning about."""

    name: str
    line: int
    #: the assigned value expression
    value: ast.expr
    #: a dict/list/set/... literal or constructor call
    is_mutable_container: bool
    #: simple class name if the value is ``SomeClass(...)``
    class_name: Optional[str] = None


@dataclass
class ModuleInfo:
    """One parsed source module."""

    name: str  # dotted, including the top package: "repro.runtime.plan"
    relname: str  # sans top package: "runtime.plan" ("" for the root)
    path: Path
    tree: ast.Module
    source_lines: List[str]
    classes: List[ClassInfo] = field(default_factory=list)
    globals: Dict[str, GlobalInfo] = field(default_factory=dict)
    #: project-internal imports, as relnames
    imports: Set[str] = field(default_factory=set)
    #: (line -> frozenset of suppressed codes; empty set = all codes)
    noqa: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        """Path relative to the package parent, posix separators."""
        return self._display

    _display: str = ""

    def subpackage(self) -> str:
        """First dotted component of ``relname`` ("" for top modules)."""
        return self.relname.split(".", 1)[0] if "." in self.relname else ""

    def suppressed_codes(self, line: int) -> Optional[FrozenSet[str]]:
        """Codes noqa'd at ``line`` (empty frozenset = every code)."""
        return self.noqa.get(line)


class ProjectModel:
    """All modules of one package, parsed once, plus derived indexes."""

    def __init__(self, root: Path, package: Optional[str] = None) -> None:
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise AnalysisError(f"analysis root is not a directory: {root}")
        self.package = package or self.root.name
        self.modules: Dict[str, ModuleInfo] = {}  # keyed by relname
        #: simple class name -> every ClassInfo using it
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self._load()
        self._index_imports()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root)
            parts = list(rel.parts)
            if parts[-1] == "__init__.py":
                parts = parts[:-1]
            else:
                parts[-1] = parts[-1][:-3]
            relname = ".".join(parts)
            dotted = (
                f"{self.package}.{relname}" if relname else self.package
            )
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError) as exc:
                raise AnalysisError(
                    f"cannot parse {path}: {exc}"
                ) from exc
            info = ModuleInfo(
                name=dotted,
                relname=relname,
                path=path,
                tree=tree,
                source_lines=source.splitlines(),
            )
            info._display = (
                Path(self.package) / rel
            ).as_posix()
            self._scan_noqa(info)
            self._scan_classes(info)
            self._scan_globals(info)
            self.modules[relname] = info
        if not self.modules:
            raise AnalysisError(f"no python modules under {self.root}")

    def _scan_noqa(self, info: ModuleInfo) -> None:
        for i, text in enumerate(info.source_lines, start=1):
            if "#" not in text:
                continue
            m = _NOQA_RE.search(text)
            if m is None:
                continue
            codes = m.group(1)
            if codes is None:
                info.noqa[i] = frozenset()
            else:
                info.noqa[i] = frozenset(
                    c.strip().upper() for c in codes.split(",") if c.strip()
                )

    def _scan_classes(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = ClassInfo(module=info, name=node.name, node=node)
            for method in cls.methods():
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for target in stmt.targets:
                        chain = _attr_chain(target)
                        if (
                            chain is None
                            or len(chain) != 2
                            or chain[0] != "self"
                        ):
                            continue
                        attr = chain[1]
                        kind = _is_threading_call(
                            stmt.value, _LOCK_FACTORIES
                        )
                        if kind is not None:
                            cls.locks[attr] = LockDecl(
                                attr=attr,
                                reentrant=kind == "RLock",
                                line=stmt.lineno,
                            )
                            continue
                        if _is_threading_call(stmt.value, ("Condition",)):
                            call = stmt.value
                            wrapped = attr  # bare Condition(): its own lock
                            if isinstance(call, ast.Call) and call.args:
                                arg_chain = _attr_chain(call.args[0])
                                if (
                                    arg_chain is not None
                                    and len(arg_chain) == 2
                                    and arg_chain[0] == "self"
                                ):
                                    wrapped = arg_chain[1]
                            cls.conditions[attr] = wrapped
            info.classes.append(cls)
            self.classes_by_name.setdefault(cls.name, []).append(cls)

    def _scan_globals(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                ]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                targets = [stmt.target.id]
                value = stmt.value
            else:
                continue
            if value is None:
                continue
            mutable = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                        ast.ListComp, ast.SetComp)
            )
            class_name: Optional[str] = None
            if isinstance(value, ast.Call):
                chain = _attr_chain(value.func)
                if chain is not None:
                    leaf = chain[-1]
                    if leaf in _MUTABLE_CALLS:
                        mutable = True
                    elif leaf[:1].isupper():
                        class_name = leaf
            for name in targets:
                if name == "__all__":
                    continue
                info.globals[name] = GlobalInfo(
                    name=name,
                    line=stmt.lineno,
                    value=value,
                    is_mutable_container=mutable,
                    class_name=class_name,
                )

    # ------------------------------------------------------------------
    # import graph
    # ------------------------------------------------------------------
    def _index_imports(self) -> None:
        for info in self.modules.values():
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self._add_import(info, alias.name)
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    if node.level:
                        # relative import: resolve against this module
                        pkg_parts = info.relname.split(".") if info.relname else []
                        if info.path.name != "__init__.py":
                            pkg_parts = pkg_parts[:-1]
                        drop = node.level - 1
                        if drop:
                            pkg_parts = pkg_parts[: len(pkg_parts) - drop]
                        prefix = ".".join(pkg_parts)
                        base = (
                            f"{self.package}.{prefix}.{base}".rstrip(".")
                            if prefix
                            else f"{self.package}.{base}".rstrip(".")
                        )
                    for alias in node.names:
                        self._add_import(info, f"{base}.{alias.name}")
                        self._add_import(info, base)

    def _add_import(self, info: ModuleInfo, dotted: str) -> None:
        """Record ``dotted`` if it names a module of this project."""
        prefix = self.package + "."
        if dotted == self.package:
            return
        if not dotted.startswith(prefix):
            return
        rel = dotted[len(prefix):]
        # longest known-module prefix of the dotted path wins, so
        # ``from repro.x.y import symbol`` resolves to module x.y
        parts = rel.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                if candidate != info.relname:
                    info.imports.add(candidate)
                return

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Transitive import closure (relnames), roots included.

        A root may be an exact relname or a suffix of one (so callers
        can say ``runtime.executors`` regardless of package nesting).
        """
        frontier: List[str] = []
        for root in roots:
            for relname in self.modules:
                if relname == root or relname.endswith("." + root):
                    frontier.append(relname)
        seen: Set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.modules[current].imports - seen)
        return seen

    # ------------------------------------------------------------------
    def resolve_class(self, name: str) -> List[ClassInfo]:
        """Every project class with this simple name (usually one)."""
        return list(self.classes_by_name.get(name, ()))


__all__ = [
    "ProjectModel",
    "ModuleInfo",
    "ClassInfo",
    "GlobalInfo",
    "LockDecl",
]
