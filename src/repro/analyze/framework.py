"""Checker framework: parsed modules, scope resolution, and the driver.

The analyzer is purely AST-based — it never imports the code under analysis,
so it can run against any tree (including deliberately broken test fixtures)
without executing engine code.  Each :class:`SourceModule` wraps one parsed
file with the parent links and scope qualnames every checker needs; a
:class:`Checker` visits modules one at a time and may emit cross-module
findings in :meth:`Checker.finish` (the lock-order graph and the stats
registry are whole-program properties).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.analyze.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.analyze.callgraph import CallGraph
    from repro.analyze.effects import EffectAnalysis

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules",
              "build", "dist", ".ruff_cache", ".mypy_cache"}


class SourceModule:
    """One parsed python file plus the lookup structures checkers share."""

    def __init__(self, path: Path, root: Path, text: str | None = None) -> None:
        self.path = path
        self.root = root
        self.relpath = self._relativize(path, root)
        self.text = path.read_text() if text is None else text
        self.tree = ast.parse(self.text, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {}
        self._scopes: dict[ast.AST, str] = {}
        self._owned: dict[ast.AST, list[ast.AST]] = {}
        self._index(self.tree, parent=None, scope="")

    @staticmethod
    def _relativize(path: Path, root: Path) -> str:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def _index(self, node: ast.AST, parent: ast.AST | None, scope: str) -> None:
        if parent is not None:
            self._parents[node] = parent
        self._scopes[node] = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            self._index(child, node, scope)

    # -- lookups -----------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def scope_of(self, node: ast.AST) -> str:
        """Dotted qualname of the scope enclosing ``node`` ('' = module)."""
        return self._scopes.get(node, "")

    def enclosing_function(self, node: ast.AST
                           ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self._parents.get(current)
        return None

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def calls(self) -> Iterator[ast.Call]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node

    def own_nodes(self, function: ast.AST) -> list[ast.AST]:
        """Nodes of ``function``'s body in ``ast.walk`` order, excluding
        nested function bodies (each nested function is analyzed on its
        own).  Memoized: every interprocedural checker walks them."""
        owned = self._owned.get(function)
        if owned is None:
            owned = self._owned[function] = [
                node for node in ast.walk(function)
                if self.enclosing_function(node) is function]
        return owned

    def own_calls(self, function: ast.AST) -> Iterator[ast.Call]:
        for node in self.own_nodes(function):
            if isinstance(node, ast.Call):
                yield node

    def statement_of(self, node: ast.AST) -> ast.stmt | None:
        """The statement containing ``node`` (``node`` itself if one)."""
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, ast.stmt):
                return current
            current = self._parents.get(current)
        return None

    def finding(self, code: str, checker: str, node: ast.AST, message: str,
                **kwargs: Any) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        kwargs.setdefault("scope", self.scope_of(node))
        return Finding(code=code, checker=checker, path=self.relpath,
                       line=getattr(node, "lineno", 0),
                       column=getattr(node, "col_offset", 0),
                       message=message, **kwargs)


def call_name(call: ast.Call) -> str:
    """Name of the called attribute/function (``''`` when unnameable)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def receiver_text(call: ast.Call) -> str:
    """Dotted text of a call's receiver (``'self.pool'`` for
    ``self.pool.fetch(...)``; ``''`` for plain-name calls)."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return ""
    parts: list[str] = []
    node: ast.expr = func.value
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("<expr>")
    return ".".join(reversed(parts))


def call_text(call: ast.Call) -> str:
    """Display text of a call: ``self.pool.fetch``, or ``helper``."""
    receiver = receiver_text(call)
    name = call_name(call)
    return f"{receiver}.{name}" if receiver else name


class Program:
    """Every module of one analysis run, plus lazily built whole-program
    structures (call graph, effect summaries).

    The driver hands one :class:`Program` to every checker through
    :meth:`Checker.begin` and appends each successfully parsed module to
    it, so cross-module checkers share a single call-graph/effect
    computation instead of each building their own.  The expensive
    structures are built on first request: runs that select only
    intraprocedural checkers never pay for them.
    """

    def __init__(self) -> None:
        self.modules: list[SourceModule] = []
        self._callgraph: CallGraph | None = None
        self._effects: EffectAnalysis | None = None

    def add(self, module: SourceModule) -> None:
        self.modules.append(module)
        # A new module invalidates anything built from the old set.
        self._callgraph = None
        self._effects = None

    def callgraph(self) -> CallGraph:
        """The whole-program call graph (built on first use)."""
        from repro.analyze.callgraph import CallGraph
        if self._callgraph is None:
            graph = CallGraph()
            for module in self.modules:
                graph.add_module(module)
            graph.resolve()
            self._callgraph = graph
        return self._callgraph

    def effects(self) -> EffectAnalysis:
        """Fixpoint resource-effect summaries (built on first use)."""
        from repro.analyze.effects import EffectAnalysis
        if self._effects is None:
            self._effects = EffectAnalysis(self.callgraph())
        return self._effects


class Checker:
    """Base class: one engine invariant, one or more finding codes."""

    #: short identifier used in reports and ``--select``
    name: str = ""
    #: finding codes this checker can emit
    codes: tuple[str, ...] = ()
    #: one-line description of the encoded invariant
    description: str = ""
    #: per-code one-line descriptions (``--list-checkers``)
    code_descriptions: dict[str, str] = {}

    def begin(self, program: Program) -> None:
        """Receive the shared :class:`Program` before any module is visited.

        Interprocedural checkers keep the reference and consult
        ``program.callgraph()`` / ``program.effects()`` in :meth:`finish`,
        once every module has been parsed and added.
        """

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        """Per-file pass; yield findings local to ``module``."""
        return ()

    def finish(self) -> Iterable[Finding]:
        """Cross-file pass, run once after every module was visited."""
        return ()


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(part.name for part in p.parents)))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def run_checkers(checkers: Iterable[Checker], paths: Iterable[Path],
                 root: Path | None = None,
                 on_error: Callable[[Path, Exception], None] | None = None
                 ) -> list[Finding]:
    """Parse every file under ``paths`` and run ``checkers`` over them.

    Files that fail to parse are reported through ``on_error`` (a callable
    receiving ``(path, exception)``) and skipped — the analyzer must degrade
    gracefully on a broken tree rather than crash the CI job.
    """
    checkers = list(checkers)
    root = root if root is not None else Path.cwd()
    findings: list[Finding] = []
    program = Program()
    for checker in checkers:
        checker.begin(program)
    for path in iter_python_files(paths):
        try:
            module = SourceModule(path, root)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            if on_error is not None:
                on_error(path, exc)
            continue
        program.add(module)
        for checker in checkers:
            findings.extend(checker.check_module(module))
    for checker in checkers:
        findings.extend(checker.finish())
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings
