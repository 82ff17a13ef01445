"""Whole-program call graph over every analyzed :class:`SourceModule`.

The intraprocedural checkers of PR 3 see one function body at a time, so a
protocol violation routed through a helper (``_write_new`` calling a pinning
helper, a lock taken inside a utility invoked from an except handler) is
invisible to them.  This module builds the call graph the interprocedural
checkers and the effect-summary engine (:mod:`repro.analyze.effects`) walk.

Resolution rules — deliberately simple, each one either *precise* or a
documented approximation (see DESIGN.md "Interprocedural analysis"):

* ``self.m(...)`` / ``cls.m(...)`` — method ``m`` of the enclosing class if
  it defines one; otherwise the known base-class chain (matched by name) is
  searched; otherwise, conservatively, *every* class method named ``m`` in
  the program (the class may inherit from something outside the analyzed
  tree).
* plain ``f(...)`` — the module-level function ``f`` of the same module, or
  the function a ``from X import f`` binds (when ``X`` is an analyzed
  module).  A plain name that resolves to a known *class* resolves to that
  class's ``__init__``.
* ``ClassName.m(...)`` — method ``m`` of the named class (unbound call).
* ``obj.m(...)`` on any other receiver — **unresolved**.  Resolving by bare
  method name would conflate ``lines.append`` with ``LogManager.append`` and
  poison every summary.  Lock-order and pin checks are blind to calls
  through such receivers; only tests see those.

Calls passed as values (callbacks), decorators and ``getattr`` dispatch are
not resolved — the same conservative direction: the graph may miss edges on
dynamic receivers but never invents impossible ones, so every reported call
path is a real path through the source.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import Iterator

from repro.analyze.framework import (SourceModule, call_name, call_text,
                                     receiver_text)


class FunctionInfo:
    """One function (or method) of the analyzed program."""

    def __init__(self, module: SourceModule,
                 node: ast.FunctionDef | ast.AsyncFunctionDef,
                 cls: str | None) -> None:
        self.module = module
        self.node = node
        self.cls = cls  # enclosing class name, None for module-level/nested
        scope = module.scope_of(node)
        self.qualname = f"{scope}.{node.name}" if scope else node.name
        #: program-wide identity: ``relpath::qualname``
        self.fid = f"{module.relpath}::{self.qualname}"

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def path(self) -> str:
        return self.module.relpath

    @property
    def line(self) -> int:
        return self.node.lineno

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FunctionInfo({self.fid})"


class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at a line."""

    def __init__(self, caller: FunctionInfo, callee: FunctionInfo,
                 call: ast.Call) -> None:
        self.caller = caller
        self.callee = callee
        self.call = call
        self.line = call.lineno
        self.text = call_text(call)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"CallSite({self.caller.qualname} -> "
                f"{self.callee.qualname} @{self.line})")


class CallGraph:
    """Functions indexed for resolution, plus the resolved edge set."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        #: caller fid -> resolved call sites, in source order
        self.callees_of: dict[str, list[CallSite]] = defaultdict(list)
        #: callee fid -> call sites targeting it
        self.callers_of: dict[str, list[CallSite]] = defaultdict(list)
        self._modules: list[SourceModule] = []
        #: (relpath, name) -> module-level function
        self._module_functions: dict[tuple[str, str], FunctionInfo] = {}
        #: class name -> {method name -> [FunctionInfo]} (name collisions
        #: across modules keep every candidate — conservative).
        self._class_methods: dict[str, dict[str, list[FunctionInfo]]] = \
            defaultdict(lambda: defaultdict(list))
        #: method name -> every class method with that name
        self._methods_by_name: dict[str, list[FunctionInfo]] = \
            defaultdict(list)
        #: class name -> base-class names (textual, first-match resolution)
        self._bases: dict[str, list[str]] = {}
        #: (relpath, local name) -> imported dotted source ("pkg.mod.f")
        self._imports: dict[tuple[str, str], str] = {}
        #: dotted module path guesses -> relpath of an analyzed module
        self._dotted_modules: dict[str, str] = {}

    # -- construction ------------------------------------------------------

    def add_module(self, module: SourceModule) -> None:
        """Index one module's functions, classes and imports."""
        self._modules.append(module)
        relpath = module.relpath
        dotted = relpath[:-3].replace("/", ".") if relpath.endswith(".py") \
            else relpath.replace("/", ".")
        self._dotted_modules[dotted] = relpath
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = self._enclosing_class(module, node)
                info = FunctionInfo(module, node, cls)
                self.functions[info.fid] = info
                if cls is None and module.scope_of(node) == "":
                    self._module_functions[(relpath, node.name)] = info
                if cls is not None:
                    self._class_methods[cls][node.name].append(info)
                    self._methods_by_name[node.name].append(info)
            elif isinstance(node, ast.ClassDef):
                bases: list[str] = []
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.append(base.attr)
                self._bases.setdefault(node.name, bases)
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._imports[(relpath, local)] = \
                        f"{node.module}.{alias.name}"

    @staticmethod
    def _enclosing_class(module: SourceModule,
                         node: ast.FunctionDef | ast.AsyncFunctionDef
                         ) -> str | None:
        """Name of the class this function is a direct method of."""
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor.name
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None  # nested function, not a method
        return None

    def resolve(self) -> None:
        """Build the edge set once every module has been added."""
        for info in list(self.functions.values()):
            for node in info.module.own_calls(info.node):
                for callee in self.resolve_call(info, node):
                    site = CallSite(info, callee, node)
                    self.callees_of[info.fid].append(site)
                    self.callers_of[callee.fid].append(site)
        for sites in self.callees_of.values():
            sites.sort(key=lambda s: (s.line, s.call.col_offset))

    # -- resolution --------------------------------------------------------

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> list[FunctionInfo]:
        """Candidate callees of ``call`` (empty when unresolvable)."""
        name = call_name(call)
        if not name:
            return []
        receiver = receiver_text(call)
        if receiver == "":
            return self._resolve_plain(caller.module, name)
        if receiver in ("self", "cls") and caller.cls is not None:
            return self._resolve_self(caller.cls, name)
        if "." not in receiver and receiver in self._class_methods:
            # class-qualified call: ClassName.method(...)
            return list(self._class_methods[receiver].get(name, ()))
        return []  # arbitrary receiver: documented blind spot

    def _resolve_plain(self, module: SourceModule,
                       name: str) -> list[FunctionInfo]:
        local = self._module_functions.get((module.relpath, name))
        if local is not None:
            return [local]
        dotted = self._imports.get((module.relpath, name))
        if dotted is not None:
            source, _, original = dotted.rpartition(".")
            target = self._lookup_dotted(source)
            if target is not None:
                imported = self._module_functions.get((target, original))
                if imported is not None:
                    return [imported]
                # ``from mod import ClassName`` used as a constructor.
                ctor = self._constructor(original)
                if ctor:
                    return ctor
        if name in self._class_methods and \
                name not in self._methods_by_name:
            # bare ClassName(...) constructor call on a known class
            return self._constructor(name)
        return []

    def _constructor(self, class_name: str) -> list[FunctionInfo]:
        return list(self._class_methods.get(class_name, {}).get(
            "__init__", ()))

    def _lookup_dotted(self, dotted: str) -> str | None:
        """Relpath of the analyzed module a dotted import names, if any.

        Analysis roots rarely coincide with package roots, so the dotted
        name is matched by progressively dropping leading packages:
        ``repro.rdb.locks`` matches an analyzed ``repro/rdb/locks.py`` as
        well as ``src/repro/rdb/locks.py`` analyzed from the repo root.
        """
        parts = dotted.split(".")
        for start in range(len(parts)):
            suffix = ".".join(parts[start:])
            for known, relpath in self._dotted_modules.items():
                if known == suffix or known.endswith("." + suffix):
                    return relpath
        return None

    def _resolve_self(self, cls: str, name: str) -> list[FunctionInfo]:
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            methods = self._class_methods.get(current, {}).get(name)
            if methods:
                return list(methods)
            queue.extend(self._bases.get(current, ()))
        # The class (or a base outside the tree) may define it anywhere:
        # conservatively, every method with that name.
        return list(self._methods_by_name.get(name, ()))

    # -- lookups -----------------------------------------------------------

    def lookup(self, fid: str) -> FunctionInfo | None:
        return self.functions.get(fid)

    def by_qualname(self, qualname: str) -> list[FunctionInfo]:
        """Every function whose dotted qualname matches (any module)."""
        return [info for info in self.functions.values()
                if info.qualname == qualname]

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())
