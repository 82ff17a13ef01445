"""Race and latch-discipline checkers over declared guards.

Every class that creates a lock states which of its fields the lock
guards, as a class-level literal next to it — the ``GUARDED_BY`` idiom of
Clang's thread-safety analysis, read here from the AST::

    GUARDED_BY = {"_lock": ("_counters", "_gauges", "_histograms")}

A lock declared with no fields (``{"latch": ()}``) guards a whole
subsystem, not named fields; only LATCH001 covers its regions.

* **RACE001** — a declared field is accessed through ``self`` with its
  lock not held: not inside a ``with`` on it, and not in a helper whose
  **entry lockset** (the locks held at every resolved call site, a
  descending fixpoint over the call graph) contains it.  ``__init__`` is
  exempt, and so are reads in ``__repr__``/``__str__``.
* **RACE002** — check-then-act: a declared field is *tested* under its
  lock, the lock is released, and a dependent *write* re-acquires it.
* **RACE003** — a declaration out of step with its class: a
  ``Lock()``/``RLock()`` assigned to a ``self`` attribute it does not
  name, a declared lock or field ``__init__`` never assigns, or a
  ``GUARDED_BY`` that is not a literal of names.
* **LATCH001** — a latch held across a blocking call (sleep, wait, join,
  another lock), proven directly or through the ``may_block`` effect
  summaries, or, under a non-engine latch, across a page flush or a
  nested lock-ish ``with``.  The engine latch may flush and may enclose
  other locks: checkpoints force pages under it by design, and the
  documented lock order is engine latch first.

``--explain`` renders the witness: for RACE001 the declaration, then the
access; for LATCH001 the chain from the ``with`` into the callee that
blocks.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, TypeGuard

from repro.analyze import effects as fx
from repro.analyze.callgraph import CallGraph, FunctionInfo
from repro.analyze.findings import Finding
from repro.analyze.framework import (Checker, Program, SourceModule,
                                     call_name, call_text)

#: Method names that mutate their receiver in place: for RACE002 a call
#: ``self.field.pop(...)`` is a dependent *write* to ``field``.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
})

#: Methods whose unguarded *reads* are never reported: debug formatting
#: helpers, exempt by convention (a torn read in a repr is harmless).
_READ_EXEMPT_METHODS = frozenset({"__repr__", "__str__"})

#: Constructors whose result assigned to ``self.<f>`` makes ``f`` a lock.
_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock"})

def guard_token(expr: ast.expr) -> str | None:
    """Normalized latch token of a ``with`` context expression, if lock-ish.

    ``with self._state_lock:`` -> ``_state_lock``; ``with self.db.latch:``
    -> ``db.latch``; ``with self.lock_of(name):`` -> ``lock_of()``.
    Context managers whose last segment does not smell like a lock
    (``stats.trace(...)``, ``open(...)``) yield ``None`` — they scope
    resources, not mutual exclusion.
    """
    suffix = ""
    target = expr
    if isinstance(expr, ast.Call):
        target = expr.func
        suffix = "()"
    token = ast.unparse(target)
    if not re.fullmatch(r"[\w.]+", token):
        return None  # not a Name/Attribute chain
    if token.startswith("self."):
        token = token[len("self."):]
    tail = token.rsplit(".", 1)[-1].lower()
    if "lock" in tail or "latch" in tail or "mutex" in tail:
        return token + suffix
    return None


def syntactic_guards(module: SourceModule, node: ast.AST
                     ) -> list[tuple[str, int]]:
    """(token, region id) per enclosing lock-ish ``with``, inner-first.

    The region id (the ``With`` node's line) distinguishes two
    acquisitions of the *same* latch — what RACE002 needs to see a
    guard released between a check and its dependent act.
    """
    guards: list[tuple[str, int]] = []
    previous: ast.AST = node
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.With) and \
                not isinstance(previous, ast.withitem):
            for item in ancestor.items:
                token = guard_token(item.context_expr)
                if token is not None:
                    guards.append((token, ancestor.lineno))
        previous = ancestor
    return guards


def entry_locks(graph: CallGraph) -> dict[str, frozenset[str]]:
    """Locks provably held on *every* resolved path into each function.

    Descending intersection fixpoint: functions without resolved callers
    (thread targets, calls through dynamic receivers) enter with nothing
    held; everything else meets ``caller's entry locks | with-guards at
    the site`` over its call sites.
    """
    locks: dict[str, frozenset[str] | None] = {
        info.fid: None if graph.callers_of.get(info.fid) else frozenset()
        for info in graph.iter_functions()}
    at_site = {id(site): frozenset(token for token, _ in syntactic_guards(
                   site.caller.module, site.call))
               for sites in graph.callees_of.values() for site in sites}
    changed = True
    while changed:
        changed = False
        for caller_fid, sites in graph.callees_of.items():
            base = locks.get(caller_fid)
            if base is None:
                continue
            for site in sites:
                held = base | at_site[id(site)]
                current = locks.get(site.callee.fid)
                merged = held if current is None else current & held
                if merged != current:
                    locks[site.callee.fid] = merged
                    changed = True
    return {fid: held or frozenset() for fid, held in locks.items()}


def guarded_by(cls: ast.ClassDef
               ) -> tuple[ast.stmt | None, dict[str, tuple[str, ...]] | None]:
    """A class's ``GUARDED_BY`` statement and its lock -> fields mapping.

    ``(None, None)`` when the class declares nothing; ``(stmt, None)``
    when the declaration is not a literal mapping of names to tuples of
    names.
    """
    for stmt in cls.body:
        if not (isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "GUARDED_BY"
                for target in stmt.targets)):
            continue
        try:
            guards = ast.literal_eval(stmt.value)
        except (ValueError, TypeError):
            return stmt, None
        well_formed = isinstance(guards, dict) and all(
            isinstance(lock, str) and isinstance(fields, tuple)
            and all(isinstance(field, str) for field in fields)
            for lock, fields in guards.items())
        return stmt, guards if well_formed else None
    return None, None


def _on_self(node: ast.AST) -> TypeGuard[ast.Attribute]:
    """Whether ``node`` is a ``self.<attr>`` expression."""
    return isinstance(node, ast.Attribute) and \
        isinstance(node.value, ast.Name) and node.value.id == "self"


def _kind(module: SourceModule, node: ast.Attribute) -> str:
    """``"write"`` for a store, a subscript store or a mutator call."""
    parent = module.parent(node)
    if isinstance(node.ctx, (ast.Store, ast.Del)) or (
            isinstance(parent, ast.Subscript) and parent.value is node
            and isinstance(parent.ctx, (ast.Store, ast.Del))) or (
            isinstance(parent, ast.Attribute)
            and parent.attr in _MUTATOR_METHODS
            and getattr(module.parent(parent), "func", None) is parent):
        return "write"
    return "read"


class _Access(NamedTuple):
    """One ``self.<field>`` access to a declared field inside a method."""

    info: FunctionInfo
    node: ast.Attribute
    kind: str  # "read" | "write"
    region: int | None  # line of the innermost own-body ``with`` on the lock
    held: bool


class SharedStateRaceChecker(Checker):
    """RACE001/RACE002/RACE003: declared fields and their locks."""

    name = "thread-races"
    codes = ("RACE001", "RACE002", "RACE003")
    description = ("fields a class declares in GUARDED_BY are accessed "
                   "under their lock, and never check-then-act across it")
    code_descriptions = {
        "RACE001": "declared field accessed with its lock not held",
        "RACE002": "lock released between a test of a declared field and "
                   "the dependent write (check-then-act)",
        "RACE003": "GUARDED_BY out of step with its class: an undeclared "
                   "lock, or a declared name __init__ never assigns",
    }

    def begin(self, program: Program) -> None:
        self._program = program

    def finish(self) -> Iterable[Finding]:
        graph = self._program.callgraph()
        held_on_entry = entry_locks(graph)
        methods: dict[tuple[str, str], list[FunctionInfo]] = \
            defaultdict(list)
        for info in graph.iter_functions():
            if info.cls is not None:
                methods[(info.path, info.cls)].append(info)
        findings: list[Finding] = []
        for module in self._program.modules:
            for cls in ast.walk(module.tree):
                if isinstance(cls, ast.ClassDef):
                    findings.extend(self._check_class(
                        module, cls, methods[(module.relpath, cls.name)],
                        held_on_entry))
        return findings

    def _check_class(self, module: SourceModule, cls: ast.ClassDef,
                     methods: list[FunctionInfo],
                     held_on_entry: dict[str, frozenset[str]]
                     ) -> Iterator[Finding]:
        stmt, guards = guarded_by(cls)
        if stmt is not None and guards is None:
            yield self._race003(module, stmt, cls.name, "GUARDED_BY",
                                "malformed", "is not a literal mapping of "
                                "lock names to tuples of field names")
            return
        guards = guards or {}
        init_assigned: set[str] = set()
        accesses: dict[str, list[_Access]] = defaultdict(list)
        lock_of = {field: lock for lock, fields in guards.items()
                   for field in fields}
        for info in methods:
            for node in module.own_nodes(info.node):
                if isinstance(node, ast.Assign) and \
                        isinstance(node.value, ast.Call) and \
                        call_name(node.value) in _LOCK_CONSTRUCTORS:
                    for target in node.targets:
                        if _on_self(target) and target.attr not in guards:
                            yield self._race003(
                                module, node, cls.name, target.attr,
                                "undeclared-lock",
                                "is a lock GUARDED_BY does not declare: "
                                "name it there with the fields it guards")
                if not _on_self(node):
                    continue
                field = node.attr
                if info.name == "__init__":
                    if isinstance(node.ctx, ast.Store):
                        init_assigned.add(field)
                    continue
                if field not in lock_of:
                    continue
                lock = lock_of[field]
                region = next((line for token, line in syntactic_guards(
                    module, node) if token == lock), None)
                accesses[field].append(_Access(
                    info, node, _kind(module, node), region,
                    region is not None or
                    lock in held_on_entry.get(info.fid, ())))
        if stmt is None:
            return
        for name in [*guards, *lock_of]:
            if name not in init_assigned:
                what = "lock" if name in guards else "field"
                yield self._race003(module, stmt, cls.name, name,
                                    "not-in-init", f"is a declared {what} "
                                    f"{cls.name}.__init__ never assigns")
        declared_at = f"{module.relpath}:{stmt.lineno}"
        for field, found in accesses.items():
            lock = lock_of[field]
            yield from self._unguarded(cls.name, lock, found, declared_at)
            yield from self._check_then_act(cls.name, lock, found)

    def _race003(self, module: SourceModule, node: ast.AST, cls: str,
                 name: str, detail: str, what: str) -> Finding:
        return module.finding("RACE003", self.name, node,
                              f"{cls}.{name} {what}", scope=cls,
                              detail=f"{cls}.{name}/{detail}")

    # -- RACE001 -----------------------------------------------------------

    def _unguarded(self, cls: str, lock: str, accesses: list[_Access],
                   declared_at: str) -> Iterator[Finding]:
        #: (method fid, kind) -> the offending accesses, first one reported
        offenders: dict[tuple[str, str], list[_Access]] = defaultdict(list)
        for access in accesses:
            if not access.held and not (
                    access.kind == "read"
                    and access.info.name in _READ_EXEMPT_METHODS):
                offenders[(access.info.fid, access.kind)].append(access)
        for first, *others in sorted(
                offenders.values(),
                key=lambda found: (found[0].node.lineno, found[0].kind)):
            info, node = first.info, first.node
            verb = "written" if first.kind == "write" else "read"
            yield info.module.finding(
                "RACE001", self.name, node,
                f"{cls}.{node.attr} is {verb} without its declared guard "
                f"{lock!r} held",
                scope=info.qualname, detail=f"{cls}.{node.attr}/{first.kind}",
                related=tuple((other.info.path, other.node.lineno)
                              for other in others),
                call_path=(
                    f"{declared_at}: {cls}.GUARDED_BY declares "
                    f"{node.attr!r} guarded by {lock!r}",
                    f"{info.path}:{node.lineno}: {info.qualname} — "
                    f"{cls}.{node.attr} {verb} without {lock!r} held"))

    # -- RACE002 -----------------------------------------------------------

    def _check_then_act(self, cls: str, lock: str,
                        accesses: list[_Access]) -> Iterator[Finding]:
        """Only syntactic regions count: a lock held across the whole call
        (the entry lockset) cannot be released between a check and its
        act."""
        by_method: dict[str, list[_Access]] = defaultdict(list)
        for access in accesses:
            if access.region is not None:
                by_method[access.info.fid].append(access)
        for found in by_method.values():
            writes = [a for a in found if a.kind == "write"]
            tests = [a for a in found
                     if a.kind == "read" and self._in_condition(a)]
            #: regions that re-test the field: a write there is the
            #: *double-checked* idiom — the decision is re-validated under
            #: the lock, which is precisely the cure for check-then-act.
            rechecked = {test.region for test in tests}
            stale = next(((test, write) for test in tests for write in writes
                          if write.region not in rechecked
                          and write.node.lineno > test.node.lineno), None)
            if stale is not None:  # one finding per method per field
                yield self._race002(cls, lock, *stale)

    @staticmethod
    def _in_condition(access: _Access) -> bool:
        """The access feeds an ``if``/``while`` test, directly or through
        a local it is assigned to (``first = self.x is None`` and a later
        ``if first:`` in the same function)."""
        module = access.info.module
        previous: ast.AST = access.node
        for ancestor in module.ancestors(access.node):
            if isinstance(ancestor, (ast.If, ast.While)) and \
                    previous is ancestor.test:
                return True
            if isinstance(ancestor, ast.Assign) and \
                    previous is ancestor.value:
                names = {target.id for target in ancestor.targets
                         if isinstance(target, ast.Name)}
                return any(
                    isinstance(node, (ast.If, ast.While)) and
                    node.lineno > ancestor.lineno and
                    any(isinstance(name, ast.Name) and name.id in names
                        for name in ast.walk(node.test))
                    for node in ast.walk(access.info.node))
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                return False
            previous = ancestor
        return False

    def _race002(self, cls: str, lock: str, test: _Access,
                 write: _Access) -> Finding:
        test_at = f"{test.info.path}:{test.node.lineno}"
        return write.info.module.finding(
            "RACE002", self.name, write.node,
            f"check-then-act on {cls}.{write.node.attr}: tested under "
            f"{lock!r} at line {test.node.lineno}, but the dependent write "
            f"re-acquires the guard — the tested state may be stale by the "
            f"time the write runs",
            scope=write.info.qualname,
            detail=f"{cls}.{write.node.attr}/check-then-act",
            related=((test.info.path, test.node.lineno),),
            call_path=(
                f"{test_at}: {cls}.{test.node.attr} tested under {lock!r}",
                f"{write.info.path}:{write.node.lineno}: guard released and "
                f"re-acquired before the dependent write"))


def _is_engine_latch(token: str) -> bool:
    """Whether a guard token names the engine latch (``db.latch``)."""
    return "latch" in token.removesuffix("()").rsplit(".", 1)[-1].lower()


class LatchBlockingChecker(Checker):
    """LATCH001: blocking calls while a latch is held."""

    name = "latch-blocking"
    codes = ("LATCH001",)
    description = ("no thread blocks (sleep/wait/join/lock-acquire, or "
                   "disk I/O or a nested lock under a non-engine latch) "
                   "while holding a latch")
    code_descriptions = {
        "LATCH001": "blocking call inside a `with <latch>:` region, "
                    "proven via the may_block effect summaries, or a lock "
                    "`with` nested in a non-engine latch region",
    }

    def begin(self, program: Program) -> None:
        self._program = program

    def finish(self) -> Iterable[Finding]:
        graph = self._program.callgraph()
        summaries = self._program.effects()
        findings: list[Finding] = []
        for info in graph.iter_functions():
            findings.extend(self._check_function(info, summaries))
        return findings

    def _check_function(self, info: FunctionInfo,
                        summaries: fx.EffectAnalysis) -> Iterable[Finding]:
        module = info.module
        reported: set[int] = set()
        for node in module.own_nodes(info.node):
            if not isinstance(node, ast.With):
                continue
            tokens = [guard_token(item.context_expr)
                      for item in node.items]
            held = [token for token in tokens if token is not None]
            if not held:
                continue
            non_latch = [t for t in held if not _is_engine_latch(t)]
            for inner in self._region_nodes(node, info):
                if id(inner) in reported:
                    continue
                if isinstance(inner, ast.Call):
                    finding = self._blocking_finding(
                        info, summaries, held, non_latch, node, inner)
                else:
                    finding = self._nested_lock_finding(
                        info, non_latch, node, inner)
                if finding is not None:
                    reported.add(id(inner))
                    yield finding

    @staticmethod
    def _region_nodes(with_node: ast.With, info: FunctionInfo
                      ) -> Iterable[ast.Call | ast.With]:
        """Calls and nested ``with`` blocks of the region, own body only."""
        for stmt in with_node.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Call, ast.With)) and \
                        info.module.enclosing_function(node) is info.node:
                    yield node

    def _nested_lock_finding(self, info: FunctionInfo, non_latch: list[str],
                             with_node: ast.With,
                             inner: ast.With) -> Finding | None:
        """A lock ``with`` inside a region holding a non-engine latch."""
        if not non_latch:
            return None
        token = non_latch[0]
        for item in inner.items:
            inner_token = guard_token(item.context_expr)
            if inner_token is not None:
                return self._finding(
                    info, with_node, item.context_expr, token,
                    f"with {inner_token}",
                    f"{inner_token!r} is acquired while {token!r} is held",
                    chain=(), step=f"nested `with {inner_token}`")
        return None

    def _blocking_finding(self, info: FunctionInfo,
                          summaries: fx.EffectAnalysis, held: list[str],
                          non_latch: list[str], with_node: ast.With,
                          call: ast.Call) -> Finding | None:
        """``non_latch``: the held tokens that are not the engine latch,
        which may flush pages by design; other locks may not."""
        token = held[0]
        text = call_text(call)
        direct = fx.blocking_reason(call)
        if direct is not None:
            return self._finding(
                info, with_node, call, token, text,
                f"{direct} while {token!r} is held",
                chain=())
        if call_name(call) in fx.FLUSH_METHODS and non_latch:
            return self._finding(
                info, with_node, call, non_latch[0], text,
                f"{text}() forces pages to disk while {non_latch[0]!r} "
                f"is held",
                chain=())
        for site in self._program.callgraph().callees_of.get(info.fid, ()):
            if site.call is not call:
                continue
            callee = site.callee.fid
            if summaries.has(callee, fx.BLOCKS):
                chain = summaries.render_path(callee, fx.BLOCKS)
                return self._finding(
                    info, with_node, call, token, text,
                    f"{text}() may block (via "
                    f"{site.callee.qualname}) while {token!r} is held",
                    chain=tuple(chain))
            if summaries.has(callee, fx.FLUSHES) and non_latch:
                chain = summaries.render_path(callee, fx.FLUSHES)
                return self._finding(
                    info, with_node, call, non_latch[0], text,
                    f"{text}() may force pages to disk (via "
                    f"{site.callee.qualname}) while {non_latch[0]!r} "
                    f"is held",
                    chain=tuple(chain))
        return None

    def _finding(self, info: FunctionInfo, with_node: ast.With,
                 node: ast.expr, token: str, text: str, message: str,
                 chain: tuple[str, ...], step: str | None = None
                 ) -> Finding:
        module = info.module
        call_path = (
            f"{info.path}:{with_node.lineno}: {info.qualname} acquires "
            f"{token!r}",
            f"{info.path}:{node.lineno}: {step or text + '()'} runs with "
            f"the latch held",
        ) + chain
        return module.finding(
            "LATCH001", self.name, node,
            f"latch held across a blocking call: {message}",
            scope=info.qualname,
            detail=f"{token}/{text}",
            call_path=call_path)
