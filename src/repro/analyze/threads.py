"""Thread-entry reachability and shared-field/latch inference.

The serving layer made the engine multi-threaded the way DB2 for z/OS
is: a worker pool over one engine latch, with client threads admitting
requests and recording ``serve.*`` counters, the only work done off the
latch.  This module gives the static analyzer that thread model:

1. **Thread roots** — functions that start executing on their own thread.
   Spawn sites (``threading.Thread(target=self._worker_loop)``) are
   detected syntactically; entry points that client threads enter
   directly (``DatabaseServer.submit``, ``StatsRegistry.add``) are
   declared in :data:`KNOWN_ROOTS` — the same philosophy as the call
   graph: every edge either proven from the AST or explicitly documented.

2. **Contexts** — for every function, the set of roots that reach it over
   the call graph.  A function no root reaches runs only on the main
   (test/harness) thread.  Because arbitrary-receiver calls are unresolved
   (the documented call-graph blind spot), contexts are *under*-approximate
   — which is the useful direction for a race checker: a field is reported
   shared only on proven evidence, and the runtime lockset sanitizer
   (:mod:`repro.analyze.sanitize`) covers the dynamic remainder.

3. **Shared fields** — ``self.<field>`` accesses collected per class; a
   field is *thread-shared* when it is written outside ``__init__`` and
   its accesses span two contexts (or one root that spawns *many*
   threads).  Fields used purely as synchronization objects (only
   ``set``/``wait``/``is_set``/``clear`` style calls — Events, Conditions)
   are exempt: they are the safe cross-thread signalling primitives.

4. **Latch inference** — the guard of a shared field is the intersection
   of lock-ish ``with`` guards over its guarded accesses, where each
   access's lockset is the syntactic ``with`` nest *plus* the function's
   **entry lockset**: the intersection, over all resolved call sites, of
   the locks provably held at the call — so a helper only ever invoked
   under ``with self.db.latch:`` counts as latched without repeating the
   ``with`` in its own body.

The checkers in :mod:`repro.analyze.races` turn these views into RACE001
(access outside the inferred guard), RACE002 (check-then-act across guard
regions) and LATCH001 (blocking call while a latch is held).
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator

from repro.analyze.callgraph import CallGraph, CallSite, FunctionInfo
from repro.analyze.framework import Program, SourceModule, call_name

#: Concurrent entry points the AST cannot prove (dynamic dispatch):
#: qualname -> (why it runs concurrently, whether many threads enter it).
#: The table is part of the thread model — reviewed like code, mirrored in
#: DESIGN.md's thread-safety table.
KNOWN_ROOTS: dict[str, tuple[str, bool]] = {
    "DatabaseServer.submit":
        ("client threads admit requests concurrently", True),
    "DatabaseServer.session":
        ("client threads open sessions concurrently", True),
    "DatabaseServer._release_session":
        ("Session.close runs on the closing client's thread", True),
    "StatsRegistry.add":
        ("every thread reports counters", True),
    "StatsRegistry.observe":
        ("every thread reports distributions", True),
}

#: Method names that mutate their receiver in place: a call
#: ``self.field.append(...)`` is a *write* to ``field``'s object.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "put", "put_nowait",
})

#: Method names of synchronization protocols (Event/Condition/Lock).  A
#: field used *only* through these (plus ``clear``) is a sync object, not
#: shared data — cross-thread use is its purpose.
_SYNC_METHODS = frozenset({
    "set", "is_set", "wait", "notify", "notify_all",
    "acquire", "release", "locked",
})

#: Methods whose unguarded *reads* are never reported: debug formatting
#: helpers, exempt by convention (a torn read in a repr is harmless).
_READ_EXEMPT_METHODS = frozenset({"__repr__", "__str__"})


def _is_safe_delegate(field: str) -> bool:
    """Fields holding internally-synchronized components.

    A mutator call on ``self.stats`` or ``self.queue`` mutates the
    *registry/queue object*, which carries its own lock (StatsRegistry,
    queue.Queue) — the stats-hygiene checker and the component's own
    tests cover those.  Only *rebinding* such a field
    counts as a write.
    """
    name = field.lower().lstrip("_")
    return name == "stats" or name.endswith("stats") or \
        name == "queue" or name.endswith("queue") or \
        name.endswith("registry")


#: Context name for code no thread root reaches.
MAIN_CONTEXT = "<main>"


def _dotted(node: ast.expr) -> str | None:
    """Dotted text of a Name/Attribute chain (None when not a chain)."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


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
    token = _dotted(target)
    if token is None:
        return None
    if token.startswith("self."):
        token = token[len("self."):]
    tail = token.rsplit(".", 1)[-1].lower()
    # "clock" contains "lock" but scopes time, not mutual exclusion —
    # ``with stats.request_clock():`` must not read as a latch region.
    if "clock" in tail:
        return None
    if "lock" in tail or "latch" in tail or "mutex" in tail:
        return token + suffix
    return None


class ThreadRoot:
    """One concurrent entry point: a function some thread starts in."""

    def __init__(self, info: FunctionInfo, reason: str, many: bool,
                 spawn_path: str | None = None, spawn_line: int = 0,
                 spawner: str | None = None) -> None:
        self.info = info
        self.name = info.qualname
        self.reason = reason
        #: more than one thread may execute this root concurrently
        self.many = many
        #: spawn site, when detected syntactically (None for KNOWN_ROOTS)
        self.spawn_path = spawn_path
        self.spawn_line = spawn_line
        self.spawner = spawner

    def provenance(self) -> str:
        """One display line saying why this is a concurrent root."""
        if self.spawn_path is not None:
            plural = "threads" if self.many else "a thread"
            return (f"{self.spawn_path}:{self.spawn_line}: {self.spawner} "
                    f"spawns {plural} running {self.name}")
        return (f"{self.info.path}:{self.info.line}: {self.name} is a "
                f"declared concurrent entry point ({self.reason})")


class FieldAccess:
    """One ``self.<field>`` access inside a method."""

    __slots__ = ("info", "node", "field", "kind", "line", "method_call")

    def __init__(self, info: FunctionInfo, node: ast.Attribute, field: str,
                 kind: str, method_call: str | None = None) -> None:
        self.info = info
        self.node = node
        self.field = field
        self.kind = kind  # "read" | "write" | "sync"
        self.line = node.lineno
        #: name of the method called on the field, when the access is a
        #: ``self.field.m(...)`` call (used for the sync-object exemption)
        self.method_call = method_call

    @property
    def is_write(self) -> bool:
        return self.kind == "write"


class SharedField:
    """Aggregated view of one class field across the program."""

    def __init__(self, cls: str, field: str) -> None:
        self.cls = cls
        self.field = field
        self.accesses: list[FieldAccess] = []
        #: union of contexts over all (non-init) accesses
        self.contexts: set[str] = set()
        self.write_contexts: set[str] = set()

    @property
    def key(self) -> tuple[str, str]:
        return (self.cls, self.field)

    def is_sync_object(self) -> bool:
        """Only ever used through synchronization-protocol calls."""
        saw_sync = False
        for access in self.accesses:
            if access.kind == "sync":
                saw_sync = True
                continue
            if access.method_call is not None and \
                    access.method_call == "clear":
                # Event.clear — allowed alongside sync methods; a dict's
                # .clear never appears alone (subscript stores disqualify).
                continue
            return False
        return saw_sync


class ThreadAnalysis:
    """Thread roots, per-function contexts, shared fields and locksets."""

    def __init__(self, program: Program) -> None:
        self.graph: CallGraph = program.callgraph()
        self._method_names = self._collect_method_names()
        self.roots: dict[str, ThreadRoot] = {}
        self._find_spawned_roots(program.modules)
        self._find_known_roots()
        #: fid -> set of root names reaching it
        self._contexts: dict[str, set[str]] = {}
        #: (root name, fid) -> parent call site on the BFS tree
        self._reach_parent: dict[tuple[str, str], CallSite] = {}
        for root in self.roots.values():
            self._mark_reachable(root)
        self.fields: dict[tuple[str, str], SharedField] = {}
        self._collect_field_accesses()
        self._entry_locks = self._compute_entry_locks()

    # -- thread roots ------------------------------------------------------

    def _collect_method_names(self) -> dict[str, set[str]]:
        names: dict[str, set[str]] = {}
        for info in self.graph.iter_functions():
            if info.cls is not None:
                names.setdefault(info.cls, set()).add(info.name)
        return names

    def _find_spawned_roots(self, modules: list[SourceModule]) -> None:
        for module in modules:
            for call in module.calls():
                if call_name(call) != "Thread":
                    continue
                target = self._thread_target(call)
                if target is None:
                    continue
                info = self._resolve_target(module, call, target)
                if info is None:
                    continue
                spawner_node = module.enclosing_function(call)
                spawner = module.scope_of(call) or "<module>"
                many = self._spawned_in_loop(module, call, spawner_node)
                plural = "spawned per client/worker" if many \
                    else "spawned as a singleton background thread"
                self.roots.setdefault(info.qualname, ThreadRoot(
                    info, plural, many,
                    spawn_path=module.relpath, spawn_line=call.lineno,
                    spawner=spawner))

    @staticmethod
    def _thread_target(call: ast.Call) -> ast.expr | None:
        for keyword in call.keywords:
            if keyword.arg == "target":
                return keyword.value
        return None

    def _resolve_target(self, module: SourceModule, call: ast.Call,
                        target: ast.expr) -> FunctionInfo | None:
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id in ("self", "cls"):
            cls = self._enclosing_class_name(module, call)
            if cls is None:
                return None
            for info in self.graph.iter_functions():
                if info.cls == cls and info.name == target.attr:
                    return info
            return None
        if isinstance(target, ast.Name):
            for info in self.graph.iter_functions():
                if info.cls is None and info.name == target.id and \
                        info.module is module:
                    return info
        return None

    @staticmethod
    def _enclosing_class_name(module: SourceModule,
                              node: ast.AST) -> str | None:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor.name
        return None

    @staticmethod
    def _spawned_in_loop(module: SourceModule, call: ast.Call,
                         stop: ast.AST | None) -> bool:
        for ancestor in module.ancestors(call):
            if ancestor is stop:
                return False
            if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While,
                                     ast.ListComp, ast.SetComp,
                                     ast.GeneratorExp, ast.DictComp)):
                return True
        return False

    def _find_known_roots(self) -> None:
        for qualname, (reason, many) in KNOWN_ROOTS.items():
            for info in self.graph.by_qualname(qualname):
                self.roots.setdefault(qualname, ThreadRoot(
                    info, reason, many))

    # -- reachability ------------------------------------------------------

    def _mark_reachable(self, root: ThreadRoot) -> None:
        start = root.info.fid
        queue = deque([start])
        seen = {start}
        self._contexts.setdefault(start, set()).add(root.name)
        while queue:
            fid = queue.popleft()
            for site in self.graph.callees_of.get(fid, ()):
                callee = site.callee.fid
                if callee in seen:
                    continue
                seen.add(callee)
                self._contexts.setdefault(callee, set()).add(root.name)
                self._reach_parent[(root.name, callee)] = site
                queue.append(callee)

    def contexts_of(self, fid: str) -> frozenset[str]:
        """Root names reaching ``fid`` (``{MAIN_CONTEXT}`` when none)."""
        contexts = self._contexts.get(fid)
        if not contexts:
            return frozenset((MAIN_CONTEXT,))
        return frozenset(contexts)

    def reach_path(self, root_name: str, fid: str) -> list[str]:
        """Display lines: the BFS call chain from ``root_name`` to ``fid``.

        Starts with the root's provenance line; empty when the root does
        not reach ``fid``.
        """
        root = self.roots.get(root_name)
        if root is None:
            return []
        if fid != root.info.fid and (root_name, fid) not in self._reach_parent:
            return []
        steps: list[str] = []
        current = fid
        while current != root.info.fid:
            site = self._reach_parent[(root_name, current)]
            steps.append(f"{site.caller.path}:{site.line}: "
                         f"{site.caller.qualname} calls {site.text}()")
            current = site.caller.fid
        steps.append(root.provenance())
        return list(reversed(steps))

    # -- field accesses ----------------------------------------------------

    def _collect_field_accesses(self) -> None:
        for info in self.graph.iter_functions():
            if info.cls is None or info.name == "__init__":
                continue
            for access in self._accesses_in(info):
                record = self.fields.setdefault(
                    (info.cls, access.field),
                    SharedField(info.cls, access.field))
                record.accesses.append(access)
        for record in self.fields.values():
            for access in record.accesses:
                contexts = self.contexts_of(access.info.fid)
                record.contexts.update(contexts)
                if access.is_write:
                    record.write_contexts.update(contexts)

    def _accesses_in(self, info: FunctionInfo) -> Iterator[FieldAccess]:
        methods = self._method_names.get(info.cls or "", set())
        module = info.module
        for node in module.own_nodes(info.node):
            if not isinstance(node, ast.Attribute):
                continue
            if not (isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                continue
            field = node.attr
            if field in methods:
                continue  # bound-method reference / self.m(...) call
            yield self._classify(info, node, field, module)

    @staticmethod
    def _classify(info: FunctionInfo, node: ast.Attribute, field: str,
                  module: SourceModule) -> FieldAccess:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return FieldAccess(info, node, field, "write")
        parent = module.parent(node)
        if isinstance(parent, ast.withitem):
            return FieldAccess(info, node, field, "sync")
        if isinstance(parent, ast.Attribute):
            grand = module.parent(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                called = parent.attr
                if called in _SYNC_METHODS:
                    return FieldAccess(info, node, field, "sync",
                                       method_call=called)
                if called in _MUTATOR_METHODS and \
                        not _is_safe_delegate(field):
                    return FieldAccess(info, node, field, "write",
                                       method_call=called)
                return FieldAccess(info, node, field, "read",
                                   method_call=called)
        if isinstance(parent, ast.Subscript) and parent.value is node and \
                isinstance(parent.ctx, (ast.Store, ast.Del)):
            return FieldAccess(info, node, field, "write")
        return FieldAccess(info, node, field, "read")

    def shared_fields(self) -> list[SharedField]:
        """Fields provably shared across threads (see module docstring)."""
        shared: list[SharedField] = []
        for record in sorted(self.fields.values(), key=lambda r: r.key):
            if not record.write_contexts:
                continue  # never written outside __init__
            if record.is_sync_object():
                continue
            many = any(self.roots[name].many for name in record.contexts
                       if name in self.roots)
            if len(record.contexts) >= 2 or many:
                shared.append(record)
        return shared

    # -- locksets ----------------------------------------------------------

    def syntactic_guards(self, module: SourceModule, node: ast.AST
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

    def _compute_entry_locks(self) -> dict[str, frozenset[str]]:
        """Locks provably held on *every* resolved path into each function.

        Descending intersection fixpoint: roots and functions without
        resolved callers start at the empty set; everything else meets
        (intersects) ``caller's entry locks | with-guards at the site``
        over its call sites.  Under-approximate — an unresolved (dynamic)
        call site contributes nothing — but that only *widens* RACE001,
        never silences it, matching the analyzer's conservative direction.
        """
        locks: dict[str, frozenset[str] | None] = {}
        root_fids = {root.info.fid for root in self.roots.values()}
        for info in self.graph.iter_functions():
            has_callers = bool(self.graph.callers_of.get(info.fid))
            if info.fid in root_fids or not has_callers:
                locks[info.fid] = frozenset()
            else:
                locks[info.fid] = None  # top: not yet constrained
        changed = True
        while changed:
            changed = False
            for caller_fid, sites in self.graph.callees_of.items():
                base = locks.get(caller_fid)
                if base is None:
                    continue
                for site in sites:
                    held = base | {token for token, _ in
                                   self.syntactic_guards(
                                       site.caller.module, site.call)}
                    current = locks.get(site.callee.fid)
                    merged = frozenset(held) if current is None \
                        else current & held
                    if merged != current:
                        locks[site.callee.fid] = merged
                        changed = True
        return {fid: (held if held is not None else frozenset())
                for fid, held in locks.items()}

    def entry_locks(self, fid: str) -> frozenset[str]:
        return self._entry_locks.get(fid, frozenset())

    def access_lockset(self, access: FieldAccess) -> frozenset[str]:
        """Latch tokens provably held at one field access."""
        tokens = {token for token, _ in self.syntactic_guards(
            access.info.module, access.node)}
        return frozenset(tokens) | self.entry_locks(access.info.fid)

    def inferred_guards(self) -> dict[tuple[str, str], frozenset[str]]:
        """Per shared field: latch tokens held at *every* guarded access.

        Empty set = no single latch dominates the field's accesses (either
        nothing guards it, or different sites use different latches).  The
        runtime sanitizer's :func:`repro.analyze.sanitize.
        cross_check_field_guards` compares witnessed locksets against this
        map.
        """
        guards: dict[tuple[str, str], frozenset[str]] = {}
        for record in self.shared_fields():
            inferred: frozenset[str] | None = None
            for access in record.accesses:
                if access.kind == "sync":
                    continue
                lockset = self.access_lockset(access)
                if not lockset:
                    continue
                inferred = lockset if inferred is None \
                    else inferred & lockset
            guards[record.key] = inferred or frozenset()
        return guards
