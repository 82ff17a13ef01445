"""Fixpoint resource-effect summaries over the whole-program call graph.

For every function the engine computes the set of *resource effects* it may
transitively perform — the protocol-relevant actions the substrate cares
about:

* ``pins_page`` — may pin a buffer frame (``pool.fetch``/``pool.new_page``);
* ``unpins_page`` — may unpin one;
* ``returns_pin`` — hands a *still-pinned* frame to its caller (pins without
  unpinning and returns the result, or forwards another ``returns_pin``
  callee's result) — the effect that makes pin checking interprocedural:
  a call to such a function IS a pin at the call site;
* ``acquires_lock:<class>`` — may acquire a lock of a statically classified
  class (``row``, ``doc``, ``node``...); ``acquires_lock:?`` when the
  resource expression is not classifiable;
* ``writes_wal`` — may append to / checkpoint the write-ahead log;
* ``flushes_page`` — may force page images to the device;
* ``may_raise`` — contains a ``raise`` statement or calls something that
  does.  Only *proven* raisers count: an unresolved call contributes
  nothing, so every EXC witness path ends at a real ``raise``;
* ``may_block`` — may suspend the calling thread: ``time.sleep``, a
  ``wait()`` on any synchronization object, a blocking queue ``get``, a
  ``join`` on a thread-ish receiver, or a lock/latch ``acquire``.  The
  latch checker (LATCH001 in :mod:`repro.analyze.races`) uses this to
  prove a blocking call reached *through helpers* still happens while a
  latch is held.

The lattice is the powerset of effect tokens ordered by inclusion; transfer
is union over callees, so the fixpoint exists and the worklist terminates
(summaries only grow, the token universe is finite).

Every transitive effect carries a *witness*: either the primitive site
itself or the call site it was inherited through.  :meth:`EffectAnalysis.
witness_path` rebuilds the full call chain for ``--explain`` — the chain is
finite because a witness is recorded only the first time an effect enters a
summary, so following it strictly descends toward a primitive site.

This module is also the analyzer's one fact base.  The AST facts the
protocol checkers share are defined here once: what a call does by itself
(:func:`direct_effect`), try/finally protection for a set of release
names (:func:`protected_by_finally`), and pin hand-off through ``return``
(:func:`hands_back_pin`).  :meth:`EffectAnalysis.sites` lists every call
in a function that performs an effect, primitive or through a callee, so
PIN, LOCK, EXC and WAL001 each walk one list of acquisition sites.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analyze.callgraph import CallGraph, CallSite, FunctionInfo
from repro.analyze.framework import (SourceModule, call_name, call_text,
                                     receiver_text)

PINS = "pins_page"
UNPINS = "unpins_page"
RETURNS_PIN = "returns_pin"
WRITES_WAL = "writes_wal"
FLUSHES = "flushes_page"
MAY_RAISE = "may_raise"
BLOCKS = "may_block"
ACQUIRES_PREFIX = "acquires_lock:"

_PIN_METHODS = {"fetch", "new_page"}
#: lock-acquisition method -> positional index of its resource argument
_ACQUIRE_METHODS = {"try_acquire": 1, "lock": 0, "try_lock": 0}
_WAL_METHODS = {"append", "checkpoint", "log", "flush"}
FLUSH_METHODS = frozenset({"flush_page", "flush_all"})
PIN_RELEASES = frozenset({"unpin"})
LOCK_RELEASES = frozenset({"release", "release_all", "unlock"})
#: Receiver words on which ``acquire()`` may block the calling thread.
_ACQUIRE_RECEIVERS = ("lock", "latch", "mutex", "semaphore", "token")


def _receiver_tail(call: ast.Call) -> str:
    """Last dotted segment of the receiver, lowercased ('' for plain)."""
    receiver = receiver_text(call).lower()
    return receiver.rsplit(".", 1)[-1] if receiver else ""


def blocking_reason(call: ast.Call) -> str | None:
    """Why ``call`` may suspend the calling thread (None = non-blocking).

    Deliberately receiver-sensitive, mirroring the call-graph philosophy:
    ``str.join`` and ``dict.get`` must not read as thread joins or queue
    gets, so ``join``/``get`` only count on thread-ish/queue-ish receivers
    and ``acquire`` only on lock-ish ones (locks, latches, mutexes, and
    the semaphores that hand out concurrency tokens).  ``sleep`` and
    ``wait`` count on any receiver — every ``wait()`` in this codebase
    (Event, Condition) is a real suspension point.
    """
    name = call_name(call)
    tail = _receiver_tail(call)
    if name == "sleep":
        return "sleep() suspends the thread"
    if name == "wait":
        return f"{tail or 'object'}.wait() blocks until signalled"
    if name == "join" and "thread" in tail:
        return f"{tail}.join() blocks on thread exit"
    if name == "get" and ("queue" in tail or tail.endswith("_q")):
        return f"{tail}.get() blocks on an empty queue"
    if name == "acquire" and any(word in tail for word in _ACQUIRE_RECEIVERS):
        return f"{tail}.acquire() blocks on lock acquisition"
    if name == "lock":
        # The transaction manager's interactive acquire: backoff-waits for
        # a conflicting holder.  try_acquire / try_lock stay non-blocking
        # by contract (the scheduler retries), so they do not count.
        return "lock() may wait for a conflicting holder"
    return None


def acquires(lock_class: str) -> str:
    """Effect token for acquiring a lock of ``lock_class``."""
    return f"{ACQUIRES_PREFIX}{lock_class}"


def lock_class_of(effect: str) -> str | None:
    """Lock class of an ``acquires_lock:*`` token (None for other effects)."""
    if effect.startswith(ACQUIRES_PREFIX):
        return effect[len(ACQUIRES_PREFIX):]
    return None


def is_pool_receiver(call: ast.Call) -> bool:
    """Pool-ish attribute receiver (``self.pool``, ``buffer_pool``...)."""
    return _receiver_tail(call).endswith("pool")


def is_log_receiver(call: ast.Call) -> bool:
    """Log-ish attribute receiver (``self.log``, ``wal``, ``txn_log``...)."""
    last = _receiver_tail(call)
    return last in ("log", "wal") or last.endswith("_log") or \
        last.endswith("_wal")


def classify_resource(node: ast.expr | None) -> str | None:
    """Static lock class of a resource expression, if derivable.

    ``("row", table, rid)`` → ``row``; ``row_resource(...)`` → ``row``;
    anything else (bare names, parameters) is unclassifiable.
    """
    if node is None:
        return None
    if isinstance(node, ast.Tuple) and node.elts:
        first = node.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name.endswith("_resource") and len(name) > len("_resource"):
            return name[:-len("_resource")]
    return None


def lock_resource_arg(call: ast.Call) -> ast.expr | None:
    """Resource expression of a lock-acquisition call, if present."""
    index = _ACQUIRE_METHODS.get(call_name(call))
    if index is None:
        return None
    if len(call.args) > index:
        return call.args[index]
    for keyword in call.keywords:
        if keyword.arg == "resource":
            return keyword.value
    return None


def direct_effect(call: ast.Call) -> str | None:
    """The resource effect ``call`` performs by itself, if any: a pin
    (``fetch``/``new_page`` on a pool), an unpin, a lock acquisition with
    its resource class, or a page flush."""
    name = call_name(call)
    if name in _PIN_METHODS and is_pool_receiver(call):
        return PINS
    if name == "unpin":
        return UNPINS
    if name in _ACQUIRE_METHODS:
        return acquires(classify_resource(lock_resource_arg(call)) or "?")
    if name in FLUSH_METHODS:
        return FLUSHES
    return None


def _contains_call(nodes: Iterable[ast.AST], names: Iterable[str]) -> bool:
    """Is a call to one of ``names`` anywhere under ``nodes``?"""
    wanted = set(names)
    return any(isinstance(node, ast.Call) and call_name(node) in wanted
               for root in nodes for node in ast.walk(root))


def unpins(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does ``function``'s body unpin anywhere?"""
    return _contains_call(function.body, PIN_RELEASES)


def _finally_releases(node: ast.AST, releases: frozenset[str]) -> bool:
    return isinstance(node, ast.Try) and bool(node.finalbody) and \
        _contains_call(node.finalbody, releases)


def protected_by_finally(module: SourceModule, node: ast.AST,
                         releases: frozenset[str]) -> bool:
    """``node`` sits inside a try whose finally calls one of ``releases``,
    or its statement is immediately followed by such a try (the ``data =
    pool.fetch(p)`` / ``try: ... finally: unpin`` idiom of
    ``BufferPool.page``)."""
    stmt = module.statement_of(node)
    if stmt is None:  # pragma: no cover - calls always sit in statements
        return False
    if any(_finally_releases(ancestor, releases)
           for ancestor in module.ancestors(stmt)):
        return True
    parent = module.parent(stmt)
    for field_name in ("body", "orelse", "finalbody"):
        block = getattr(parent, field_name, None)
        if isinstance(block, list) and stmt in block:
            index = block.index(stmt)
            return index + 1 < len(block) and \
                _finally_releases(block[index + 1], releases)
    return False


def hands_back_pin(info: FunctionInfo, call: ast.Call) -> bool:
    """``info`` never unpins and returns ``call``'s pinned result, directly
    or through a name the call's statement binds: the caller owns the
    unpin (the pool's own ``new_page``), and ``info`` is ``returns_pin``."""
    if unpins(info.node):
        return False
    stmt = info.module.statement_of(call)
    if isinstance(stmt, ast.Return):
        return True
    names = _assigned_names(stmt) if stmt is not None else set()
    if not names:
        return False
    for node in ast.walk(info.node):
        if isinstance(node, ast.Return) and node.value is not None:
            for ref in ast.walk(node.value):
                if isinstance(ref, ast.Name) and ref.id in names:
                    return True
    return False


def _assigned_names(stmt: ast.stmt) -> set[str]:
    """Names bound by an assignment statement (tuple targets included)."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _matches(token: str, effect: str) -> bool:
    """``effect`` names ``token`` (``ACQUIRES_PREFIX`` names every class)."""
    if effect == ACQUIRES_PREFIX:
        return token.startswith(ACQUIRES_PREFIX)
    return token == effect


class Witness:
    """How one effect entered one function's summary."""

    def __init__(self, path: str, line: int, text: str,
                 via: CallSite | None = None) -> None:
        self.path = path
        self.line = line
        self.text = text  # primitive description, or the forwarding call
        self.via = via    # None => primitive site in this very function


class EffectSite:
    """One call in a function that performs an effect (see
    :meth:`EffectAnalysis.sites`)."""

    def __init__(self, info: FunctionInfo, call: ast.Call, effect: str,
                 callee: FunctionInfo | None = None,
                 chain: tuple[str, ...] = ()) -> None:
        self.info = info
        self.call = call
        self.effect = effect  # the token this site performs
        self.callee = callee  # None => primitive site
        self.chain = chain    # callee's witness path, empty when primitive
        self.text = call_text(call)
        self.pos = (call.lineno, call.col_offset)

    @property
    def call_path(self) -> tuple[str, ...]:
        """``--explain`` lines: this call, then the callee's witness path
        (empty for a primitive site)."""
        if self.callee is None:
            return ()
        return (f"{self.info.path}:{self.call.lineno}: "
                f"{self.info.qualname} calls {self.text}()",) + self.chain


class EffectAnalysis:
    """Per-function effect summaries at fixpoint, with witnesses."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: fid -> effect token -> first witness
        self._summaries: dict[str, dict[str, Witness]] = {}
        self._compute()

    # -- public API --------------------------------------------------------

    def summary(self, fid: str) -> frozenset[str]:
        """All effect tokens of ``fid`` (empty for unknown functions)."""
        return frozenset(self._summaries.get(fid, ()))

    def has(self, fid: str, effect: str) -> bool:
        return effect in self._summaries.get(fid, ())

    def lock_classes(self, fid: str) -> set[str]:
        """Classified lock classes ``fid`` may transitively acquire."""
        classes: set[str] = set()
        for effect in self._summaries.get(fid, ()):
            lock_class = lock_class_of(effect)
            if lock_class is not None and lock_class != "?":
                classes.add(lock_class)
        return classes

    def sites(self, info: FunctionInfo, effect: str) -> list[EffectSite]:
        """Every call in ``info`` that performs ``effect``, in source order.

        ``effect`` is a token, or ``ACQUIRES_PREFIX`` for a lock of any
        class.  A *primitive* site performs it itself (:func:`
        direct_effect`; its chain is empty).  A *via-callee* site calls a
        function whose summary carries the effect — for ``PINS``, carries
        ``returns_pin``, since only a pin handed back is the caller's to
        release — and its chain is :meth:`render_path` from that callee.
        A call yields one site per token, from its first resolved callee
        carrying it, and is never both a primitive and a via-callee site.
        """
        found: list[EffectSite] = []
        primitive: set[int] = set()
        for call in info.module.own_calls(info.node):
            token = direct_effect(call)
            if token is not None and _matches(token, effect):
                primitive.add(id(call))
                found.append(EffectSite(info, call, token))
        inherited = RETURNS_PIN if effect == PINS else effect
        seen: set[tuple[int, str]] = set()
        for site in self.graph.callees_of.get(info.fid, ()):
            if id(site.call) in primitive:
                continue
            callee = site.callee.fid
            for token in sorted(self._summaries.get(callee, ())):
                if not _matches(token, inherited) or \
                        (id(site.call), token) in seen:
                    continue
                seen.add((id(site.call), token))
                found.append(EffectSite(
                    info, site.call, token, site.callee,
                    tuple(self.render_path(callee, token))))
        found.sort(key=lambda s: s.pos)
        return found

    def witness_path(self, fid: str, effect: str) -> list[tuple[str, int, str]]:
        """The call chain proving ``fid`` has ``effect``.

        Returns ``(path, line, description)`` triples from the function down
        to the primitive site.  Empty when the effect is absent.
        """
        steps: list[tuple[str, int, str]] = []
        current = fid
        guard = 0
        while True:
            witness = self._summaries.get(current, {}).get(effect)
            if witness is None:
                break
            info = self.graph.lookup(current)
            where = info.qualname if info is not None else current
            if witness.via is None:
                steps.append((witness.path, witness.line,
                              f"{where}: {witness.text}"))
                break
            steps.append((witness.path, witness.line,
                          f"{where} calls {witness.via.callee.qualname}() "
                          f"[{witness.text}]"))
            current = witness.via.callee.fid
            guard += 1
            if guard > len(self._summaries) + 1:  # pragma: no cover - guard
                break
        return steps

    def render_path(self, fid: str, effect: str) -> list[str]:
        """Witness path as display lines for ``--explain``."""
        return [f"{path}:{line}: {text}"
                for path, line, text in self.witness_path(fid, effect)]

    # -- computation -------------------------------------------------------

    def _compute(self) -> None:
        for info in self.graph.iter_functions():
            self._summaries[info.fid] = self._direct_effects(info)
        # Worklist fixpoint: every function is visited at least once; a
        # function whose summary grew re-enqueues its callers.  Summaries
        # only grow and the token universe is finite, so this terminates.
        pending = list(self._summaries)
        queued = set(pending)
        while pending:
            fid = pending.pop()
            queued.discard(fid)
            if self._propagate_into(fid):
                for site in self.graph.callers_of.get(fid, ()):
                    caller = site.caller.fid
                    if caller not in queued:
                        queued.add(caller)
                        pending.append(caller)

    def _propagate_into(self, fid: str) -> bool:
        """Fold callee summaries into ``fid``; True if anything was added."""
        summary = self._summaries.setdefault(fid, {})
        changed = False
        for site in self.graph.callees_of.get(fid, ()):
            callee_summary = self._summaries.get(site.callee.fid, {})
            for effect in callee_summary:
                if effect == RETURNS_PIN:
                    continue  # flow-dependent: handled below
                if effect not in summary:
                    summary[effect] = Witness(
                        site.caller.path, site.line, site.text, via=site)
                    changed = True
            if RETURNS_PIN in callee_summary and RETURNS_PIN not in summary \
                    and hands_back_pin(site.caller, site.call):
                summary[RETURNS_PIN] = Witness(
                    site.caller.path, site.line, site.text, via=site)
                changed = True
        return changed

    def _direct_effects(self, info: FunctionInfo) -> dict[str, Witness]:
        effects: dict[str, Witness] = {}
        path = info.path
        for node in info.module.own_nodes(info.node):
            if isinstance(node, ast.Raise):
                effects.setdefault(MAY_RAISE, Witness(
                    path, node.lineno, "raise"))
                continue
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            effect = direct_effect(node)
            if effect is not None:
                effects.setdefault(effect, Witness(
                    path, node.lineno, _describe(node, effect)))
            blocking = blocking_reason(node)
            if blocking is not None:
                effects.setdefault(BLOCKS, Witness(
                    path, node.lineno, blocking))
            if name in _WAL_METHODS and is_log_receiver(node):
                effects.setdefault(WRITES_WAL, Witness(
                    path, node.lineno,
                    f"{receiver_text(node)}.{name}() writes WAL"))
        if PINS in effects:
            for call in info.module.own_calls(info.node):
                if direct_effect(call) == PINS and \
                        hands_back_pin(info, call):
                    effects.setdefault(RETURNS_PIN, Witness(
                        path, call.lineno,
                        f"{call_text(call)}() pin handed to caller"))
                    break
        return effects


def _describe(call: ast.Call, effect: str) -> str:
    """Witness text of a primitive site performing ``effect``."""
    if effect == PINS:
        return f"{call_text(call)}() pins"
    if effect == UNPINS:
        return f"{receiver_text(call)}.unpin()"
    if effect == FLUSHES:
        return f"{call_name(call)}() flushes"
    return f"{call_name(call)}() acquires {lock_class_of(effect)!r} lock"
