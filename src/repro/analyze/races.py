"""Race and latch-discipline checkers over the thread model.

Three codes, all driven by :class:`repro.analyze.threads.ThreadAnalysis`:

* **RACE001** — a thread-shared field is accessed with *no* latch provably
  held: every write fires; a read fires only when the field is latched
  somewhere else (a wholly-unguarded field reports its writes once instead
  of every read).  An access under a *different* latch than the inferred
  guard is deliberately not reported — distinguishing a wrong latch from
  an outer ambient one (the engine latch every caller holds) is beyond
  syntactic inference.

* **RACE002** — check-then-act: inside one method, a shared field is
  *tested* under its guard, the guard is released, and a dependent *write*
  happens under a second acquisition of the same guard.  The state the
  decision was based on may be stale by the time the write runs.

* **LATCH001** — a blocking call while a latch is held, proven either
  directly or through the ``may_block`` effect summaries: a lock ``with``
  region that sleeps, waits, joins, acquires another lock, or (for
  non-engine latches) forces pages to disk serializes every other thread
  behind the sleeper.  Under a non-engine latch a nested lock-ish
  ``with`` counts as taking another lock.  The *engine* latch is exempt
  from the disk-I/O and nested-lock rules: DB2-style engines flush under
  it by design (checkpoints force pages under the engine latch), the
  documented lock order is engine latch first, and it is an RLock whose
  yield discipline the serving layer owns.

``--explain`` renders the witness: for RACE001 the path from a thread root
(spawn site or declared entry) down the call graph to the racy access; for
LATCH001 the chain from the ``with`` into the callee that blocks.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analyze import effects as fx
from repro.analyze.callgraph import FunctionInfo
from repro.analyze.findings import Finding
from repro.analyze.framework import Checker, Program, call_name, call_text
from repro.analyze.threads import (MAIN_CONTEXT, _READ_EXEMPT_METHODS,
                                   FieldAccess, SharedField, ThreadAnalysis,
                                   guard_token)


class SharedStateRaceChecker(Checker):
    """RACE001/RACE002: shared fields accessed outside their latch."""

    name = "thread-races"
    codes = ("RACE001", "RACE002")
    description = ("thread-shared fields are accessed under their inferred "
                   "guarding latch, and never check-then-act across it")
    code_descriptions = {
        "RACE001": "shared-field access with no latch held "
                   "(write, or read of an otherwise-guarded field)",
        "RACE002": "guard released between a shared-state test and the "
                   "dependent write (check-then-act)",
    }

    def begin(self, program: Program) -> None:
        self._program = program

    def finish(self) -> Iterable[Finding]:
        analysis = ThreadAnalysis(self._program)
        findings: list[Finding] = []
        for record in analysis.shared_fields():
            findings.extend(self._check_field(analysis, record))
        return findings

    # -- RACE001 -----------------------------------------------------------

    def _check_field(self, analysis: ThreadAnalysis,
                     record: SharedField) -> Iterable[Finding]:
        locksets = {id(access): analysis.access_lockset(access)
                    for access in record.accesses}
        guarded_anywhere = any(locksets[id(a)] for a in record.accesses
                               if a.kind != "sync")
        guard = self._inferred_guard(record, locksets)
        #: (method fid, kind) -> representative access + extra lines
        offenders: dict[tuple[str, str], list[FieldAccess]] = {}
        for access in record.accesses:
            if access.kind == "sync" or locksets[id(access)]:
                continue
            if access.kind == "read":
                if not guarded_anywhere:
                    continue  # wholly unguarded: the writes carry the report
                if access.info.name in _READ_EXEMPT_METHODS:
                    continue
            offenders.setdefault((access.info.fid, access.kind),
                                 []).append(access)
        for (_, kind), accesses in sorted(
                offenders.items(),
                key=lambda item: (item[1][0].line, item[0][1])):
            yield self._race001(analysis, record, kind, accesses, guard)
        yield from self._check_then_act(analysis, record, guard, locksets)

    @staticmethod
    def _inferred_guard(record: SharedField,
                        locksets: dict[int, frozenset[str]]
                        ) -> frozenset[str]:
        inferred: frozenset[str] | None = None
        for access in record.accesses:
            lockset = locksets[id(access)]
            if access.kind == "sync" or not lockset:
                continue
            inferred = lockset if inferred is None else inferred & lockset
        return inferred or frozenset()

    def _race001(self, analysis: ThreadAnalysis, record: SharedField,
                 kind: str, accesses: list[FieldAccess],
                 guard: frozenset[str]) -> Finding:
        access = accesses[0]
        module = access.info.module
        verb = "written" if kind == "write" else "read"
        if guard:
            guard_text = (f"outside its inferred guard "
                          f"{'/'.join(sorted(guard))!r}")
        else:
            guard_text = "with no latch held (and no single latch guards it)"
        contexts = sorted(record.contexts)
        message = (f"thread-shared field {record.cls}.{access.field} is "
                   f"{verb} {guard_text}; the field is reached from: "
                   f"{', '.join(contexts)}")
        related = tuple((other.info.path, other.line)
                        for other in accesses[1:])
        return module.finding(
            "RACE001", self.name, access.node, message,
            scope=access.info.qualname,
            detail=f"{record.cls}.{record.field}/{kind}",
            related=related,
            call_path=tuple(self._witness(analysis, record, access, verb)))

    def _witness(self, analysis: ThreadAnalysis, record: SharedField,
                 access: FieldAccess, verb: str) -> list[str]:
        """Thread-root witness: how a second thread reaches this field."""
        own_contexts = analysis.contexts_of(access.info.fid)
        root_name = self._pick_root(analysis, record, own_contexts)
        lines: list[str] = []
        if root_name is not None:
            if root_name in own_contexts:
                lines.extend(analysis.reach_path(root_name, access.info.fid))
            else:
                conflict = self._conflicting_access(
                    analysis, record, root_name, access)
                if conflict is not None:
                    lines.extend(analysis.reach_path(
                        root_name, conflict.info.fid))
                    lines.append(
                        f"{conflict.info.path}:{conflict.line}: "
                        f"{conflict.info.qualname} accesses "
                        f"{record.cls}.{record.field} on that thread")
        lines.append(f"{access.info.path}:{access.line}: "
                     f"{access.info.qualname} — {record.cls}."
                     f"{record.field} {verb} with no latch held")
        return lines

    @staticmethod
    def _pick_root(analysis: ThreadAnalysis, record: SharedField,
                   own_contexts: frozenset[str]) -> str | None:
        for pool in (own_contexts, record.write_contexts, record.contexts):
            candidates = sorted(name for name in pool
                                if name != MAIN_CONTEXT
                                and name in analysis.roots)
            if candidates:
                return candidates[0]
        return None

    @staticmethod
    def _conflicting_access(analysis: ThreadAnalysis, record: SharedField,
                            root_name: str,
                            access: FieldAccess) -> FieldAccess | None:
        for other in record.accesses:
            if other.info.fid == access.info.fid:
                continue
            if root_name in analysis.contexts_of(other.info.fid):
                return other
        return None

    # -- RACE002 -----------------------------------------------------------

    def _check_then_act(self, analysis: ThreadAnalysis, record: SharedField,
                        guard: frozenset[str],
                        locksets: dict[int, frozenset[str]]
                        ) -> Iterable[Finding]:
        if not guard:
            return
        by_method: dict[str, list[FieldAccess]] = {}
        for access in record.accesses:
            if access.kind != "sync":
                by_method.setdefault(access.info.fid, []).append(access)
        for accesses in by_method.values():
            tests: list[tuple[FieldAccess, int]] = []
            writes: list[tuple[FieldAccess, int]] = []
            for access in accesses:
                region = self._guard_region(analysis, access, guard)
                if region is None:
                    continue
                if access.kind == "read" and \
                        self._in_condition(access):
                    tests.append((access, region))
                elif access.is_write:
                    writes.append((access, region))
            #: regions that re-test the field: a write there is the
            #: *double-checked* idiom — the decision is re-validated under
            #: the guard, which is precisely the cure for check-then-act.
            rechecked = {region for _, region in tests}
            for test, test_region in tests:
                for write, write_region in writes:
                    if write_region != test_region and \
                            write_region not in rechecked and \
                            write.line > test.line:
                        yield self._race002(record, guard, test, write)
                        break
                else:
                    continue
                break  # one finding per method per field

    @staticmethod
    def _guard_region(analysis: ThreadAnalysis, access: FieldAccess,
                      guard: frozenset[str]) -> int | None:
        """Innermost syntactic ``with`` region acquiring the guard, if any.

        ``None`` when the access is not under a syntactic acquisition of
        the inferred guard in its own body — entry locksets do not count
        here: a guard held across the whole call cannot be released
        between a check and its act.
        """
        for token, region in analysis.syntactic_guards(
                access.info.module, access.node):
            if token in guard:
                return region
        return None

    @staticmethod
    def _in_condition(access: FieldAccess) -> bool:
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

    def _race002(self, record: SharedField, guard: frozenset[str],
                 test: FieldAccess, write: FieldAccess) -> Finding:
        module = write.info.module
        guard_name = "/".join(sorted(guard))
        message = (f"check-then-act on {record.cls}.{record.field}: tested "
                   f"under {guard_name!r} at line {test.line}, but the "
                   f"dependent write re-acquires the guard — the tested "
                   f"state may be stale by the time the write runs")
        return module.finding(
            "RACE002", self.name, write.node, message,
            scope=write.info.qualname,
            detail=f"{record.cls}.{record.field}/check-then-act",
            related=((test.info.path, test.line),),
            call_path=(
                f"{test.info.path}:{test.line}: {record.cls}."
                f"{record.field} tested under {guard_name!r}",
                f"{write.info.path}:{write.line}: guard released and "
                f"re-acquired before the dependent write",
            ))


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
