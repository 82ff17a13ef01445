"""Lock-order checker: the static acquisition graph must be acyclic.

Deadlock freedom by ordering: if every code path acquires lock *classes* in
one global order, no waits-for cycle can form between classes.  The engine's
lock resources are class-tagged tuples — ``("table", name)``,
``("row", table, rid)``, ``("doc", column, docid)`` and the node locks of
§5.2, ``("node", column, docid, node_id)``; ``row_resource``,
``doc_resource`` and ``node_resource`` in ``repro.cc.document`` build the
last three — so the class of most acquisition sites is statically visible.

The checker walks every function's *acquisition sites* in source order
(:meth:`~repro.analyze.effects.EffectAnalysis.sites`):

* primitive sites (``try_acquire`` / ``try_lock`` / ``Transaction.lock``)
  whose resource expression classifies statically;
* calls to functions whose effect summary (:mod:`repro.analyze.effects`)
  says they transitively acquire a classified lock class — the
  interprocedural half: a helper that locks on your behalf orders your
  lock classes just as a direct acquisition would.

An edge *a → b* is added whenever one function acquires class ``a`` before
class ``b`` (under two-phase locking the first lock is still held at the
second site).  After all modules are visited:

* **LOCK001** — a cycle in the class graph: two code paths acquire the same
  classes in opposite orders, a potential deadlock even though each path is
  locally correct.
* **LOCK002** — a lock acquisition inside an ``except`` handler — directly,
  or through any callee that acquires (``--explain`` prints the chain):
  acquiring while unwinding inverts whatever order the happy path
  established and runs while the transaction may already be aborting.

Unclassifiable acquisitions (``acquires_lock:?``) contribute no edges — the
order graph only reasons about proven classes — but they *do* count for
LOCK002, where any acquisition in a handler is the hazard.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from typing import Iterator

from repro.analyze import effects as fx
from repro.analyze.callgraph import FunctionInfo
from repro.analyze.findings import Finding
from repro.analyze.framework import Checker, Program, call_name


class LockOrderChecker(Checker):
    """LOCK001/LOCK002: cross-file lock-class ordering and handler locks."""

    name = "lock-order"
    codes = ("LOCK001", "LOCK002")
    description = ("static lock-acquisition graph (including acquisitions "
                   "via callees) must be acyclic; no lock acquisition "
                   "inside except handlers")
    code_descriptions = {
        "LOCK001": "two code paths acquire the same lock classes in "
                   "opposite orders (cycle in the class graph)",
        "LOCK002": "lock acquired inside an except handler, directly or "
                   "through a callee",
    }

    def __init__(self) -> None:
        self._program: Program | None = None
        #: class -> class -> list of (path, line, scope, call_path)
        self.edges: dict[str, dict[str,
                         list[tuple[str, int, str, tuple[str, ...]]]]] = \
            defaultdict(lambda: defaultdict(list))

    def begin(self, program: Program) -> None:
        self._program = program

    def finish(self) -> Iterator[Finding]:
        if self._program is None:  # pragma: no cover - driver always begins
            return
        summaries = self._program.effects()
        for info in self._program.callgraph().iter_functions():
            sites = summaries.sites(info, fx.ACQUIRES_PREFIX)
            yield from self._handler_locks(info, sites, summaries)
            # Unclassifiable acquisitions order nothing.
            events = [(fx.lock_class_of(site.effect) or "?", site)
                      for site in sites if site.effect != fx.acquires("?")]
            for i, (first, _) in enumerate(events):
                for second, site in events[i + 1:]:
                    if first != second:
                        self.edges[first][second].append(
                            (info.path, site.call.lineno,
                             info.module.scope_of(site.call),
                             site.call_path))
        yield from self._report_cycles()

    def _handler_locks(self, info: FunctionInfo, sites: list[fx.EffectSite],
                       summaries: fx.EffectAnalysis) -> Iterator[Finding]:
        """LOCK002: one finding per acquiring call inside a handler."""
        reported: set[int] = set()
        for site in sites:
            if id(site.call) in reported or \
                    not self._inside_handler(info, site.call):
                continue
            reported.add(id(site.call))
            if site.callee is None:
                method = call_name(site.call)
                yield info.module.finding(
                    "LOCK002", self.name, site.call,
                    f"lock acquisition ({method}) inside an except "
                    f"handler: acquiring while unwinding subverts the lock "
                    f"order and may run mid-abort", detail=method)
                continue
            classes = ", ".join(sorted(
                fx.lock_class_of(effect) or "?"
                for effect in summaries.summary(site.callee.fid)
                if effect.startswith(fx.ACQUIRES_PREFIX)))
            yield info.module.finding(
                "LOCK002", self.name, site.call,
                f"{site.text}() acquires locks (class {classes}) and is "
                f"called inside an except handler: acquiring while "
                f"unwinding subverts the lock order and may run mid-abort",
                detail=f"{site.text}->{site.callee.qualname}",
                call_path=site.call_path)

    @staticmethod
    def _inside_handler(info: FunctionInfo, call: ast.Call) -> bool:
        for ancestor in info.module.ancestors(call):
            if isinstance(ancestor, ast.ExceptHandler):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False

    def _report_cycles(self) -> Iterator[Finding]:
        graph = {a: set(bs) for a, bs in self.edges.items()}
        for cycle in _find_cycles(graph):
            witnesses: list[tuple[str, int]] = []
            call_path: tuple[str, ...] = ()
            pairs = list(zip(cycle, cycle[1:] + cycle[:1], strict=True))
            for a, b in pairs:
                path, line, _scope, chain = self.edges[a][b][0]
                witnesses.append((path, line))
                if chain and not call_path:
                    call_path = chain  # first interprocedural edge witness
            order = " -> ".join(cycle + [cycle[0]])
            at = ", ".join(f"{p}:{line}" for p, line in witnesses)
            yield Finding(
                code="LOCK001", checker=self.name,
                path=witnesses[0][0], line=witnesses[0][1], column=0,
                message=(f"lock-order cycle {order}: opposite acquisition "
                         f"orders (witnesses: {at}) can deadlock"),
                detail="/".join(sorted(set(cycle))),
                related=tuple(witnesses),
                call_path=call_path)


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Every distinct elementary cycle's node set, one witness path each."""
    cycles: list[list[str]] = []
    seen_sets: set[frozenset[str]] = set()
    visited: set[str] = set()

    def dfs(node: str, path: list[str], on_path: set[str]) -> None:
        visited.add(node)
        path.append(node)
        on_path.add(node)
        for succ in sorted(graph.get(node, ())):
            if succ in on_path:
                cycle = path[path.index(succ):]
                key = frozenset(cycle)
                if key not in seen_sets:
                    seen_sets.add(key)
                    cycles.append(list(cycle))
            elif succ not in visited:
                dfs(succ, path, on_path)
        path.pop()
        on_path.discard(node)

    for start in sorted(graph):
        if start not in visited:
            dfs(start, [], set())
    return cycles
