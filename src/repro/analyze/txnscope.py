"""Transaction-scope checker: public mutators must run inside a transaction.

Every durable state change in this engine is witnessed by a WAL append — the
recovery protocol replays only what the log records, so a mutation reached
from a public :class:`~repro.core.engine.Database` entry point with *no
transaction in scope* writes log records against whatever transaction id
happens to be lying around (or none), and crash recovery cannot attribute
it.  The discipline is structural:

* an entry point either **establishes** a scope (calls ``begin`` /
  ``run_in_txn``) or **receives** one (takes a ``txn`` / ``txn_id``
  parameter — the caller owns the scope); and
* autonomous DDL is exempt: an append whose first argument is the literal
  ``-1`` is the engine's documented out-of-band record (schema/catalog
  operations journal themselves outside any transaction).

**TXN001** fires when a public ``Database`` method with neither form of
scope transitively reaches a primitive WAL append (excluding ``-1``
records) through the call graph — the reachability walk stops at any
callee that establishes or receives a scope, so delegation to transactional
helpers is not flagged.  ``--explain`` prints the call chain from the entry
point down to the offending append.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze import effects as fx
from repro.analyze.callgraph import CallGraph, FunctionInfo
from repro.analyze.findings import Finding
from repro.analyze.framework import Checker, Program, call_name

#: classes whose public methods are the engine's entry-point surface.
_ENTRY_CLASSES = {"Database"}
#: parameters whose presence means the caller passes a transaction scope.
_TXN_PARAMS = {"txn", "txn_id"}
#: calls that establish a transaction scope.
_SCOPE_CALLS = {"begin", "run_in_txn"}


class TxnScopeChecker(Checker):
    """TXN001: public entry points must not mutate outside a txn scope."""

    name = "txn-scope"
    codes = ("TXN001",)
    description = ("public Database entry points reaching a WAL append must "
                   "establish or receive a transaction scope")
    code_descriptions = {
        "TXN001": "public entry point reaches a WAL append with no "
                  "transaction in scope on the path",
    }

    def __init__(self) -> None:
        self._program: Program | None = None

    def begin(self, program: Program) -> None:
        self._program = program

    def finish(self) -> Iterator[Finding]:
        if self._program is None:  # pragma: no cover - driver always begins
            return
        graph = self._program.callgraph()
        for info in graph.iter_functions():
            if info.cls not in _ENTRY_CLASSES:
                continue
            if info.name.startswith("_"):
                continue  # only the public surface is an entry point
            if self._has_scope(info):
                continue
            trail = self._find_unscoped_append(info, graph)
            if trail is None:
                continue
            chain, append_call = trail
            yield info.module.finding(
                "TXN001", self.name, info.node,
                f"public entry point {info.cls}.{info.name}() reaches a WAL "
                f"append at {chain[-1].split(':', 2)[0]}:"
                f"{append_call.lineno} with no transaction in scope: it "
                f"neither takes a txn/txn_id parameter nor calls "
                f"begin()/run_in_txn(), so the mutation is unattributable "
                f"at recovery",
                detail=f"{info.cls}.{info.name}",
                call_path=tuple(chain))

    # -- scope and reachability --------------------------------------------

    def _has_scope(self, info: FunctionInfo) -> bool:
        """Does ``info`` establish or receive a transaction scope?"""
        args = info.node.args
        names = {a.arg for a in args.args + args.posonlyargs +
                 args.kwonlyargs}
        if names & _TXN_PARAMS:
            return True
        for call in info.module.own_calls(info.node):
            if call_name(call) in _SCOPE_CALLS:
                return True
        return False

    def _find_unscoped_append(self, start: FunctionInfo, graph: CallGraph
                              ) -> tuple[list[str], ast.Call] | None:
        """BFS from ``start`` to a primitive non-DDL WAL append.

        Descent stops at scope barriers (callees that establish or receive
        a scope) — a mutation below a barrier is the barrier's business.
        Returns the rendered call chain and the append call, or None.
        """
        queue: list[tuple[FunctionInfo, list[str]]] = [(start, [])]
        visited = {start.fid}
        while queue:
            info, chain = queue.pop(0)
            append = self._direct_append(info)
            if append is not None:
                receiver = call_name(append)
                step = (f"{info.path}:{append.lineno}: {info.qualname}: "
                        f"{receiver}() writes WAL outside any txn scope")
                return chain + [step], append
            for site in graph.callees_of.get(info.fid, []):
                callee = site.callee
                if callee.fid in visited:
                    continue
                visited.add(callee.fid)
                if self._has_scope(callee):
                    continue  # barrier: scope established or delegated
                step = (f"{info.path}:{site.line}: {info.qualname} calls "
                        f"{site.text}()")
                queue.append((callee, chain + [step]))
        return None

    def _direct_append(self, info: FunctionInfo) -> ast.Call | None:
        """First primitive WAL append of ``info``, minus ``-1`` DDL records."""
        for call in info.module.own_calls(info.node):
            name = call_name(call)
            if name not in ("append", "checkpoint", "log"):
                continue
            if not fx.is_log_receiver(call):
                continue
            if self._is_autonomous_ddl(call):
                continue
            return call
        return None

    @staticmethod
    def _is_autonomous_ddl(call: ast.Call) -> bool:
        """``log.append(-1, ...)``: documented out-of-band DDL record."""
        if not call.args:
            return False
        first = call.args[0]
        if isinstance(first, ast.UnaryOp) and \
                isinstance(first.op, ast.USub) and \
                isinstance(first.operand, ast.Constant) and \
                first.operand.value == 1:
            return True
        return isinstance(first, ast.Constant) and first.value == -1
