"""WAL-discipline checker: log before flush; never swallow engine errors.

Write-ahead logging only protects what it precedes: a buffer flush that is
not dominated by hardening the log can push a page image to disk whose
changes the log has not recorded yet — exactly the window a crash turns
into unrecoverable divergence.  In this engine the discipline is structural:
``TransactionManager.checkpoint`` runs ``on_checkpoint`` (the pool flush)
and then writes the CHECKPOINT record, and everything else flushes through
that path.

* **WAL001** — a flush site (outside the buffer pool itself) with no WAL
  append/checkpoint earlier in the same function.  A *flush site* is a
  ``flush_page``/``flush_all`` call **or a call to any function whose
  effect summary says it transitively flushes** without also writing the
  WAL itself — a helper that flushes on your behalf inherits your
  obligation to log first.  A call to a ``writes_wal`` callee earlier in
  the function dominates just as a direct append would.
* **WAL002** — a bare ``except:`` or blanket ``except Exception:`` whose
  handler neither re-raises nor names what it expects: it swallows
  ``repro.errors`` types (DeadlockError, ChecksumError, LogError...)
  that upper layers rely on seeing.  Narrow the clause to the errors the
  call site actually anticipates.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze import effects as fx
from repro.analyze.callgraph import CallGraph, FunctionInfo
from repro.analyze.findings import Finding
from repro.analyze.framework import Checker, Program, SourceModule, call_name

#: calls that harden the log (or are the log-hardening path itself).
#: ``flush`` counts only on a log receiver (``*.log.flush()``) — see
#: :meth:`WalDisciplineChecker._dominator_positions` — because ``flush``
#: on anything else (a file, a socket) does not harden the WAL.
_LOG_METHODS = {"append", "checkpoint", "log"}

#: the pool's own module owns the flush primitives.
_FLUSH_OWNERS = ("repro/rdb/buffer.py",)

_BLANKET = {"Exception", "BaseException"}


class WalDisciplineChecker(Checker):
    """WAL001/WAL002: log-before-flush and no swallowed engine errors."""

    name = "wal-discipline"
    codes = ("WAL001", "WAL002")
    description = ("flushes (direct or via flushing callees) must be "
                   "dominated by a WAL append; no bare/blanket except may "
                   "swallow engine errors")
    code_descriptions = {
        "WAL001": "page flush (direct or via a flushing callee) not "
                  "preceded by a WAL append/checkpoint",
        "WAL002": "bare/blanket except swallows engine error types without "
                  "re-raising",
    }

    def __init__(self) -> None:
        self._program: Program | None = None

    def begin(self, program: Program) -> None:
        self._program = program

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Per-module pass: WAL002 only — WAL001 runs in :meth:`finish`."""
        yield from self._check_swallows(module)

    # -- WAL001 (interprocedural) ------------------------------------------

    def finish(self) -> Iterator[Finding]:
        if self._program is None:  # pragma: no cover - driver always begins
            return
        graph = self._program.callgraph()
        summaries = self._program.effects()
        for info in graph.iter_functions():
            if info.path.endswith(_FLUSH_OWNERS):
                continue  # the pool's own module owns the primitives
            yield from self._check_function_flushes(info, graph, summaries)

    def _check_function_flushes(self, info: FunctionInfo, graph: CallGraph,
                                summaries: fx.EffectAnalysis
                                ) -> Iterator[Finding]:
        module = info.module
        dominators = self._dominator_positions(info, graph, summaries)
        for site in summaries.sites(info, fx.FLUSHES):
            if any(pos < site.pos for pos in dominators):
                continue
            if site.callee is None:
                method = call_name(site.call)
                yield module.finding(
                    "WAL001", self.name, site.call,
                    f"{method}() is not dominated by a WAL append/checkpoint "
                    f"in {info.name}(): a crash after this flush can leave "
                    f"page images the log never recorded (route through "
                    f"TransactionManager.checkpoint)", detail=method)
            elif not summaries.has(site.callee.fid, fx.WRITES_WAL):
                # A callee that also writes the WAL is self-disciplined
                # (checkpoint) and checked where it flushes.
                yield module.finding(
                    "WAL001", self.name, site.call,
                    f"{site.text}() transitively flushes pages (via "
                    f"{site.callee.qualname}()) with no WAL append/"
                    f"checkpoint earlier in {info.name}(): a crash after "
                    f"the flush can leave page images the log never "
                    f"recorded",
                    detail=f"{site.text}->{site.callee.qualname}",
                    call_path=site.call_path)

    def _dominator_positions(self, info: FunctionInfo, graph: CallGraph,
                             summaries: fx.EffectAnalysis
                             ) -> list[tuple[int, int]]:
        """Positions of every call that hardens the log in ``info``."""
        positions: list[tuple[int, int]] = []
        for call in info.module.own_calls(info.node):
            name = call_name(call)
            if name in _LOG_METHODS or \
                    (name == "flush" and fx.is_log_receiver(call)):
                positions.append((call.lineno, call.col_offset))
        for site in graph.callees_of.get(info.fid, []):
            if summaries.has(site.callee.fid, fx.WRITES_WAL):
                positions.append((site.line, site.call.col_offset))
        return positions

    # -- WAL002 ------------------------------------------------------------

    def _check_swallows(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                kind = "bare except:"
            elif isinstance(node.type, ast.Name) and node.type.id in _BLANKET:
                kind = f"except {node.type.id}:"
            else:
                continue
            if self._reraises(node):
                continue
            yield module.finding(
                "WAL002", self.name, node,
                f"{kind} swallows engine errors (repro.errors types such as "
                f"DeadlockError/ChecksumError) — narrow it to the "
                f"exceptions this site anticipates",
                detail=kind)

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
        return False
