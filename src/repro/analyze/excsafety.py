"""Exception-safety checker: no proven raiser between lock and release.

Between acquiring a lock and releasing it in the same body, the function
calls something whose effect summary (:mod:`repro.analyze.effects`) says
``may_raise`` — an exception there unwinds past the release.  Because
``may_raise`` is evidence-based (only functions containing a real ``raise``,
transitively, carry it), every finding's ``--explain`` path ends at the
``raise`` statement that proves the hazard.

* **EXC002** (warning) — a lock acquisition followed by a proven raiser
  before the function's own ``release``/``release_all``/``unlock``, with no
  protecting ``finally``.  Warning severity: transaction-end release is the
  engine's backstop, but the early-release intent of this code is defeated
  on the error path (the lock is held for the rest of the transaction).

The pin half of this window needs no checker of its own: an unpin outside
a ``finally`` is already PIN002, raiser or not.  Functions that lock and
never locally release are out of scope — lock lifetimes without a local
release belong to the transaction.  Acquisitions and raisers both come
from :meth:`~repro.analyze.effects.EffectAnalysis.sites`; only direct lock
acquisitions count, because the early-release idiom this guards pairs a
``lock()`` with its ``release()`` in one body.
"""

from __future__ import annotations

from typing import Iterator

from repro.analyze import effects as fx
from repro.analyze.callgraph import FunctionInfo
from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import Checker, Program, call_name

_Pos = tuple[int, int]


class ExceptionSafetyChecker(Checker):
    """EXC002: proven raiser inside a lock→release window."""

    name = "exception-safety"
    codes = ("EXC002",)
    description = ("no call to a proven raiser between a lock acquisition "
                   "and its local release outside try/finally")
    code_descriptions = {
        "EXC002": "proven raiser between lock acquisition and local release "
                  "outside a finally (early release defeated)",
    }

    def __init__(self) -> None:
        self._program: Program | None = None

    def begin(self, program: Program) -> None:
        self._program = program

    def finish(self) -> Iterator[Finding]:
        if self._program is None:  # pragma: no cover - driver always begins
            return
        summaries = self._program.effects()
        for info in self._program.callgraph().iter_functions():
            yield from self._check_function(info, summaries)

    def _check_function(self, info: FunctionInfo,
                        summaries: fx.EffectAnalysis) -> Iterator[Finding]:
        acquisitions = [site for site in
                        summaries.sites(info, fx.ACQUIRES_PREFIX)
                        if site.callee is None]
        if not acquisitions:
            return
        raisers = summaries.sites(info, fx.MAY_RAISE)
        for acq in acquisitions:
            if fx.protected_by_finally(info.module, acq.call,
                                       fx.LOCK_RELEASES):
                continue
            release = self._first_release_after(info, acq.pos)
            if release is None:
                continue  # the transaction's end releases it
            for raiser in raisers:
                if not acq.pos < raiser.pos < release:
                    continue
                chain = (
                    (f"{info.path}:{acq.pos[0]}: {info.qualname} "
                     f"locks via {acq.text}()",)
                    + (f"{info.path}:{raiser.pos[0]}: {info.qualname} calls "
                       f"{raiser.text}() before releasing",)
                    + raiser.chain)
                yield info.module.finding(
                    "EXC002", self.name, acq.call,
                    f"{acq.text}() lock is not exception-safe: "
                    f"{raiser.text}() is a proven raiser called before the "
                    f"lock is released, and the release is not in a "
                    f"finally — an exception there leaks the lock",
                    severity=Severity.WARNING,
                    detail=f"{acq.text}@{raiser.text}",
                    call_path=chain)
                break  # one finding per acquisition

    @staticmethod
    def _first_release_after(info: FunctionInfo, pos: _Pos) -> _Pos | None:
        after = [(call.lineno, call.col_offset)
                 for call in info.module.own_calls(info.node)
                 if call_name(call) in fx.LOCK_RELEASES]
        return min((p for p in after if p > pos), default=None)
