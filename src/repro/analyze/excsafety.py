"""Exception-safety checker: no proven raiser between acquire and release.

The intraprocedural checkers flag the *shape* of an unsafe window (PIN002:
unpin not in a finally).  This checker proves the window is *live*: between
acquiring a resource and releasing it, the function calls something whose
effect summary (:mod:`repro.analyze.effects`) says ``may_raise`` — an
exception there unwinds past the release and leaks the resource.  Because
``may_raise`` is evidence-based (only functions containing a real ``raise``,
transitively, carry it), every finding's ``--explain`` path ends at the
``raise`` statement that proves the hazard — no intraprocedural analysis
can produce that witness.

* **EXC001** (error) — a buffer-pool pin (direct ``fetch``/``new_page``, or
  a call to a ``returns_pin`` helper) followed by a call to a proven raiser
  before the ``unpin``, with no protecting ``finally``.  The frame leaks on
  the error path; a quiesce point then fails on it.
* **EXC002** (warning) — a lock acquisition followed by a proven raiser
  before the function's own ``release``/``release_all``/``unlock``, with no
  protecting ``finally``.  Warning severity: transaction-end release is the
  engine's backstop, but the early-release intent of this code is defeated
  on the error path (the lock is held for the rest of the transaction).

Functions that acquire and never locally release are out of scope here —
PIN001 owns structural pin leaks, and lock lifetimes without a local
release belong to the transaction.  Acquisitions and raisers both come from
:meth:`~repro.analyze.effects.EffectAnalysis.sites`; only direct lock
acquisitions count for EXC002, because the early-release idiom it guards
pairs a ``lock()`` with its ``release()`` in one body.
"""

from __future__ import annotations

from typing import Iterator

from repro.analyze import effects as fx
from repro.analyze.callgraph import FunctionInfo
from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import Checker, Program, call_name

_Pos = tuple[int, int]

#: acquisition effect -> (code, severity, noun, release names)
_KINDS: dict[str, tuple[str, Severity, str, frozenset[str]]] = {
    fx.PINS: ("EXC001", Severity.ERROR, "pin", fx.PIN_RELEASES),
    fx.ACQUIRES_PREFIX: ("EXC002", Severity.WARNING, "lock",
                         fx.LOCK_RELEASES),
}


class ExceptionSafetyChecker(Checker):
    """EXC001/EXC002: proven raiser inside an acquire→release window."""

    name = "exception-safety"
    codes = ("EXC001", "EXC002")
    description = ("no call to a proven raiser between resource acquisition "
                   "and release outside try/finally")
    code_descriptions = {
        "EXC001": "proven raiser between pin and unpin outside a finally "
                  "(frame leaks on the error path)",
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
        acquisitions = sorted(
            ((site, kind) for kind in _KINDS
             for site in summaries.sites(info, kind)
             if kind == fx.PINS or site.callee is None),
            key=lambda pair: pair[0].pos)
        if not acquisitions:
            return
        raisers = summaries.sites(info, fx.MAY_RAISE)
        for acq, kind in acquisitions:
            code, severity, noun, releases = _KINDS[kind]
            if fx.protected_by_finally(info.module, acq.call, releases):
                continue
            release = self._first_release_after(info, acq.pos, releases)
            if release is None:
                continue  # structural leak: PIN001 / txn-end release owns it
            for raiser in raisers:
                if not acq.pos < raiser.pos < release:
                    continue
                chain = (
                    (f"{info.path}:{acq.pos[0]}: {info.qualname} "
                     f"{noun}s via {acq.text}()",)
                    + acq.chain
                    + (f"{info.path}:{raiser.pos[0]}: {info.qualname} calls "
                       f"{raiser.text}() before releasing",)
                    + raiser.chain)
                yield info.module.finding(
                    code, self.name, acq.call,
                    f"{acq.text}() {noun} is not exception-safe: "
                    f"{raiser.text}() is a proven raiser called before the "
                    f"{noun} is released, and the release is not in a "
                    f"finally — an exception there leaks the {noun}",
                    severity=severity,
                    detail=f"{acq.text}@{raiser.text}",
                    call_path=chain)
                break  # one finding per acquisition

    @staticmethod
    def _first_release_after(info: FunctionInfo, pos: _Pos,
                             releases: frozenset[str]) -> _Pos | None:
        after = [(call.lineno, call.col_offset)
                 for call in info.module.own_calls(info.node)
                 if call_name(call) in releases]
        return min((p for p in after if p > pos), default=None)
