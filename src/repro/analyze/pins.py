"""Pin-leak checker: an unpin must run on the error path too.

The buffer pool's contract (``repro.rdb.buffer``) is strict pin/unpin
pairing: a frame pinned by ``fetch``/``new_page`` that is never unpinned can
never be evicted.  The safe idioms are:

* the ``pool.page(...)`` context manager (pairing is structural);
* ``fetch``/``new_page`` immediately guarded by ``try``/``finally`` whose
  ``finally`` unpins;
* an explicit *handoff*: the function returns the pinned result to a caller
  that owns the unpin (the pool's own ``new_page`` does this).

Reported:

* **PIN002** — a pin whose ``unpin`` is not in a ``finally``: leaks the
  frame whenever an intervening statement raises, an error-path leak that
  no test sees unless it makes that statement raise.

A pin with no ``unpin`` at all leaks on every path, which the tests see:
the pool's pin probes (``pinned_pages``/``assert_unpinned``) and pool
exhaustion catch it, so it is not reported here.

The check is *interprocedural*: a call to a function whose effect summary
(:mod:`repro.analyze.effects`) says ``returns_pin`` — it hands a pinned
frame to its caller — is a pin at the call site, subject to the same rules.
``--explain`` prints the call chain down to the primitive ``fetch``/
``new_page`` that proves it.  Both kinds of pin come from one list,
:meth:`~repro.analyze.effects.EffectAnalysis.sites`.
"""

from __future__ import annotations

from typing import Iterator

from repro.analyze import effects as fx
from repro.analyze.findings import Finding
from repro.analyze.framework import Checker, Program


class PinLeakChecker(Checker):
    """PIN002: a buffer-pool pin's ``unpin`` must be in a ``finally``."""

    name = "pin-leak"
    codes = ("PIN002",)
    description = ("BufferPool.fetch/new_page results must be unpinned in "
                   "a finally or explicitly handed off — including pins "
                   "inherited from returns_pin callees")
    code_descriptions = {
        "PIN002": "unpin exists but is not in a finally: the error path "
                  "leaks the frame",
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
            for site in summaries.sites(info, fx.PINS):
                finding = self._check_pin(site)
                if finding is not None:
                    yield finding

    def _check_pin(self, site: fx.EffectSite) -> Finding | None:
        info = site.info
        function = info.node
        if fx.protected_by_finally(info.module, site.call, fx.PIN_RELEASES) \
                or fx.hands_back_pin(info, site.call) \
                or not fx.unpins(function):
            return None
        if site.callee is None:
            detail = site.text
            message = (f"{detail}() pin is not exception-safe: unpin is "
                       f"not in a finally, so an error between pin and "
                       f"unpin leaks the frame (use pool.page() or "
                       f"try/finally)")
        else:
            callee = site.callee.qualname
            detail = f"{site.text}->{callee}"
            message = (f"{site.text}() hands back a pinned frame (via "
                       f"{callee}()) and the unpin is not in a finally: "
                       f"an error between the call and the unpin leaks "
                       f"the frame")
        return info.module.finding(
            "PIN002", self.name, site.call, message,
            detail=detail, call_path=site.call_path)
