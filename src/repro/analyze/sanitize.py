"""Runtime invariant sanitizers: the dynamic half of ``repro.analyze``.

The static checkers prove what is visible in the AST; the sanitizers catch
what only shows up at runtime.  When armed (``REPRO_SANITIZE=1`` in the
environment, or :func:`enable`), the storage substrate turns its protocol
assumptions into hard assertions:

* **buffer pool** — double-unpin detection, and zero pinned frames at every
  transaction boundary and at ``Database.close`` (a global probe: every
  reader of the pool runs under the engine latch, so no other thread can
  hold a pin at those points);
* **lock manager** — all locks of a transaction released at commit/abort,
  and the *witnessed* lock-acquisition order recorded per transaction so a
  runtime inversion (class B taken while A is held on one path, A-after-B
  on another) trips immediately;
* **WAL** — LSN monotonicity across appends;
* **accounting and waits** — per-transaction accounting never charges
  more than the global counters saw, and a request's waits fit inside
  its elapsed time.

Thread-shared fields have no runtime checker: races on them are the
static ``RACE001``/``RACE002``/``LATCH001`` checkers' job
(:mod:`repro.analyze.races`), and each of those is pinned to a seeded
mutant it kills (``tests/analyze/test_race_mutants.py``).

Every trip increments a ``sanitize.*`` counter on the component's stats
registry (so ``explain_analyze`` traces and experiment reports show them)
and raises :class:`~repro.errors.SanitizerError`.  Checks performed count
into ``sanitize.checks``: a sanitized run that did no checking is itself a
signal the wiring broke.

This module is imported by the substrate (buffer/locks/wal/txn), so it must
not import any engine component — only the error hierarchy.  All hooks are
no-ops while disarmed; the hot-path cost is one module-level bool test.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.stats import StatsRegistry

_ENV_FLAG = "REPRO_SANITIZE"

#: armed state; resolved lazily from the environment on first query.
_enabled: bool | None = None

#: buffer pools created while armed (for end-of-test quiesce checks).
#: Strong references on purpose: a pool that leaked pins and then went out
#: of scope must still be visible at the checkpoint.  The harness clears
#: the set at every test boundary, so nothing accumulates.
_pools: set[object] = set()

#: per-transaction ordered list of distinct lock classes acquired.
_lock_classes: dict[int, list[str]] = {}
#: witnessed class graph: a -> set of b acquired while a was held.
_witnessed_edges: dict[str, set[str]] = defaultdict(set)


def enabled() -> bool:
    """Whether sanitizers are armed (env ``REPRO_SANITIZE`` or programmatic)."""
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get(_ENV_FLAG, "").strip() not in ("", "0")
    return _enabled


def enable() -> None:
    """Arm the sanitizers for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Disarm the sanitizers and drop witnessed state."""
    global _enabled
    _enabled = False
    reset_witness()
    _pools.clear()


def trip(stats: "StatsRegistry", name: str, message: str) -> None:
    """Record a sanitizer trip and fail loudly.

    ``name`` becomes the counter ``sanitize.<name>``; the counter is bumped
    *before* raising so a harness that catches the error still sees the
    trip in its stats snapshot.
    """
    stats.add(f"sanitize.{name}")
    raise SanitizerError(f"sanitizer [{name}]: {message}")


# -- buffer pool -----------------------------------------------------------

def register_pool(pool: object) -> None:
    """Track ``pool`` for quiesce checks (called from BufferPool.__init__)."""
    _pools.add(pool)


def tracked_pools() -> list[object]:
    """Live pools registered since the last :func:`clear_tracked_pools`."""
    return list(_pools)


def clear_tracked_pools() -> None:
    _pools.clear()


def check_pool_quiesced(pool: Any, stats: "StatsRegistry",
                        where: str = "txn end") -> None:
    """Assert no frame of ``pool`` is pinned (transaction boundary check).

    The probe is global (:meth:`BufferPool.pinned_pages`): every reader of
    the pool runs under the engine latch, so at the end of a transaction —
    or at shutdown — no other thread can be holding a pin mid-operation,
    and any pinned frame is some component's lost unpin.
    """
    stats.add("sanitize.checks")
    pinned = pool.pinned_pages()
    if pinned:
        trip(stats, "pinned_at_txn_end",
             f"{len(pinned)} frame(s) still pinned at {where}: "
             f"pages {pinned[:8]} — some component lost an unpin")


# -- lock manager ----------------------------------------------------------

def classify_lock_resource(resource: object) -> str:
    """Runtime lock class of a resource (mirrors the static classifier)."""
    if isinstance(resource, tuple) and resource and \
            isinstance(resource[0], str):
        return resource[0]
    return type(resource).__name__


def on_lock_acquired(stats: "StatsRegistry", txn_id: int,
                     resource: object) -> None:
    """Witness one granted lock; trip on a runtime lock-order inversion."""
    lock_class = classify_lock_resource(resource)
    held = _lock_classes.setdefault(txn_id, [])
    if held and held[-1] == lock_class:
        return
    if lock_class in held:
        return  # re-acquisition of an earlier class: no new edge
    for earlier in held:
        _witnessed_edges[earlier].add(lock_class)
        if earlier in _witnessed_edges.get(lock_class, ()):
            trip(stats, "lock_order",
                 f"witnessed lock-order inversion: txn {txn_id} acquired "
                 f"{lock_class!r} while holding {earlier!r}, but another "
                 f"transaction acquired them in the opposite order — "
                 f"potential deadlock the static graph should also show")
    held.append(lock_class)


def on_locks_released(txn_id: int) -> None:
    _lock_classes.pop(txn_id, None)


def lock_witness_txns() -> list[int]:
    """Txn ids with live per-txn witness state.

    Every released/finished transaction must have been popped by
    :func:`on_locks_released`; a txn id lingering here after its program
    ended is a witness-state leak (the map grows for the whole process and
    later transactions inherit stale inversion context).  Tests assert this
    is empty after a workload quiesces.
    """
    return sorted(_lock_classes)


def check_txn_locks_released(locks: Any, txn_id: int,
                             stats: "StatsRegistry") -> None:
    """Assert the lock manager holds nothing for ``txn_id`` any more."""
    stats.add("sanitize.checks")
    held = locks.locks_held(txn_id)
    if held:
        trip(stats, "locks_at_txn_end",
             f"txn {txn_id} still holds {held} lock(s) after commit/abort — "
             f"release_all was skipped or raced")


def witnessed_edges() -> dict[str, set[str]]:
    """Copy of the witnessed lock-class graph (for tests)."""
    return {a: set(bs) for a, bs in _witnessed_edges.items() if bs}


def reset_witness() -> None:
    """Forget witnessed lock order."""
    _lock_classes.clear()
    _witnessed_edges.clear()


# -- accounting ------------------------------------------------------------

def check_accounting_caps(stats: "StatsRegistry",
                          records: Iterable[Any]) -> None:
    """Assert per-txn accounting never over-charges the global counters.

    ``records`` are accounting records (anything with a ``counters`` dict).
    For every counter, the sum charged across transactions must be bounded
    by the global counter: per-txn sinks only ever mirror global
    increments, so a sum *exceeding* the global total means work was
    double-attributed — the failure mode of a racy sink under concurrent
    sessions (the thread-local-sink design exists to prevent exactly
    this).  The serving layer runs this check when it drains.
    """
    stats.add("sanitize.checks")
    totals: Counter[str] = Counter()
    for record in records:
        totals.update(record.counters)
    for name, charged in sorted(totals.items()):
        total = stats.get(name)
        if charged > total:
            trip(stats, "accounting_overcharge",
                 f"accounting records charge {charged} of {name!r} but the "
                 f"global counter only saw {total} — per-txn attribution "
                 f"double-counted under concurrency")


def check_wait_reconcile(stats: "StatsRegistry", wait_us: int,
                         elapsed_us: int) -> None:
    """Assert a wait clock's per-class waits fit inside its elapsed time.

    ``wait_us`` is the sum over the clock's per-class breakdown;
    ``elapsed_us`` the clock's own wall-clock span.  Wait regions are
    non-overlapping sub-intervals of the clocked interval measured on the
    same monotonic clock and the same thread, and each charge rounds down
    to whole microseconds, so Σ waits ≤ elapsed holds *mathematically* for
    correct instrumentation — a violation means a suspension was charged
    twice (nested ``wait_timer`` regions) or charged from a thread the
    clock does not cover.  The registry's ``request_clock`` runs this on
    every exit while sanitizers are armed.
    """
    stats.add("sanitize.checks")
    if wait_us > elapsed_us:
        trip(stats, "waits.reconcile",
             f"wait clock charged {wait_us}us of suspensions into an "
             f"interval only {elapsed_us}us long — a wait class was "
             f"double-charged (nested wait_timer?) or charged from a "
             f"thread this clock does not cover")


# -- WAL -------------------------------------------------------------------

def check_lsn_monotonic(stats: "StatsRegistry", last_lsn: int,
                        lsn: int) -> None:
    """Assert ``lsn`` advances past ``last_lsn`` (called on append)."""
    stats.add("sanitize.checks")
    if lsn <= last_lsn:
        trip(stats, "lsn_regression",
             f"WAL LSN regressed: append produced lsn {lsn} after "
             f"{last_lsn} — log ordering is broken")
