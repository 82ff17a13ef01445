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
  on another) trips immediately and can be cross-checked against the static
  lock-order graph;
* **WAL** — LSN monotonicity across appends;
* **thread-shared state** — an Eraser-style lockset discipline: latches
  wrapped in :class:`TrackedLock` record per-thread held sets, registered
  shared structures report every access via :func:`shared_access`, and a
  field modified by two threads with no latch in common trips
  ``sanitize.race.lockset`` — the dynamic counterpart of the static
  ``RACE001`` guard inference (and :func:`cross_check_field_guards` makes
  the two views confront each other).  The lock table has no lock of its
  own, so under the serving layer its witnessed guard is ``db.latch``.

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
import threading
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
#: every lock class witnessed since the last reset (survives txn end, for
#: cross-checking against the static effect summaries).
_witnessed_classes: set[str] = set()


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
    _witnessed_classes.add(lock_class)
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
    """Copy of the witnessed lock-class graph (for cross-checks/tests)."""
    return {a: set(bs) for a, bs in _witnessed_edges.items() if bs}


def cross_check_static_order(static_edges: Iterable[tuple[str, str]]
                             ) -> list[str]:
    """Contradictions between witnessed runtime order and the static graph.

    Returns human-readable descriptions of witnessed edges whose *reverse*
    appears in the static graph: runtime behaviour the static analysis
    would call a cycle.  Empty list = the two views agree.
    """
    static = {(a, b) for a, b in static_edges}
    contradictions: list[str] = []
    for a, successors in _witnessed_edges.items():
        for b in successors:
            if (b, a) in static:
                contradictions.append(
                    f"runtime acquired {a!r} before {b!r} but the static "
                    f"graph orders {b!r} before {a!r}")
    return sorted(contradictions)


def cross_check_lock_summaries(static_classes: Iterable[str]) -> list[str]:
    """Witnessed lock classes invisible to the static effect summaries.

    ``static_classes`` is every classified lock class the effect analysis
    (:class:`repro.analyze.effects.EffectAnalysis.all_lock_classes`) proved
    some function may acquire.  A class witnessed at runtime but absent
    statically means an acquisition site the call graph could not see —
    a dynamic receiver, a callback, an unclassifiable resource — i.e. a
    concrete instance of the analyzer's documented blind spot.  Empty list
    = every runtime acquisition is statically accounted for.
    """
    static = set(static_classes)
    return sorted(
        f"runtime witnessed lock class {cls!r} that no static effect "
        f"summary acquires — an acquisition site the call graph cannot see"
        for cls in _witnessed_classes if cls not in static)


def reset_witness() -> None:
    """Forget witnessed lock order and locksets."""
    _lock_classes.clear()
    _witnessed_edges.clear()
    _witnessed_classes.clear()
    with _field_states_lock:
        _field_states.clear()


# -- Eraser-style lockset discipline ---------------------------------------
#
# The dynamic counterpart of the RACE001 latch inference: instrumented
# shared structures report every access together with the set of tracked
# latches the accessing thread holds.  Per field the sanitizer maintains the
# classic Eraser state machine (virgin -> exclusive -> shared ->
# shared-modified) and a *candidate lockset* — the intersection of the held
# sets across all post-exclusive accesses.  A field in shared-modified state
# whose candidate set goes empty has no latch that consistently protects it:
# that is a data race witnessed at runtime, regardless of whether the racy
# schedule actually interleaved badly on this run.

#: thread-local stack of TrackedLock tokens the current thread holds.
_held_locks = threading.local()

_VIRGIN, _EXCLUSIVE, _SHARED, _SHARED_MODIFIED = range(4)
_STATE_NAMES = {_VIRGIN: "virgin", _EXCLUSIVE: "exclusive",
                _SHARED: "shared", _SHARED_MODIFIED: "shared-modified"}


def _held_tokens() -> list[str]:
    tokens: list[str] | None = getattr(_held_locks, "tokens", None)
    if tokens is None:
        tokens = []
        _held_locks.tokens = tokens
    return tokens


def held_lock_tokens() -> tuple[str, ...]:
    """Tokens of every :class:`TrackedLock` the calling thread holds."""
    return tuple(_held_tokens())


class TrackedLock:
    """A latch whose ownership the lockset sanitizer can see.

    Wraps a ``threading.Lock`` (or ``RLock`` — re-entrant acquisitions push
    the token once per level) and records its *token* in a thread-local
    stack while held, so :func:`shared_access` can intersect candidate
    locksets against what the accessing thread actually holds.  The token
    is a stable name ("db.latch", "server._state_lock"), not the instance,
    which is exactly the granularity the static guard inference works at.

    Supports the same surface the engine uses on its latches: ``with``,
    explicit ``acquire``/``release`` (the serving layer's ``_latch_sleep``
    releases the engine latch around a sleep), and nothing else.  On a
    failed/raising ``release`` the token is *kept* — the underlying lock is
    still held, and the caller's RuntimeError handling must see a truthful
    held-stack.
    """

    __slots__ = ("token", "_lock")

    def __init__(self, token: str, lock: Any = None) -> None:
        self.token = token
        self._lock = lock if lock is not None else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired and enabled():
            _held_tokens().append(self.token)
        return acquired

    def release(self) -> None:
        self._lock.release()  # raises first: an unowned latch pops nothing
        tokens = _held_tokens()
        for index in range(len(tokens) - 1, -1, -1):
            if tokens[index] == self.token:
                del tokens[index]
                break

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class _FieldState:
    """Eraser per-field record: state machine + candidate lockset.

    ``lockset`` holds the *first* accessor's held set while the field is
    still exclusive (reported, never refined — a single-threaded
    initialization phase that writes latch-free is benign), and becomes
    the refining candidate set only once a second thread appears: Eraser's
    C(v) starts as the universal set, so the first post-exclusive access
    *replaces* rather than intersects.
    """

    __slots__ = ("state", "owner", "lockset", "tripped")

    def __init__(self, owner: int, lockset: frozenset[str]) -> None:
        self.state = _EXCLUSIVE
        self.owner = owner
        self.lockset = lockset
        self.tripped = False


#: per-(structure, field) Eraser records; guarded by a plain (untracked)
#: lock — the sanitizer must not witness its own bookkeeping.
_field_states: dict[tuple[str, str], _FieldState] = {}
_field_states_lock = threading.Lock()


def shared_access(stats: "StatsRegistry", struct: str, field: str,
                  write: bool, extra_held: tuple[str, ...] = ()) -> None:
    """Witness one access to a registered shared field.

    Call sites place this *inside* the latch region that protects the
    access (or deliberately outside one, for accesses whose safety rests
    on an ambient-latch claim — that is what the cross-check validates).
    Trips ``sanitize.race.lockset`` once per field when the candidate set
    empties in shared-modified state.

    ``extra_held`` names latches the caller verifiably held *during* the
    access but has already released by the time it can report — the stats
    registry's own whole-map operations use it, because reporting from
    inside their locked region would recurse into ``stats.add`` against
    its non-reentrant lock.
    """
    if not enabled():
        return
    stats.add("sanitize.checks")
    thread_id = threading.get_ident()
    held = frozenset(_held_tokens()).union(extra_held)
    message: str | None = None
    with _field_states_lock:
        record = _field_states.get((struct, field))
        if record is None:
            _field_states[(struct, field)] = _FieldState(thread_id, held)
            return
        if record.state == _EXCLUSIVE and record.owner == thread_id:
            return  # still single-threaded: Eraser defers judgement
        if record.state == _EXCLUSIVE:
            record.state = _SHARED_MODIFIED if write else _SHARED
            # C(v) was universal through the exclusive phase; refinement
            # starts with this first second-thread access.
            record.lockset = held
        else:
            if write:
                record.state = _SHARED_MODIFIED
            record.lockset = record.lockset & held
        if record.state == _SHARED_MODIFIED and not record.lockset \
                and not record.tripped:
            record.tripped = True
            message = (
                f"no latch consistently guards {struct}.{field}: this "
                f"{'write' if write else 'read'} holds "
                f"{sorted(held) if held else 'no tracked latch'} and the "
                f"candidate lockset is now empty — a second thread has "
                f"modified the field with a disjoint (or no) latch held")
    if message is not None:
        trip(stats, "race.lockset", message)


def witnessed_locksets() -> dict[tuple[str, str], frozenset[str]]:
    """Candidate lockset per witnessed (structure, field), post-exclusive.

    Fields still in their exclusive (single-thread) phase report the
    initial holder's lockset; a field that tripped reports ``frozenset()``.
    """
    with _field_states_lock:
        return {key: frozenset(record.lockset)
                for key, record in _field_states.items()}


def witnessed_field_states() -> dict[tuple[str, str], str]:
    """Eraser state name per witnessed (structure, field) — for tests."""
    with _field_states_lock:
        return {key: _STATE_NAMES[record.state]
                for key, record in _field_states.items()}


def token_tail(token: str) -> str:
    """Last dotted segment of a latch token, call suffix stripped.

    Static guard tokens look like ``db.latch`` or ``lock_of()``; runtime
    TrackedLock tokens like ``db.latch`` or ``server._state_lock``.  Tails
    are the comparable part.
    """
    if token.endswith("()"):
        token = token[:-2]
    return token.rsplit(".", 1)[-1]


def cross_check_field_guards(
        static_guards: Iterable[tuple[str, str, str]]) -> list[str]:
    """Static guard inference vs. runtime locksets; returns discrepancies.

    ``static_guards`` is ``(class, field, guard_token)`` triples — what
    :class:`repro.analyze.threads.ThreadAnalysis` inferred protects each
    shared field.  For every triple whose field was witnessed at runtime,
    the inferred guard must appear (by token tail) in the field's candidate
    lockset.  A miss means the two views disagree: either the static
    inference named the wrong latch, or the runtime instrumentation sits
    outside the region the analysis looked at.  Empty list = agreement.
    """
    locksets = witnessed_locksets()
    discrepancies: list[str] = []
    for cls, field, guard in static_guards:
        lockset = locksets.get((cls, field))
        if lockset is None:
            continue  # not exercised at runtime: nothing to compare
        wanted = token_tail(guard)
        if not any(token_tail(token) == wanted for token in lockset):
            discrepancies.append(
                f"static analysis infers {cls}.{field} is guarded by "
                f"{guard!r} but the runtime candidate lockset is "
                f"{sorted(lockset)} — the witnessed accesses never hold it")
    return sorted(discrepancies)


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
