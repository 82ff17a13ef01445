"""Admission control and overload shedding for the serving layer.

The admission path is DB2 z/OS connection governance in miniature: a fixed
pool of worker threads is the set of *concurrency tokens* (CTHREAD — how
many requests may execute at once), a bounded FIFO queue is the *wait
queue* (queued allied threads), and everything beyond the queue is shed
immediately with :class:`~repro.errors.ServerOverloadedError` instead of
being allowed to pile up.  Shedding at the door keeps the tail bounded: a
request the server cannot start soon is cheaper to reject now — the client
still holds its timeout budget — than to time out after queueing.

On top of the structural bound sits the :class:`OverloadGuard`: a cheap
health check over live engine signals (:meth:`repro.obs.monitor.Monitor.
health`) that starts shedding *before* the queue fills when the engine
itself is the bottleneck — many lock waiters means admitted work would
mostly sit in lock-wait loops, and a collapsed buffer hit ratio means the
working set no longer fits and more concurrency only adds eviction churn.
The verdict is recomputed every ``serve_shed_check_interval`` admissions
and cached in between, so the guard costs one counter bump per request.
"""

from __future__ import annotations

import queue
from typing import TYPE_CHECKING

from repro.analyze import sanitize as _sanitize
from repro.errors import ServerOverloadedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import EngineConfig
    from repro.core.stats import StatsRegistry
    from repro.obs.monitor import Monitor


class OverloadGuard:
    """Cached engine-health verdict driving pre-queue load shedding.

    ``check`` returns ``None`` (healthy) or a human-readable reason to
    shed.  The underlying signals are re-read only every ``interval``-th
    call (guarded by a lock so concurrent submitters cannot double-read);
    thresholds come from ``EngineConfig.serve_shed_*`` and are off by
    default, so a server without explicit shed configuration only sheds on
    queue overflow.
    """

    def __init__(self, monitor: "Monitor", config: "EngineConfig",
                 stats: "StatsRegistry") -> None:
        self._monitor = monitor
        self._stats = stats
        self._max_waiters = config.serve_shed_lock_waiters
        self._min_hit_ratio = config.serve_shed_min_hit_ratio
        self._min_touches = config.serve_shed_min_touches
        self._interval = max(1, config.serve_shed_check_interval)
        self._lock = _sanitize.TrackedLock("guard._lock")
        self._calls = 0
        self._verdict: str | None = None

    def check(self) -> str | None:
        """Current shed reason, re-evaluating health every Nth call."""
        with self._lock:
            if _sanitize.enabled():
                _sanitize.shared_access(self._stats, "OverloadGuard",
                                        "_verdict", write=True)
            self._calls += 1
            if self._calls % self._interval == 1 or self._interval == 1:
                self._verdict = self._evaluate()
            return self._verdict

    def _evaluate(self) -> str | None:
        if self._max_waiters <= 0 and self._min_hit_ratio <= 0:
            return None
        self._stats.add("serve.overload_checks")
        health = self._monitor.health()
        if 0 < self._max_waiters < health["lock_waiters"]:
            return (f"lock table congested: {health['lock_waiters']} "
                    f"waiting transactions (limit {self._max_waiters})")
        if self._min_hit_ratio > 0 and \
                health["buffer_touches"] >= self._min_touches and \
                health["buffer_hit_ratio"] < self._min_hit_ratio:
            return (f"buffer pool thrashing: hit ratio "
                    f"{health['buffer_hit_ratio']:.2%} below "
                    f"{self._min_hit_ratio:.2%}")
        return None


class AdmissionController:
    """Bounded wait queue plus overload guard in front of the worker pool.

    :meth:`admit` either enqueues the request or raises
    :class:`~repro.errors.ServerOverloadedError`; it never blocks the
    caller.  Counters tell the story: every attempt bumps
    ``serve.requests`` and ends in exactly one of ``serve.admitted``,
    ``serve.shed_overload`` (guard verdict) or ``serve.shed_queue_full``.
    """

    def __init__(self, guard: OverloadGuard, queue_limit: int,
                 stats: "StatsRegistry") -> None:
        self.queue: queue.Queue = queue.Queue(maxsize=max(1, queue_limit))
        self.guard = guard
        self._stats = stats

    def admit(self, request: object) -> None:
        """Enqueue ``request`` or shed it (raises, never blocks)."""
        self._stats.add("serve.requests")
        reason = self.guard.check()
        if reason is not None:
            self._stats.add("serve.shed_overload")
            self._stats.events.performance("serve.shed", kind="overload",
                                           reason=reason)
            raise ServerOverloadedError(
                f"request shed before any work started: {reason} — "
                f"safe to retry after backoff")
        try:
            self.queue.put_nowait(request)
        except queue.Full:
            self._stats.add("serve.shed_queue_full")
            self._stats.events.performance(
                "serve.shed", kind="queue_full",
                reason=f"wait queue full ({self.queue.maxsize})")
            raise ServerOverloadedError(
                f"request shed before any work started: wait queue full "
                f"({self.queue.maxsize} waiting) — safe to retry after "
                f"backoff") from None
        self._stats.add("serve.admitted")

    def depth(self) -> int:
        """Approximate number of queued (admitted, unstarted) requests."""
        return self.queue.qsize()
