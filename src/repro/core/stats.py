"""Engine instrumentation counters.

The paper's infrastructure box (Fig. 1) includes "instrumentation"; in this
reproduction every layer reports into a shared :class:`StatsRegistry` so that
experiments can measure page I/O, index traffic, lock waits and logged bytes
instead of (noisy) wall-clock time.  All counters are plain integers and the
registry is cheap enough to leave enabled permanently.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.core.events import EventTrace


#: The metric registry: every counter and gauge name engine code reports.
#:
#: Counters are created on first use, so a typo'd name would silently split
#: a metric in two; this frozenset is the single registration point the
#: ``stats-hygiene`` checker of :mod:`repro.analyze` verifies every literal
#: ``add``/``set_high_water`` call site against.  Names follow the
#: ``component.metric`` convention (lowercase dotted, >= 2 segments).
METRICS: frozenset[str] = frozenset({
    # physical device
    "disk.page_reads", "disk.page_writes", "disk.checksum_failures",
    # buffer pool
    "buffer.hits", "buffer.misses", "buffer.evictions", "buffer.flushes",
    # B+tree index manager
    "btree.searches", "btree.inserts", "btree.deletes",
    "btree.entries_scanned",
    # table spaces
    "ts.records_read", "ts.records_inserted", "ts.records_updated",
    "ts.records_deleted", "ts.bytes_touched",
    # write-ahead log and recovery
    "wal.records", "wal.bytes", "wal.checkpoints",
    "recovery.torn_tail_dropped",
    # lock manager
    "lock.acquired", "lock.waits", "lock.wait_steps", "lock.deadlocks",
    "lock.prefix_tests",
    # transactions
    "txn.begun", "txn.aborts", "txn.retries", "txn.deadlocks",
    "txn.deadlock_aborts", "txn.lock_timeouts",
    "txn.retry_backoff_us", "txn.deadline_exceeded",
    # fault injection
    "fault.injected", "fault.crashes",
    # query executor
    "exec.docs_evaluated", "exec.index_probes", "exec.candidates",
    "exec.anchors_verified", "exec.exactness_misses",
    # XPath evaluation engines
    "xscan.events", "xscan.matchings", "xscan.peak_units",
    "automaton.peak_instances",
    "domeval.node_visits", "domeval.tree_nodes",
    # the engine's query cache (Database.compile_xpath)
    "xpath.parse_hits", "xpath.parse_misses",
    # wait-state accounting (DB2 class-3 suspension analogue): microseconds
    # suspended per wait class.  Derived from :data:`WAITS` via
    # :func:`wait_counter`; both sides are listed so the registries stay
    # greppable and the exporters see them like any other counter.
    "waits.admission_queue_us", "waits.lock_wait_us", "waits.latch_wait_us",
    "waits.buffer_read_io_us", "waits.buffer_write_io_us",
    "waits.txn_retry_backoff_us", "waits.deadline_sleep_us",
    # records emitted to the event ring (accounting / slow-query views)
    "obs.slow_queries", "obs.accounting_records",
    # serving layer (repro.serve): admission, sessions, outcomes
    "serve.requests", "serve.admitted", "serve.completed", "serve.failed",
    "serve.shed_queue_full", "serve.shed_closed", "serve.deadline_expired",
    "serve.sessions_opened", "serve.sessions_closed",
    "serve.chaos_faults",
})


#: The histogram registry: every distribution metric engine code observes.
#:
#: Histograms are the ``stats.observe(name, value)`` side of the facility —
#: power-of-two bucketed distributions with count/sum/max, for the hot-path
#: quantities where a mean hides the tail (one query scanning 40k index
#: entries).  Like :data:`METRICS`, this is the single registration point;
#: the ``stats-hygiene`` checker (STAT003) verifies every literal
#: ``observe`` call site against it.
HISTOGRAMS: frozenset[str] = frozenset({
    # B+tree: index entries scanned per search/probe
    "btree.search_entries",
    # QuickXScan: events consumed and peak live matching units per document
    "xscan.doc_events", "xscan.doc_peak_units",
    # lock manager: simulated wait steps per interactive lock acquire
    "lock.acquire_wait_steps",
    # write-ahead log: encoded bytes per hardened record
    "wal.record_bytes",
    # buffer pool: pool accesses a frame stayed resident before eviction
    "buffer.eviction_residency",
    # serving layer: admission-queue wait and end-to-end request latency
    # (microseconds; p50/p99 for the load-harness report come from here)
    "serve.queue_wait_us", "serve.request_us",
    # wait clock: total suspension time per served request (all classes),
    # observed by the serving layer; the per-class split lives in the
    # ``waits.*_us`` counters
    "waits.request_wait_us",
})


#: The wait-class registry: every named suspension class engine code may
#: charge time against — the reproduction's analogue of DB2 accounting
#: class-3 suspension categories (lock/latch wait, log write I/O, sync
#: database I/O, ...).  Each class ``c`` owns the counter
#: ``wait_counter(c)`` of microseconds suspended; the ``stats-hygiene``
#: checker (STAT004) verifies every literal ``wait_timer``/``charge_wait``
#: call site against this registry and that every blocking sleep site
#: charges *some* registered class.  The order is the rendering order of
#: every wait breakdown: biggest architectural layers first.
WAITS: tuple[str, ...] = (
    # serving layer: waiting for a concurrency token before the request
    # runs
    "admission.queue",
    # engine latch: blocked acquiring ``db.latch`` before running work
    "latch.wait",
    # lock manager: suspended in a lock-wait retry loop
    "lock.wait",
    # buffer pool: reading a page from the device on miss
    "buffer.read_io",
    # buffer pool: writing a dirty page out (flush or eviction writeback)
    "buffer.write_io",
    # victim-retry backoff sleep between transaction attempts
    "txn.retry_backoff",
    # deadline-bounded timer sleeps (client retry backoff in the harness)
    "deadline.sleep",
)


def wait_counter(wait_class: str) -> str:
    """Counter name charged for ``wait_class`` (microseconds suspended)."""
    return "waits." + wait_class.replace(".", "_") + "_us"


#: ``(wait class, counter name)`` pairs in :data:`WAITS` order.
_WAIT_COUNTERS = tuple((wait_class, wait_counter(wait_class))
                       for wait_class in WAITS)


def wait_breakdown(counters: Mapping[str, int]) -> dict[str, int]:
    """Per-class microseconds from a counters mapping (non-zero only).

    Accepts any charge sink or counters dict — the global
    ``StatsRegistry.counters()``, a per-transaction accounting record's
    ``counters`` or an open wait clock — since all charge waits through
    the same ``waits.<class>_us`` names.  Classes come out in
    :data:`WAITS` order.
    """
    out: dict[str, int] = {}
    for wait_class, name in _WAIT_COUNTERS:
        micros = counters.get(name, 0)
        if micros:
            out[wait_class] = micros
    return out


class Histogram:
    """A power-of-two bucketed distribution with count/sum/max.

    Bucket ``i`` counts observations ``v`` with ``v <= 2**i`` and
    ``v > 2**(i-1)`` (bucket 0 holds everything ``<= 1``, including zero),
    so the full distribution costs one integer per occupied power of two —
    cheap enough to leave enabled on every hot path, yet enough to tell a
    query that scanned 40k index entries from the median that scanned 12.
    """

    __slots__ = ("count", "sum", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.max = 0
        self._buckets: Counter[int] = Counter()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`as_dict` rendering."""
        histogram = cls()
        histogram.count = int(data.get("count", 0))
        histogram.sum = int(data.get("sum", 0))
        histogram.max = int(data.get("max", 0))
        for bound, count in data.get("buckets", []):
            histogram._buckets[int(bound).bit_length() - 1] = int(count)
        return histogram

    def observe(self, value: int) -> None:
        """Record one observation (values are clamped at zero)."""
        v = int(value)
        if v < 0:
            v = 0
        self.count += 1
        self.sum += v
        if v > self.max:
            self.max = v
        self._buckets[(v - 1).bit_length() if v > 0 else 0] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> list[tuple[int, int]]:
        """Sorted ``(upper_bound, count)`` pairs for occupied buckets."""
        return [(1 << index, self._buckets[index])
                for index in sorted(self._buckets)]

    def cumulative_buckets(self) -> list[tuple[int, int]]:
        """``(upper_bound, cumulative_count)`` pairs for occupied buckets."""
        out: list[tuple[int, int]] = []
        running = 0
        for bound, count in self.buckets():
            running += count
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> int:
        """Upper bound of the bucket holding the ``q``-quantile (0 empty)."""
        if not self.count:
            return 0
        rank = q * self.count
        for bound, cumulative in self.cumulative_buckets():
            if cumulative >= rank:
                return bound
        return self.max  # pragma: no cover - cumulative covers count

    def as_dict(self) -> dict[str, object]:
        """JSON-safe rendering (exporters and artifacts)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "buckets": [[bound, count] for bound, count in self.buckets()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(count={self.count}, sum={self.sum}, "
                f"max={self.max})")


class _Sinks(threading.local):
    """The calling thread's stack of open charge sinks, outermost first."""

    def __init__(self) -> None:
        self.stack: list[Counter[str]] = []


class StatsRegistry:
    """A named bag of monotonically increasing counters.

    Counters are created on first use, so layers do not need to pre-declare
    what they report.  Every name engine code reports is registered in
    :data:`METRICS` (the ``stats-hygiene`` checker enforces it), grouped by
    component there.

    A registry can additionally carry a :class:`~repro.obs.tracer.Tracer`
    (``stats.tracer``); components open spans through :meth:`trace`, a
    reusable no-op while no tracer is installed, so permanent
    instrumentation stays ~free.  Every registry
    also carries its event ring (``stats.events``, a
    :class:`~repro.core.events.EventTrace`), where finished units of work
    are recorded.

    The registry is **thread-safe**: counter/gauge/histogram mutation is
    guarded by one internal lock (a read-modify-write on a shared Counter
    is not atomic).  Almost every :meth:`add` already runs under the
    engine latch; the lock is for the ``serve.*`` counters charged on
    client threads, which do not hold it.  Whole-map
    reads (:meth:`counters`, :meth:`gauges`, :meth:`histograms`,
    :meth:`reset`) copy under it.

    Attribution has one rule: every :meth:`add` lands in the global bag
    and in every sink open on the *calling thread* (see :meth:`charge`).
    A transaction's accounting, a served request's wait clock (the sink
    the serving layer opens per request) and a tracer span are all such
    sinks, so a served request's thread charges only the work it runs,
    concurrently with the others.  This is what keeps the "per-txn deltas
    sum to global deltas" reconciliation invariant true under concurrent
    sessions.
    """

    #: What ``_lock`` guards (read by ``python -m repro.analyze``).
    GUARDED_BY = {"_lock": ("_counters", "_gauges", "_histograms")}

    def __init__(self) -> None:
        self._counters: Counter[str] = Counter()
        self._gauges: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Installed tracer (see :class:`repro.obs.tracer.Tracer`), or None.
        #: Duck-typed (``Any``) so the substrate never imports ``repro.obs``.
        self.tracer: Any = None
        #: The event ring every finished unit of work is recorded in;
        #: replace it (:meth:`EventTrace.install`) for a bigger ring.
        self.events = EventTrace()
        #: The lock guarding the shared maps above.
        self._lock = threading.Lock()
        #: Per-thread stack of open charge sinks — see :meth:`charge`.
        self._sinks = _Sinks()

    def add(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount``.

        The increment is mirrored into every sink open on the calling
        thread (see :meth:`charge`): the transaction it is running, its
        request's wait clock, and any open tracer span.
        """
        sinks = self._sinks.stack
        with self._lock:
            self._counters[name] += amount
            for sink in sinks:
                # Not ``+=``: most sinks are fresh per request or txn, and
                # a missing key would call ``Counter.__missing__``.
                sink[name] = sink.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never touched)."""
        return self._counters.get(name, 0)

    def set_high_water(self, name: str, value: int) -> None:
        """Record ``value`` into gauge ``name`` if it exceeds the old mark."""
        with self._lock:
            if value > self._gauges.get(name, 0):
                self._gauges[name] = value

    def gauge(self, name: str) -> int:
        """Current high-water mark of gauge ``name`` (0 if never set)."""
        with self._lock:
            return self._gauges.get(name, 0)

    def gauges(self) -> dict[str, int]:
        """All gauges (high-water marks) as a plain dict."""
        with self._lock:
            return dict(self._gauges)

    def observe(self, name: str, value: int) -> None:
        """Record ``value`` into histogram ``name`` (created on first use).

        Histogram names must be registered in :data:`HISTOGRAMS` — the
        ``stats-hygiene`` checker (STAT003) enforces it, exactly as
        STAT002 does for counters.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        """Histogram ``name``, or None if never observed."""
        return self._histograms.get(name)

    def histograms(self) -> dict[str, Histogram]:
        """All histograms keyed by name."""
        with self._lock:
            return dict(self._histograms)

    def reset(self) -> None:
        """Zero every counter, gauge and histogram."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def counters(self) -> dict[str, int]:
        """All counters (no gauges) as a plain dict."""
        with self._lock:
            return dict(self._counters)

    # -- tracing hooks ----------------------------------------------------

    def trace(self, name: str, **attrs: object) -> Any:
        """A span context manager if a tracer is installed, else a no-op.

        The block receives the open :class:`~repro.obs.tracer.Span` (or
        ``None`` when untraced)::

            with stats.trace("btree.search", index=self.name) as span:
                ...
                if span is not None:
                    span.set("hits", len(out))
        """
        tracer = self.tracer
        if tracer is None:
            return _NULL_TRACE
        return tracer.span(name, **attrs)

    # -- wait-state accounting (DB2 class-3 suspension analogue) ----------

    def charge_wait(self, wait_class: str, micros: int) -> None:
        """Charge ``micros`` of suspension time to ``wait_class``.

        The charge is one :meth:`add` of the ``waits.<class>_us`` counter,
        so it lands in every sink open on this thread: the running
        transaction's per-txn breakdown (which is what makes wait fields
        fold across victim retries for free) and, on a served request's
        thread, the request's own sink, whose breakdown is what the
        request's ``serve.request`` record carries.  Zero-microsecond
        waits are dropped: a suspension that never suspended is not a
        wait, and recording it would materialize noise counters in
        deterministic baselines.
        """
        if micros > 0:
            self.add(wait_counter(wait_class), int(micros))

    @contextmanager
    def wait_timer(self, wait_class: str) -> Iterator[None]:
        """Charge the wall-clock duration of the block to ``wait_class``.

        Every blocking suspension point in the engine wraps its sleep/IO
        in one of these (the ``stats-hygiene`` STAT004 checker enforces
        it), so per-request elapsed time decomposes as
        ``elapsed = cpuish + Σ waits``.  Timed regions must not nest —
        each suspension belongs to exactly one class, otherwise the
        Σ waits ≤ elapsed reconciliation would double-count.
        """
        started = time.monotonic_ns()
        try:
            yield
        finally:
            self.charge_wait(
                wait_class, (time.monotonic_ns() - started) // 1000)

    @contextmanager
    def charge(self, sink: Counter[str]) -> Iterator[None]:
        """Attribute counter increments inside the block to ``sink``.

        ``sink`` joins the calling thread's stack of open sinks, and every
        :meth:`add` on this thread mirrors into each of them as well as
        the global bag — the one attribution rule behind per-transaction
        accounting (:mod:`repro.rdb.txn`), a served request's wait clock
        (:mod:`repro.serve.server`) and tracer spans; it is also how a
        caller measures a block of its own work
        (``with stats.charge(sink := Counter()): ...``).  Sinks stack: an
        outer sink sees the work of every sink opened inside it.  Opening
        a sink that is already open on this thread is a no-op, so
        re-entering a transaction's charge (``commit()`` inside
        ``run_in_txn``'s charged body) cannot double-count; sinks compare
        by identity, because two empty ``Counter`` objects are equal.

        The stack is **thread-local**: each served request's thread
        charges only the work it runs, so concurrent sessions cannot
        cross-attribute work.
        """
        stack = self._sinks.stack
        for open_sink in stack:
            if open_sink is sink:
                yield
                return
        stack.append(sink)
        try:
            yield
        finally:
            stack.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"StatsRegistry({body})"


class _NullTrace:
    """Reusable, reentrant no-op span context (the untraced fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TRACE = _NullTrace()


#: Registry used by components that are not handed an explicit one.
GLOBAL_STATS = StatsRegistry()


def default_stats(stats: StatsRegistry | None = None) -> StatsRegistry:
    """Resolve an optional stats argument to a concrete registry.

    This is the **single sanctioned fallback** to :data:`GLOBAL_STATS`:
    constructors that accept ``stats=None`` call this instead of reading
    the module global themselves.  Engine components are handed the
    ``Database``'s registry explicitly; the global is for scaffolding and
    tests.
    """
    return stats if stats is not None else GLOBAL_STATS
