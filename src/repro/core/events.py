"""The engine's event ring: one bounded record of finished work.

DB2 for z/OS instrumentation runs on *trace classes*; this module is that
facility, and the only place the engine keeps records.  Every
:class:`~repro.core.stats.StatsRegistry` carries one :class:`EventTrace`
(``stats.events``) from construction, so emit sites never ask whether
tracing is on.  Records go into one ``deque(maxlen=...)``: ``append`` is
atomic under the GIL, so emitting takes no lock, and the oldest records
fall off once the ring is full.  The classes:

* ``ACCOUNTING`` (IFCID 3, on by default): one record per unit of work —
  ``txn.accounting``, ``serve.request``, ``db.slow_query``;
* ``STATISTICS`` (IFCID 2): ``stats.interval`` counter deltas from a
  :class:`~repro.obs.events.StatsCollector`;
* ``PERFORMANCE``: suspensions (``wait.<class>``), injected faults
  (``fault.<kind>``) and load shedding (``serve.shed``).

An emit for a disabled class costs one frozenset membership test.  For a
bigger ring or more classes, install ``EventTrace(ring_size=...,
classes=...)``.  :meth:`EventTrace.context` stamps records with the request
label / txn id the emitting thread is working for, so an exported ring can
be regrouped per request (``python -m repro.obs.perf``).
"""

from __future__ import annotations

import enum
import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


class EventClass(enum.Enum):
    """DB2-style trace classes; members compare by identity, export by value."""

    ACCOUNTING = "accounting"
    STATISTICS = "statistics"
    PERFORMANCE = "performance"


#: Every trace class (a fully-on trace).
ALL_CLASSES: frozenset[EventClass] = frozenset(EventClass)


@dataclass(slots=True)
class EventRecord:
    """One structured trace event (the IFCID-record analogue).

    ``ts_ns`` is ``time.monotonic_ns()`` — ordering within a process, not
    wall-clock time.  ``request``/``txn_id`` come from explicit arguments
    or the emitting thread's ambient :meth:`EventTrace.context`.  Records
    are shared with every reader of the ring: treat them as read-only.
    """

    event_id: int
    name: str
    event_class: str
    ts_ns: int
    thread: str
    request: str | None = None
    txn_id: int | None = None
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe rendering (JSONL export)."""
        out: dict[str, Any] = {
            "id": self.event_id,
            "name": self.name,
            "class": self.event_class,
            "ts_ns": self.ts_ns,
            "thread": self.thread,
        }
        if self.request is not None:
            out["request"] = self.request
        if self.txn_id is not None:
            out["txn_id"] = self.txn_id
        if self.payload:
            out["payload"] = jsonable(self.payload)
        return out


def jsonable(value: object) -> Any:
    """``value`` made JSON-safe: containers recursively, bytes as hex,
    objects through their ``to_dict()`` (a slow query's span tree), anything
    else as ``str``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return str(value)


class EventTrace:
    """One bounded event ring with class-gated emission.

    Once ``ring_size`` records are held, each new one pushes out the
    oldest.  ``classes`` is the enabled set — by default only ACCOUNTING,
    the records the engine's own views read.
    """

    def __init__(self, ring_size: int = 256,
                 classes: Iterable[EventClass] = (EventClass.ACCOUNTING,)
                 ) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.ring_size = int(ring_size)
        self.enabled: frozenset[EventClass] = frozenset(classes)
        self._ids = itertools.count(1)
        self._ring: deque[EventRecord] = deque(maxlen=self.ring_size)
        self._local = threading.local()

    # -- emission ---------------------------------------------------------

    def emit(self, event_class: EventClass, name: str, *,
             request: str | None = None, txn_id: int | None = None,
             **payload: Any) -> EventRecord | None:
        """Append one record to the ring (if its class is enabled)."""
        if event_class not in self.enabled:
            return None
        ctx: dict[str, Any] | None = getattr(self._local, "ctx", None)
        if ctx is not None:
            if request is None:
                request = ctx.get("request")
            if txn_id is None:
                txn_id = ctx.get("txn_id")
        record = EventRecord(next(self._ids), name, event_class.value,
                             time.monotonic_ns(),
                             threading.current_thread().name,
                             request, txn_id, payload)
        self._ring.append(record)
        return record

    def accounting(self, name: str, **kwargs: Any) -> EventRecord | None:
        """Emit an ACCOUNTING record (unit-of-work completion)."""
        return self.emit(EventClass.ACCOUNTING, name, **kwargs)

    def statistics(self, name: str, **kwargs: Any) -> EventRecord | None:
        """Emit a STATISTICS record (interval deltas)."""
        return self.emit(EventClass.STATISTICS, name, **kwargs)

    def performance(self, name: str, **kwargs: Any) -> EventRecord | None:
        """Emit a PERFORMANCE record (suspension / fault)."""
        return self.emit(EventClass.PERFORMANCE, name, **kwargs)

    @contextmanager
    def context(self, *, request: str | None = None,
                txn_id: int | None = None) -> Iterator[None]:
        """Stamp records emitted by this thread inside the block.

        Contexts nest and merge: an inner txn context inherits the outer
        request label unless it overrides it.
        """
        previous: dict[str, Any] | None = getattr(self._local, "ctx", None)
        merged = dict(previous) if previous else {}
        if request is not None:
            merged["request"] = request
        if txn_id is not None:
            merged["txn_id"] = txn_id
        self._local.ctx = merged
        try:
            yield
        finally:
            self._local.ctx = previous

    # -- installation -----------------------------------------------------

    def install(self, stats: Any) -> "EventTrace":
        """Make this the ring of ``stats`` (``stats.events``)."""
        stats.events = self
        return self

    @contextmanager
    def installed(self, stats: Any) -> Iterator["EventTrace"]:
        """Install for the duration of the block, then restore the ring
        that was installed before."""
        previous = stats.events
        stats.events = self
        try:
            yield self
        finally:
            stats.events = previous

    # -- drain / export ---------------------------------------------------

    def records(self, name: str | None = None) -> list[EventRecord]:
        """Retained records, oldest first (only those named ``name``)."""
        while True:
            try:
                records = list(self._ring)
            except RuntimeError:  # an append landed mid-copy: copy again
                continue
            if name is None:
                return records
            return [record for record in records if record.name == name]

    def last(self, n: int) -> list[EventRecord]:
        """The newest ``n`` retained records (crash post-mortem dumps)."""
        records = self.records()
        return records[-n:] if n > 0 else []

    @property
    def dropped(self) -> int:
        """Records pushed out of the full ring since construction."""
        records = self.records()
        if not records:
            return 0
        return max(record.event_id for record in records) - len(records)

    def write_jsonl(self, path: str) -> int:
        """Export the retained records as JSON lines; returns the count."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict(),
                                        sort_keys=True) + "\n")
        return len(records)


__all__ = ["ALL_CLASSES", "EventClass", "EventRecord", "EventTrace",
           "jsonable"]
