"""The engine's event ring: one bounded record of finished work.

This is the reproduction's DB2 accounting trace, and the only place the
engine keeps records.  Every :class:`~repro.core.stats.StatsRegistry`
carries one :class:`EventTrace` (``stats.events``) from construction, so
emit sites never ask whether tracing is on.  Records go into one
``deque(maxlen=...)``: ``append`` is atomic under the GIL, so emitting
takes no lock, and the oldest records fall off once the ring is full.
Four producers write into it:

* ``txn.accounting`` — one record per finished transaction (IFCID 3);
* ``serve.request`` — one per served request, carrying its wait clock;
* ``db.slow_query`` — one per query over a slow-query threshold, carrying
  its :class:`~repro.obs.explain.ExplainResult` (plan, span tree and the
  thresholds exceeded, no result rows);
* ``fault.<kind>`` — one per injected fault (the crash flight recorder).

For a bigger ring, install ``EventTrace(ring_size=...)``.  A JSONL export
(:meth:`EventTrace.write_jsonl`) is read by ``python -m repro.obs.report``.
:meth:`EventTrace.context` stamps records with the label of the served
request the emitting thread is working for, which ties a transaction's
record to the request that ran it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(slots=True)
class EventRecord:
    """One structured trace event (the IFCID-record analogue).

    ``ts_ns`` is ``time.monotonic_ns()`` — ordering within a process, not
    wall-clock time.  ``txn_id`` is an explicit argument; ``request`` is
    one too, or else the emitting thread's :meth:`EventTrace.context`.
    Records are shared with every reader of the ring: treat them as
    read-only.
    """

    event_id: int
    name: str
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
    objects through their ``to_dict()`` (a captured slow query), anything
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
    """One bounded event ring.

    Once ``ring_size`` records are held, each new one pushes out the
    oldest.
    """

    def __init__(self, ring_size: int = 256) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self.ring_size = int(ring_size)
        self._ids = itertools.count(1)
        self._ring: deque[EventRecord] = deque(maxlen=self.ring_size)
        self._local = threading.local()

    # -- emission ---------------------------------------------------------

    def emit(self, name: str, *, request: str | None = None,
             txn_id: int | None = None, **payload: Any) -> None:
        """Append one record to the ring."""
        if request is None:
            request = getattr(self._local, "request", None)
        self._ring.append(EventRecord(next(self._ids), name,
                                      time.monotonic_ns(),
                                      threading.current_thread().name,
                                      request, txn_id, payload))

    @contextmanager
    def context(self, request: str) -> Iterator[None]:
        """Stamp records emitted by this thread inside the block with the
        ``request`` label (unless the emit passes its own); on exit the
        label open before the block applies again."""
        previous: str | None = getattr(self._local, "request", None)
        self._local.request = request
        try:
            yield
        finally:
            self._local.request = previous

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


__all__ = ["EventRecord", "EventTrace", "jsonable"]
