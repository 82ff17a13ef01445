"""Outside the engine's event ring (:mod:`repro.core.events`): loading an
exported ring back for ``python -m repro.obs.perf``, and the
STATISTICS-interval producer."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.core.events import EventTrace
from repro.core.stats import StatsRegistry, counter_deltas


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Load a JSONL trace export (blank lines tolerated)."""
    out: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


class StatsCollector:
    """Interval thread emitting STATISTICS delta records (IFCID 2 analogue).

    Every ``interval`` seconds the collector diffs the registry's counters
    and histograms against its previous snapshot and emits one
    ``stats.interval`` record carrying the non-zero counter deltas and
    per-histogram ``(count, sum)`` deltas.  A final record is emitted on
    :meth:`stop` so short runs still get at least one interval.  The
    ``trace`` needs the STATISTICS class enabled to keep them.
    """

    def __init__(self, stats: StatsRegistry, trace: EventTrace,
                 interval: float = 0.05) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.stats = stats
        self.trace = trace
        self.interval = float(interval)
        self.intervals = 0
        self._last_counters: dict[str, int] = {}
        self._last_histograms: dict[str, tuple[int, int]] = {}
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None

    def _collect(self) -> None:
        counters = self.stats.counters()
        histograms = {
            name: (histogram.count, histogram.sum)
            for name, histogram in self.stats.histograms().items()}
        histogram_deltas = {
            name: {"count": count - self._last_histograms.get(name, (0, 0))[0],
                   "sum": total - self._last_histograms.get(name, (0, 0))[1]}
            for name, (count, total) in histograms.items()
            if (count, total) != self._last_histograms.get(name, (0, 0))}
        counter_delta = counter_deltas(self._last_counters, counters)
        self._last_counters = counters
        self._last_histograms = histograms
        self.intervals += 1
        self.trace.statistics(
            "stats.interval", interval=self.intervals,
            counters=counter_delta, histograms=histogram_deltas)

    def _run(self) -> None:
        while not self._wake.wait(self.interval):
            self._collect()

    def start(self) -> "StatsCollector":
        """Start the interval thread (idempotent)."""
        if self._thread is None:
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._run, name="stats-collector", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and emit one final delta record."""
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        self._wake.set()
        thread.join()
        self._collect()

    @contextmanager
    def running(self) -> Iterator["StatsCollector"]:
        """Run the collector for the duration of the block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()


__all__ = ["StatsCollector", "read_jsonl"]
