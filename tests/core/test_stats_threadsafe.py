"""Thread-safety of the stats registry and accounting under concurrency.

The serving layer finishes transactions on multiple worker threads at
once.  The registry's charge sink is thread-local (each thread charges
only its own transaction) and all map mutation is lock-guarded, so the
PR 4 invariant survives concurrency: per-transaction deltas sum to (at
most) the global deltas — never more, which would mean double
attribution.  The event ring the records land in takes no lock at all:
one ``deque.append`` per record, atomic under the GIL.
"""

import sys
import threading
from collections import Counter

from repro.core.events import EventTrace
from repro.core.stats import StatsRegistry
from repro.rdb.txn import TransactionManager, accounting_records


class TestConcurrentCharging:
    def test_thread_local_sinks_attribute_exactly_once(self):
        stats = StatsRegistry()
        threads, sinks = [], []
        increments_per_thread = 2_000

        def worker(sink):
            with stats.charge(sink):
                for _ in range(increments_per_thread):
                    stats.add("ts.records_read")

        for _ in range(8):
            sink = Counter()
            sinks.append(sink)
            threads.append(threading.Thread(target=worker, args=(sink,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = 8 * increments_per_thread
        # No lost global increments, and every thread's sink saw exactly
        # its own work — the sum reconciles with the global counter.
        assert stats.get("ts.records_read") == total
        assert all(s["ts.records_read"] == increments_per_thread
                   for s in sinks)
        assert sum(s["ts.records_read"] for s in sinks) == total

    def test_concurrent_histograms_and_gauges(self):
        stats = StatsRegistry()

        def worker(base):
            for value in range(500):
                stats.observe("serve.request_us", base + value)
                stats.set_high_water("xscan.peak_units", base + value)

        threads = [threading.Thread(target=worker, args=(i * 1000,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        hist = stats.histogram("serve.request_us")
        assert hist.count == 3000
        assert stats.gauge("xscan.peak_units") == 5499


class TestEventRingThreadSafety:
    def test_concurrent_emits_lose_nothing(self):
        trace = EventTrace(ring_size=10_000)
        seen = []

        def emitter(thread_id):
            for index in range(500):
                trace.emit("txn.accounting",
                           txn_id=thread_id * 1_000 + index)
                if index % 50 == 0:
                    seen.append(len(trace.records()))  # reads race emits

        threads = [threading.Thread(target=emitter, args=(t,))
                   for t in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        records = trace.records()
        # No record is lost or duplicated by the unlocked appends, ids are
        # unique, and concurrent readers always saw a consistent copy.
        assert len(records) == 3_000
        assert len({r.txn_id for r in records}) == 3_000
        assert sorted(r.event_id for r in records) == list(range(1, 3_001))
        assert trace.dropped == 0
        assert all(0 < count <= 3_000 for count in seen)


class TestManagerAccounting:
    def test_manager_records_reconcile_after_concurrent_txns(self):
        stats = StatsRegistry()
        EventTrace(ring_size=4096).install(stats)
        manager = TransactionManager(stats=stats)
        # Stands in for the engine latch, the lock table's only guard.
        lock = threading.Lock()

        def worker():
            for _ in range(50):
                with lock:
                    txn = manager.begin()
                with txn.charging():
                    stats.add("ts.records_inserted")
                with lock:
                    txn.commit()

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = accounting_records(stats)
        charged = sum(r.counters.get("ts.records_inserted", 0)
                      for r in records)
        assert charged == stats.get("ts.records_inserted") == 300
