"""Wait clocks (DB2 accounting class-3 analogue) and their reading side."""

import threading
from collections import Counter

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.stats import WAITS, StatsRegistry, wait_breakdown, wait_counter
from repro.errors import LockTimeoutError
from repro.obs.report import format_breakdown, wait_profile
from repro.rdb.locks import LockMode
from repro.rdb.txn import TransactionManager, accounting_records
from repro.serve.server import DatabaseServer


@pytest.fixture
def stats():
    return StatsRegistry()


class TestChargeWait:
    def test_charge_lands_in_the_class_counter(self, stats):
        stats.charge_wait("lock.wait", 250)
        assert stats.get("waits.lock_wait_us") == 250
        assert stats.get(wait_counter("lock.wait")) == 250

    def test_zero_and_negative_charges_are_dropped(self, stats):
        stats.charge_wait("lock.wait", 0)
        stats.charge_wait("lock.wait", -5)
        assert stats.counters().get("waits.lock_wait_us", 0) == 0

    def test_wait_timer_charges_wall_clock(self, stats):
        import time
        with stats.wait_timer("buffer.read_io"):
            time.sleep(0.002)
        assert stats.get("waits.buffer_read_io_us") >= 1000

    def test_every_wait_class_has_a_registered_counter(self, stats):
        from repro.core.stats import METRICS
        for wait_class in WAITS:
            assert wait_counter(wait_class) in METRICS


class TestRequestClock:
    """A wait clock is any charge sink: ``stats.charge(Counter())``, the
    sink the serving layer opens per request."""

    def test_charges_fold_into_the_open_clock(self, stats):
        waits = Counter()
        with stats.charge(waits):
            stats.charge_wait("lock.wait", 100)
            stats.charge_wait("lock.wait", 50)
            stats.charge_wait("buffer.read_io", 10)
        assert wait_breakdown(waits) == {"lock.wait": 150,
                                         "buffer.read_io": 10}

    def test_nested_clocks_both_see_inner_charges(self, stats):
        outer, inner = Counter(), Counter()
        with stats.charge(outer):
            stats.charge_wait("admission.queue", 40)
            with stats.charge(inner):
                stats.charge_wait("lock.wait", 7)
        assert wait_breakdown(inner) == {"lock.wait": 7}
        assert wait_breakdown(outer) == {"admission.queue": 40,
                                         "lock.wait": 7}

    def test_clock_is_thread_local(self, stats):
        seen = {}

        def other():
            theirs = Counter()
            with stats.charge(theirs):
                seen["other"] = wait_breakdown(theirs)

        waits = Counter()
        with stats.charge(waits):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            stats.charge_wait("lock.wait", 9)
        assert wait_breakdown(waits) == {"lock.wait": 9}
        assert seen["other"] == {}

    def test_honest_charges_reconcile(self, stats):
        import time
        started = time.monotonic_ns()
        waits = Counter()
        with stats.charge(waits):
            with stats.wait_timer("lock.wait"):
                time.sleep(0.001)
        elapsed_us = (time.monotonic_ns() - started) // 1000
        assert 1000 <= sum(wait_breakdown(waits).values()) <= elapsed_us

    def test_lock_wait_charges_each_yield_once(self, stats):
        import time
        manager = TransactionManager(stats=stats, lock_wait_budget=8)
        assert manager.begin().try_lock("r", LockMode.X)
        blocked = manager.begin()
        manager.lock_wait_yield = lambda: time.sleep(0.002)
        started = time.monotonic_ns()
        waits = Counter()
        with stats.charge(waits):
            with pytest.raises(LockTimeoutError):
                blocked.lock("r", LockMode.X)
        elapsed_us = (time.monotonic_ns() - started) // 1000
        # Four yields of 2 ms: a doubled charge would not fit.
        assert 8000 <= wait_breakdown(waits)["lock.wait"] <= elapsed_us


class TestReadingSide:
    def test_order_covers_the_registry(self):
        # WAITS is the registry and the rendering order in one: every class
        # appears once, and breakdowns list classes in exactly that order.
        assert len(set(WAITS)) == len(WAITS)
        every = {wait_counter(wait_class): 1 for wait_class in WAITS}
        assert tuple(wait_breakdown(dict(reversed(every.items())))) == WAITS

    def test_breakdown_folds_counters(self, stats):
        stats.charge_wait("lock.wait", 120)
        stats.charge_wait("buffer.read_io", 30)
        by_class = wait_breakdown(stats.counters())
        assert by_class == {"lock.wait": 120, "buffer.read_io": 30}
        assert sum(by_class.values()) == 150

    def test_format_breakdown_mentions_each_class(self, stats):
        stats.charge_wait("lock.wait", 120)
        text = "\n".join(format_breakdown({"lock.wait": 120}))
        assert "lock.wait" in text and "120" in text

    def test_profile_shape(self):
        db = Database(EngineConfig())
        with DatabaseServer(db) as server:
            server.call(None, lambda eng: eng.stats.charge_wait(
                "lock.wait", 80), "c0-op0", None)
        profile = wait_profile(db.stats)
        # The served request also waited in the admission queue and on
        # the engine latch, for however long that took.
        assert profile["by_class"]["lock.wait"] == 80
        assert profile["total_us"] == sum(profile["by_class"].values())
        assert profile["request_wait"]["count"] == 1
        assert profile["request_wait"]["max_us"] >= 80
        db.close()


class TestTxnAccountingWaits:
    def test_txn_wait_breakdown_reaches_accounting(self):
        db = Database(EngineConfig())
        db.create_table("t", [("id", "bigint"), ("doc", "xml")])
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", (1, "<a><b>x</b></a>"), txn_id=txn.txn_id))
        record = accounting_records(db.stats)[-1]
        assert record.wait_us == sum(record.waits.values())
        as_dict = record.to_dict()
        assert as_dict["wait_us"] == record.wait_us
        assert as_dict["waits"] == dict(record.waits)
        # Whatever was charged is a subset of the registered classes.
        assert set(record.waits) <= set(WAITS)
        db.close()
