"""Runtime sanitizers: trips, counters, and engine wiring."""

import threading

import pytest

from repro.analyze import sanitize
from repro.cc.scheduler import Do, Lock, Scheduler
from repro.cc.subdocument import PrefixLockTable
from repro.core.engine import Database
from repro.core.stats import METRICS, StatsRegistry
from repro.errors import BufferPoolError, SanitizerError
from repro.rdb.buffer import BufferPool
from repro.rdb.locks import LockManager, LockMode
from repro.rdb.storage import Disk
from repro.rdb.wal import LogManager, LogOp


@pytest.fixture
def armed():
    """Arm the sanitizers for one test (the suite conftest restores state)."""
    sanitize.enable()
    sanitize.reset_witness()
    yield
    sanitize.reset_witness()


@pytest.fixture
def stats():
    return StatsRegistry()


def make_pool(stats, capacity=4):
    return BufferPool(Disk(page_size=256, stats=stats), capacity=capacity)


class TestBufferSanitizers:
    def test_double_unpin_is_counted(self, armed, stats):
        pool = make_pool(stats)
        page_id, _ = pool.new_page()
        pool.unpin(page_id, dirty=True)
        with pytest.raises(BufferPoolError):
            pool.unpin(page_id)
        assert stats.get("sanitize.double_unpin") == 1

    def test_quiesce_probe_sees_pins_from_any_thread(self, armed, stats):
        # Every pool reader runs under the engine latch, so the quiesce
        # probe is global: a pin taken on one thread trips the check on
        # any other.
        pool = make_pool(stats)
        page_id, _ = pool.new_page()  # pinned by this thread
        errors = []

        def probe():
            try:
                sanitize.check_pool_quiesced(pool, stats)
            except SanitizerError as exc:
                errors.append(exc)

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert len(errors) == 1
        assert stats.get("sanitize.pinned_at_txn_end") == 1
        pool.unpin(page_id, dirty=True)
        sanitize.check_pool_quiesced(pool, stats)

    def test_double_unpin_not_counted_when_disarmed(self, stats):
        sanitize.disable()
        pool = make_pool(stats)
        page_id, _ = pool.new_page()
        pool.unpin(page_id)
        with pytest.raises(BufferPoolError):
            pool.unpin(page_id)
        assert stats.get("sanitize.double_unpin") == 0

    def test_quiesce_check_trips_on_pinned_frame(self, armed, stats):
        pool = make_pool(stats)
        page_id, _ = pool.new_page()
        with pytest.raises(SanitizerError, match="still pinned"):
            sanitize.check_pool_quiesced(pool, stats, where="test point")
        # The trip is counted even though it raised.
        assert stats.get("sanitize.pinned_at_txn_end") == 1
        assert stats.get("sanitize.checks") == 1
        pool.unpin(page_id, dirty=True)
        sanitize.check_pool_quiesced(pool, stats, where="test point")
        assert stats.get("sanitize.checks") == 2

    def test_pools_created_while_armed_are_tracked(self, armed, stats):
        sanitize.clear_tracked_pools()
        pool = make_pool(stats)
        assert pool in sanitize.tracked_pools()
        sanitize.clear_tracked_pools()
        assert sanitize.tracked_pools() == []


class TestLockSanitizers:
    def test_unreleased_locks_trip_at_txn_end(self, armed, stats):
        locks = LockManager(stats)
        assert locks.try_acquire(1, ("row", 1), LockMode.X)
        with pytest.raises(SanitizerError, match="still holds"):
            sanitize.check_txn_locks_released(locks, 1, stats)
        assert stats.get("sanitize.locks_at_txn_end") == 1
        locks.release_all(1)
        sanitize.check_txn_locks_released(locks, 1, stats)

    def test_witnessed_inversion_trips(self, armed, stats):
        # txn 1 establishes row -> doc; txn 2 then inverts it.
        sanitize.on_lock_acquired(stats, 1, ("row", 1))
        sanitize.on_lock_acquired(stats, 1, ("doc", 2))
        sanitize.on_locks_released(1)
        sanitize.on_lock_acquired(stats, 2, ("doc", 3))
        with pytest.raises(SanitizerError, match="inversion"):
            sanitize.on_lock_acquired(stats, 2, ("row", 9))
        assert stats.get("sanitize.lock_order") == 1

    def test_reacquiring_same_class_is_not_an_inversion(self, armed, stats):
        sanitize.on_lock_acquired(stats, 1, ("row", 1))
        sanitize.on_lock_acquired(stats, 1, ("doc", 2))
        sanitize.on_lock_acquired(stats, 1, ("row", 5))  # re-entry, no edge
        assert sanitize.witnessed_edges() == {"row": {"doc"}}

    def test_lock_manager_wiring_builds_witness_graph(self, armed, stats):
        locks = LockManager(stats)
        locks.try_acquire(7, ("row", 1), LockMode.S)
        locks.try_acquire(7, ("doc", 2), LockMode.S)
        assert sanitize.witnessed_edges() == {"row": {"doc"}}
        locks.release_all(7)
        sanitize.on_locks_released(7)

class TestSchedulerWitnessCleanup:
    """Scheduler lock backends (PrefixLockTable, protocol adapters) never
    notify the sanitizer, and Do effects may lock through a *different*
    manager than the backend the scheduler releases through — so the
    scheduler itself must drop per-txn witness state on commit and on
    victim abort, or abandoned txn ids accumulate forever."""

    @staticmethod
    def _deadlocking_programs(mgr):
        def make(first, second):
            def body(txn_id):
                # Witness state under this txn id through a wired manager
                # the scheduler's backend knows nothing about.
                yield Do(lambda: mgr.try_acquire(
                    txn_id, ("row", txn_id), LockMode.S))
                yield Lock((1, first), LockMode.X)
                yield Lock((1, second), LockMode.X)
            return body
        return [("ab", make(b"\x01", b"\x02")),
                ("ba", make(b"\x02", b"\x01"))]

    def test_deadlock_restart_does_not_leak_witness_state(self, armed,
                                                          stats):
        table = PrefixLockTable(stats)
        mgr = LockManager(stats)
        result = Scheduler(table, seed=5).run(
            self._deadlocking_programs(mgr), round_robin=True)
        assert result.committed == 2
        assert result.deadlock_aborts >= 1
        # The victim's abandoned txn id and both committed ids must all
        # have been popped — the witness map is empty after quiesce.
        assert sanitize.lock_witness_txns() == []

    def test_commit_pops_witness_state_for_non_wired_backends(self, armed,
                                                              stats):
        table = PrefixLockTable(stats)
        mgr = LockManager(stats)

        def body(txn_id):
            yield Do(lambda: mgr.try_acquire(
                txn_id, ("row", txn_id), LockMode.S))
            yield Lock((1, b"\x01"), LockMode.X)

        result = Scheduler(table, seed=1).run([("solo", body)])
        assert result.committed == 1
        assert sanitize.lock_witness_txns() == []

    def test_disarmed_scheduler_does_not_touch_witness_state(self, stats):
        sanitize.disable()
        table = PrefixLockTable(stats)
        mgr = LockManager(stats)
        result = Scheduler(table, seed=5).run(
            self._deadlocking_programs(mgr), round_robin=True)
        assert result.committed == 2


class TestWalSanitizers:
    def test_lsn_regression_trips(self, armed, stats):
        with pytest.raises(SanitizerError, match="regressed"):
            sanitize.check_lsn_monotonic(stats, last_lsn=5, lsn=5)
        assert stats.get("sanitize.lsn_regression") == 1
        sanitize.check_lsn_monotonic(stats, last_lsn=5, lsn=6)

    def test_appends_are_checked_while_armed(self, armed, stats):
        log = LogManager(stats=stats)
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.COMMIT)
        assert stats.get("sanitize.checks") == 2

    def test_truncate_resets_the_watermark(self, armed, stats):
        log = LogManager(stats=stats)
        log.append(1, LogOp.BEGIN)
        log.truncate()
        log.append(1, LogOp.BEGIN)  # LSNs restart; must not trip


class TestEngineWiring:
    def test_txn_end_quiesce_catches_leaked_pin(self, armed):
        db = Database()
        txn = db.txns.begin()
        page_id, _ = db.pool.new_page()  # leak a pin across the txn
        with pytest.raises(SanitizerError, match="still pinned"):
            txn.commit()
        assert db.stats.get("sanitize.pinned_at_txn_end") == 1
        db.pool.unpin(page_id, dirty=True)

    def test_clean_txn_passes_the_quiesce_check(self, armed):
        db = Database()
        db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
        db.run_in_txn(lambda db_, txn:
                      db_.insert("t", (1, "<a><b/></a>"), txn.txn_id))
        assert db.stats.get("sanitize.checks") >= 1
        assert db.stats.get("sanitize.pinned_at_txn_end") == 0

    def test_close_trips_on_active_txn(self, armed):
        db = Database()
        db.txns.begin()
        with pytest.raises(SanitizerError, match="still active"):
            db.close()
        assert db.stats.get("sanitize.active_txns_at_close") == 1

    def test_context_manager_closes_cleanly(self, armed):
        with Database() as db:
            db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
            db.insert("t", (1, "<a>x</a>"))
        assert db.stats.get("wal.checkpoints") == 1
        db.close()  # idempotent
        assert db.stats.get("wal.checkpoints") == 1

    def test_all_sanitizer_counters_are_registered(self):
        for name in ("sanitize.checks", "sanitize.double_unpin",
                     "sanitize.pinned_at_txn_end",
                     "sanitize.locks_at_txn_end", "sanitize.lock_order",
                     "sanitize.lsn_regression",
                     "sanitize.active_txns_at_close",
                     "sanitize.accounting_overcharge",
                     "sanitize.waits.reconcile"):
            assert name in METRICS
