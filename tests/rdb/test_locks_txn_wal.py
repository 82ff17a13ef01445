"""Tests for the lock manager, transactions, and the write-ahead log."""

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.core.stats import StatsRegistry
from repro.errors import FaultInjectionError, TransactionError
from repro.fault.injector import FaultInjector, FaultPlan, SimulatedCrash
from repro.rdb.locks import LockManager, LockMode, mode_compatible, mode_lub
from repro.rdb.txn import IsolationLevel, TransactionManager, TxnState
from repro.rdb.wal import (LogManager, LogOp, LogRecord, decode_checkpoint,
                           replay)
from repro.serve import DatabaseServer


class TestModeAlgebra:
    def test_is_compatible_with_most(self):
        for granted in (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX):
            assert mode_compatible(LockMode.IS, granted)

    def test_x_conflicts_with_all(self):
        for granted in LockMode:
            assert not mode_compatible(LockMode.X, granted)

    def test_ix_s_conflict(self):
        assert not mode_compatible(LockMode.IX, LockMode.S)
        assert not mode_compatible(LockMode.S, LockMode.IX)

    def test_lub_s_ix_is_six(self):
        assert mode_lub(LockMode.S, LockMode.IX) is LockMode.SIX

    def test_lub_idempotent(self):
        for mode in LockMode:
            assert mode_lub(mode, mode) is mode

    def test_lub_commutative(self):
        for a in LockMode:
            for b in LockMode:
                assert mode_lub(a, b) is mode_lub(b, a)


class TestLockManager:
    def test_grant_and_conflict(self):
        lm = LockManager(StatsRegistry())
        assert lm.try_acquire(1, "r", LockMode.X)
        assert not lm.try_acquire(2, "r", LockMode.S)
        lm.release_all(1)
        assert lm.try_acquire(2, "r", LockMode.S)

    def test_shared_readers(self):
        lm = LockManager(StatsRegistry())
        assert lm.try_acquire(1, "r", LockMode.S)
        assert lm.try_acquire(2, "r", LockMode.S)

    def test_upgrade(self):
        lm = LockManager(StatsRegistry())
        assert lm.try_acquire(1, "r", LockMode.S)
        assert lm.try_acquire(1, "r", LockMode.X)  # upgrade, no other holder
        assert lm.holds(1, "r", LockMode.X)

    def test_upgrade_among_many_held_resources(self):
        lm = LockManager(StatsRegistry())
        for i in range(2, 18):
            assert lm.try_acquire(i, f"r{i}", LockMode.X)
        assert lm.try_acquire(1, "r", LockMode.S)
        assert lm.try_acquire(1, "r", LockMode.X)
        assert lm.holds(1, "r", LockMode.X)
        assert lm.holders("r") == {1: LockMode.X}

    def test_upgrade_blocked_by_other_reader(self):
        lm = LockManager(StatsRegistry())
        lm.try_acquire(1, "r", LockMode.S)
        lm.try_acquire(2, "r", LockMode.S)
        assert not lm.try_acquire(1, "r", LockMode.X)
        assert lm.holds(1, "r", LockMode.S)  # still holds old mode

    def test_intention_locks(self):
        lm = LockManager(StatsRegistry())
        assert lm.try_acquire(1, "tbl", LockMode.IX)
        assert lm.try_acquire(2, "tbl", LockMode.IX)  # IX || IX
        assert not lm.try_acquire(3, "tbl", LockMode.S)  # S vs IX

    def test_deadlock_detection(self):
        lm = LockManager(StatsRegistry())
        lm.try_acquire(1, "a", LockMode.X)
        lm.try_acquire(2, "b", LockMode.X)
        assert not lm.try_acquire(1, "b", LockMode.X)
        assert not lm.try_acquire(2, "a", LockMode.X)
        cycle = lm.find_deadlock()
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_no_false_deadlock(self):
        lm = LockManager(StatsRegistry())
        lm.try_acquire(1, "a", LockMode.X)
        assert not lm.try_acquire(2, "a", LockMode.X)
        assert lm.find_deadlock() is None

    def test_release_clears_waits(self):
        lm = LockManager(StatsRegistry())
        lm.try_acquire(1, "a", LockMode.X)
        lm.try_acquire(2, "a", LockMode.X)
        lm.release_all(1)
        assert lm.find_deadlock() is None
        assert lm.try_acquire(2, "a", LockMode.X)

    def test_stats_counters(self):
        stats = StatsRegistry()
        lm = LockManager(stats)
        lm.try_acquire(1, "a", LockMode.X)
        lm.try_acquire(2, "a", LockMode.S)
        assert stats.get("lock.acquired") == 1
        assert stats.get("lock.waits") == 1

    def test_grants_and_holders_across_many_resources(self):
        lm = LockManager(StatsRegistry())
        resources = [f"r{i}" for i in range(32)]
        for i, resource in enumerate(resources):
            assert lm.try_acquire(i, resource, LockMode.X)
        table = lm.lock_table()
        assert len(table) == len(resources)
        for i, resource in enumerate(resources):
            assert lm.holders(resource) == {i: LockMode.X}
            assert lm.holds(i, resource, LockMode.X)

    def test_conflicts_are_per_resource(self):
        lm = LockManager(StatsRegistry())
        assert lm.try_acquire(1, "a", LockMode.X)
        assert lm.try_acquire(2, "b", LockMode.X)
        assert not lm.try_acquire(3, "a", LockMode.S)

    def test_release_all_drops_every_lock(self):
        lm = LockManager(StatsRegistry())
        for i in range(16):
            assert lm.try_acquire(1, f"r{i}", LockMode.X)
        assert lm.locks_held(1) == 16
        lm.release_all(1)
        assert lm.locks_held(1) == 0
        assert lm.lock_table() == {}
        for i in range(16):
            assert lm.try_acquire(2, f"r{i}", LockMode.S)


class TestPhantomWaiterRegression:
    """``release_all`` used to leave ``{waiter: set()}`` husks in the
    waits-for map, so transactions that no longer waited on anything kept
    showing up as waiters."""

    def test_release_all_drops_emptied_waiters(self):
        lm = LockManager(StatsRegistry())
        lm.try_acquire(1, "a", LockMode.X)
        assert not lm.try_acquire(2, "a", LockMode.X)  # 2 waits on 1
        assert lm.waits_for_edges() == {2: frozenset({1})}
        lm.release_all(1)
        # Regression: the emptied edge set used to linger, so txn 2 kept
        # counting as a waiter forever.
        assert lm.waits_for_edges() == {}

    def test_no_empty_edge_set_survives_churn(self):
        lm = LockManager(StatsRegistry())
        lm.try_acquire(1, "a", LockMode.X)
        lm.try_acquire(2, "b", LockMode.X)
        assert not lm.try_acquire(3, "a", LockMode.X)
        assert not lm.try_acquire(3, "b", LockMode.S)
        assert not lm.try_acquire(4, "a", LockMode.S)
        for txn_id in (1, 2, 3, 4):
            assert all(lm.waits_for_edges().values())
            lm.release_all(txn_id)
        assert lm.waits_for_edges() == {}

    def test_find_deadlock_sees_no_cycle_after_release(self):
        lm = LockManager(StatsRegistry())
        lm.try_acquire(1, "a", LockMode.X)
        lm.try_acquire(2, "b", LockMode.X)
        assert not lm.try_acquire(1, "b", LockMode.X)
        assert not lm.try_acquire(2, "a", LockMode.X)
        assert lm.find_deadlock() is not None
        lm.release_all(1)
        assert lm.find_deadlock() is None
        assert all(lm.waits_for_edges().values())

    def test_idle_table_has_no_waiters_after_release(self):
        db = Database()
        locks = db.txns.locks
        locks.try_acquire(1, "hot", LockMode.X)
        locks.try_acquire(2, "hot", LockMode.X)
        locks.try_acquire(3, "hot", LockMode.S)
        assert set(locks.waits_for_edges()) == {2, 3}
        locks.release_all(1)
        locks.release_all(2)
        locks.release_all(3)
        # Regression: phantom waiters outlived every holder, so an idle
        # lock table still reported transactions waiting on it.
        assert locks.waits_for_edges() == {}
        assert locks.lock_table() == {}


class TestLockTableLock:
    """The lock table has no lock of its own: ``db.latch`` guards it."""

    def test_concurrent_acquires_leave_an_empty_table(self):
        # Two sessions on a 2-worker server take turns holding an X lock
        # the other one waits for.  The waiter's lock request parks one
        # worker in the lock-wait loop, so the holder's later requests —
        # polling the waits-for graph, then committing — run on the other
        # worker: both workers mutate all three maps, and every wait must
        # resolve into an empty lock table and waits-for graph.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            config = replace(DEFAULT_CONFIG, serve_workers=2,
                             lock_wait_budget=4096)
            db = Database(config)
            with DatabaseServer(db) as server:
                sessions = [server.session(), server.session()]
                for round_ in range(4):
                    holder, waiter = sessions[round_ % 2], \
                        sessions[1 - round_ % 2]
                    self._contend(holder, waiter, f"hot{round_ % 2}")
                for session in sessions:
                    session.close()
            assert db.stats.get("lock.waits") > 0
            assert db.txns.locks.lock_table() == {}
            assert db.txns.locks.waits_for_edges() == {}
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _contend(holder, waiter, resource):
        holder.begin()
        holder.lock(resource, LockMode.X)
        errors: list = []

        def wait_then_commit():
            try:
                waiter.begin()
                waiter.lock(resource, LockMode.X)  # parks a worker
                waiter.commit()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        thread = threading.Thread(target=wait_then_commit)
        thread.start()
        # Read the waits-for graph the way every reader now does: as a
        # request, under the engine latch.
        for _ in range(2000):
            edges = holder.execute(
                lambda db, txn: db.txns.locks.waits_for_edges())
            if edges:
                break
            time.sleep(0.001)
        holder.commit()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert errors == []
        assert edges, "the waiter never blocked on the holder"


class TestTransactions:
    def test_commit_releases_locks(self):
        tm = TransactionManager(stats=StatsRegistry())
        txn = tm.begin()
        txn.lock("r", LockMode.X)
        txn.commit()
        assert txn.state is TxnState.COMMITTED
        other = tm.begin()
        other.lock("r", LockMode.X)  # no conflict remains

    def test_abort_runs_undo_in_reverse(self):
        tm = TransactionManager(stats=StatsRegistry())
        txn = tm.begin()
        trace = []
        txn.on_abort(lambda: trace.append("first"))
        txn.on_abort(lambda: trace.append("second"))
        txn.abort()
        assert trace == ["second", "first"]

    def test_finished_txn_rejects_operations(self):
        tm = TransactionManager(stats=StatsRegistry())
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.lock("r", LockMode.S)
        with pytest.raises(TransactionError):
            txn.commit()

    def test_blocked_lock_raises_outside_scheduler(self):
        tm = TransactionManager(stats=StatsRegistry())
        a, b = tm.begin(), tm.begin()
        a.lock("r", LockMode.X)
        with pytest.raises(TransactionError):
            b.lock("r", LockMode.S)

    def test_isolation_level_recorded(self):
        tm = TransactionManager(stats=StatsRegistry())
        txn = tm.begin(IsolationLevel.REPEATABLE_READ)
        assert txn.isolation is IsolationLevel.REPEATABLE_READ
        txn.commit()

    def test_read_only_txns_log_nothing(self):
        tm = TransactionManager(stats=StatsRegistry())
        reader = tm.begin()
        reader.lock("r", LockMode.S)
        reader.commit()
        aborted = tm.begin()
        aborted.lock("r", LockMode.S)
        aborted.abort()
        assert list(tm.log.records()) == []
        assert aborted.txn_id not in tm.log.aborted_txns

    def test_first_record_is_preceded_by_begin(self):
        tm = TransactionManager(stats=StatsRegistry())
        txn = tm.begin()
        txn.log(LogOp.INSERT, "t", b"a")
        txn.log(LogOp.INSERT, "t", b"b")
        txn.abort()
        assert [(r.txn_id, r.op) for r in tm.log.records()] == [
            (txn.txn_id, LogOp.BEGIN), (txn.txn_id, LogOp.INSERT),
            (txn.txn_id, LogOp.INSERT), (txn.txn_id, LogOp.ABORT)]
        assert txn.txn_id in tm.log.aborted_txns

    def test_checkpoint_losers_are_the_active_txns_that_logged(self):
        tm = TransactionManager(stats=StatsRegistry())
        writer, reader = tm.begin(), tm.begin()
        writer.log(LogOp.INSERT, "t", b"row")
        reader.lock("r", LockMode.S)
        tm.checkpoint()
        (checkpoint,) = [r for r in tm.log.records()
                         if r.op is LogOp.CHECKPOINT]
        assert decode_checkpoint(checkpoint.payload) == {writer.txn_id}


class TestWal:
    def test_lsn_sequence(self):
        log = LogManager(StatsRegistry())
        r1 = log.append(1, LogOp.BEGIN)
        r2 = log.append(1, LogOp.INSERT, "t", b"row")
        assert (r1.lsn, r2.lsn) == (0, 1)

    def test_record_roundtrip(self):
        record = LogRecord(5, 2, LogOp.UPDATE, "tbl", b"new", b"old")
        decoded, consumed = LogRecord.decode(record.encode())
        assert decoded == record
        assert consumed == len(record.encode())

    def test_bytes_accounting(self):
        stats = StatsRegistry()
        log = LogManager(stats)
        log.append(1, LogOp.INSERT, "t", b"x" * 100)
        assert log.bytes_written > 100
        assert stats.get("wal.bytes") == log.bytes_written
        assert stats.get("wal.records") == 1

    def test_save_load(self, tmp_path):
        log = LogManager(StatsRegistry())
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.INSERT, "t", b"payload", b"extra")
        log.append(1, LogOp.COMMIT)
        path = str(tmp_path / "wal.log")
        log.save(path)
        reloaded = LogManager.load(path)
        assert [r.op for r in reloaded.records()] == [LogOp.BEGIN, LogOp.INSERT,
                                                      LogOp.COMMIT]

    def test_replay_committed_only(self):
        log = LogManager(StatsRegistry())
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.INSERT, "t", b"keep")
        log.append(1, LogOp.COMMIT)
        log.append(2, LogOp.BEGIN)
        log.append(2, LogOp.INSERT, "t", b"lose")  # never committed
        applied = []
        count = replay(log, lambda r: applied.append(r.payload))
        assert count == 1
        assert applied == [b"keep"]

    def test_replay_all(self):
        log = LogManager(StatsRegistry())
        log.append(1, LogOp.INSERT, "t", b"a")
        log.append(2, LogOp.INSERT, "t", b"b")
        applied = []
        replay(log, lambda r: applied.append(r.payload), committed_only=False)
        assert applied == [b"a", b"b"]

    def test_truncate(self):
        log = LogManager(StatsRegistry())
        log.append(1, LogOp.INSERT, "t", b"a")
        log.truncate()
        assert list(log.records()) == []

    def test_crash_at_a_log_point_halts_the_log(self):
        stats = StatsRegistry()
        injector = FaultInjector([FaultPlan.crash_at("wal.commit.pre")],
                                 stats=stats)
        log = LogManager(stats, injector=injector)
        log.append(1, LogOp.BEGIN)
        with pytest.raises(SimulatedCrash):
            log.append(1, LogOp.COMMIT)
        # The process is dead: survivors cannot harden post-mortem state.
        with pytest.raises(SimulatedCrash):
            log.append(2, LogOp.BEGIN)
        with pytest.raises(SimulatedCrash):
            log.flush()
        assert log.durable_count == 1

    def test_injected_failure_does_not_halt_the_log(self):
        stats = StatsRegistry()
        injector = FaultInjector([FaultPlan.fail_at("wal.commit.pre")],
                                 stats=stats)
        log = LogManager(stats, injector=injector)
        with pytest.raises(FaultInjectionError):
            log.append(1, LogOp.COMMIT)
        assert log.append(2, LogOp.COMMIT).lsn == 0


class TestVolatileTail:
    """The durable boundary: with ``auto_flush`` off appends stay volatile
    until :meth:`LogManager.flush`, and ``save`` persists only the durable
    prefix."""

    def test_auto_flush_default_keeps_every_append_durable(self):
        stats = StatsRegistry()
        log = LogManager(stats)
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.COMMIT)
        assert log.durable_count == 2
        assert log.unflushed_count == 0
        assert log.flush() == 0  # nothing outstanding, no counter traffic
        assert stats.get("wal.flushes") == 0

    def test_appends_stay_volatile_until_flush(self):
        stats = StatsRegistry()
        log = LogManager(stats, auto_flush=False)
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.INSERT, "t", b"row")
        assert log.durable_count == 0
        assert log.unflushed_count == 2
        assert log.flush() == 2
        assert log.durable_count == 2
        assert stats.get("wal.flushes") == 1

    def test_save_persists_only_the_durable_prefix(self, tmp_path):
        log = LogManager(StatsRegistry(), auto_flush=False)
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.COMMIT)
        log.flush()
        log.append(2, LogOp.BEGIN)
        log.append(2, LogOp.COMMIT)  # volatile: a crash would lose these
        path = str(tmp_path / "tail.wal")
        log.save(path)
        reloaded = LogManager.load(path)
        assert [r.txn_id for r in reloaded.records()] == [1, 1]
        assert reloaded.durable_count == 2

    def test_checkpoint_forces_the_volatile_tail(self):
        log = LogManager(StatsRegistry(), auto_flush=False)
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.COMMIT)
        log.checkpoint()
        assert log.unflushed_count == 0  # CHECKPOINT implies a force
        assert log.durable_count == 3


class TestLoadRestartState:
    """A reloaded log must continue the LSN sequence and keep
    ``bytes_since_checkpoint`` correct instead of resetting both."""

    def test_reload_continues_the_lsn_sequence(self, tmp_path):
        log = LogManager(StatsRegistry())
        for _ in range(3):
            log.append(1, LogOp.INSERT, "t", b"x")
        path = str(tmp_path / "state.wal")
        log.save(path)
        reloaded = LogManager.load(path)
        assert reloaded.append(2, LogOp.BEGIN).lsn == 3

    def test_reload_restores_checkpoint_byte_mark(self, tmp_path):
        log = LogManager(StatsRegistry())
        log.append(1, LogOp.BEGIN)
        log.append(1, LogOp.COMMIT)
        log.checkpoint()
        log.append(2, LogOp.BEGIN)
        log.append(2, LogOp.COMMIT)
        path = str(tmp_path / "ckpt.wal")
        log.save(path)
        reloaded = LogManager.load(path)
        # Regression: load used to leave _bytes_at_checkpoint at 0, so a
        # restarted engine counted the whole pre-checkpoint volume as
        # outstanding checkpoint lag.
        assert reloaded.bytes_since_checkpoint == log.bytes_since_checkpoint
        assert reloaded.bytes_since_checkpoint < reloaded.bytes_written

    def test_reload_marks_everything_durable(self, tmp_path):
        log = LogManager(StatsRegistry(), auto_flush=False)
        log.append(1, LogOp.COMMIT)
        log.flush()
        path = str(tmp_path / "durable.wal")
        log.save(path)
        reloaded = LogManager.load(path)
        assert reloaded.durable_count == 1
        assert reloaded.unflushed_count == 0
