"""Lock-timeout, deadlock-distinction, and retry-convergence tests."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import TXN_RETRY_LIMIT, Database
from repro.core.stats import StatsRegistry
from repro.cc.scheduler import Do, Lock, Scheduler
from repro.errors import DeadlockError, LockTimeoutError
from repro.rdb.locks import LockManager, LockMode
from repro.rdb.txn import LOCK_BACKOFF_CAP, TransactionManager


@pytest.fixture
def stats():
    return StatsRegistry()


def manager(stats, budget=8):
    return TransactionManager(stats=stats, lock_wait_budget=budget)


class TestInteractiveLockTimeout:
    def test_timeout_within_budget(self, stats):
        mgr = manager(stats, budget=8)
        holder = mgr.begin()
        assert holder.try_lock("r", LockMode.X)
        blocked = mgr.begin()
        with pytest.raises(LockTimeoutError):
            blocked.lock("r", LockMode.X)
        assert stats.get("txn.lock_timeouts") == 1
        # Backoff steps 1+2+4+... are charged against the budget; the loop
        # must give up the first time the accrued wait reaches it.
        assert stats.get("lock.wait_steps") >= 8
        # budget + one backoff step
        assert stats.get("lock.wait_steps") <= 8 + LOCK_BACKOFF_CAP

    def test_timeout_clears_wait_edges(self, stats):
        mgr = manager(stats)
        holder = mgr.begin()
        assert holder.try_lock("r", LockMode.X)
        blocked = mgr.begin()
        with pytest.raises(LockTimeoutError):
            blocked.lock("r", LockMode.X)
        # The stale waits-for edge must not poison later cycle detection.
        assert mgr.locks.find_deadlock() is None
        blocked.abort()
        holder.commit()
        fresh = mgr.begin()
        fresh.lock("r", LockMode.X)  # immediate grant, no backoff
        assert stats.get("txn.lock_timeouts") == 1

    def test_blocked_lock_eventually_granted(self, stats):
        """Contention under the budget is waited out, not raised."""
        mgr = manager(stats, budget=1000)
        holder = mgr.begin()
        assert holder.try_lock("r", LockMode.S)
        waiter = mgr.begin()
        waiter.lock("r", LockMode.S)  # S + S is compatible: granted at once
        assert stats.get("txn.lock_timeouts") == 0

    def test_deadlock_reported_as_deadlock_not_timeout(self, stats):
        mgr = manager(stats, budget=1000)
        a, b = mgr.begin(), mgr.begin()
        assert a.try_lock("r1", LockMode.X)
        assert b.try_lock("r2", LockMode.X)
        assert not a.try_lock("r2", LockMode.X)  # a now waits for b
        with pytest.raises(DeadlockError):
            b.lock("r1", LockMode.X)             # closes the cycle
        assert stats.get("txn.deadlocks") == 1
        assert stats.get("txn.lock_timeouts") == 0


class TestEngineRetry:
    def config(self, **kw):
        defaults = dict(page_size=1024, buffer_pool_pages=64,
                        lock_wait_budget=8)
        defaults.update(kw)
        return EngineConfig(**defaults)

    def test_retry_converges_once_lock_frees(self):
        db = Database(self.config())
        holder = db.txns.begin()
        assert holder.try_lock("hot-row", LockMode.X)
        attempts = []

        def body(db_, txn):
            attempts.append(txn.txn_id)
            if len(attempts) == 2 and holder.state.value == "active":
                holder.commit()  # contention resolves before attempt 2 locks
            txn.lock("hot-row", LockMode.X)
            return "done"

        assert db.run_in_txn(body) == "done"
        assert len(attempts) == 2
        assert db.stats.get("txn.retries") == 1
        assert db.stats.get("txn.lock_timeouts") == 1

    def test_retry_exhaustion_raises_last_error(self):
        db = Database(self.config())
        holder = db.txns.begin()
        assert holder.try_lock("hot-row", LockMode.X)
        attempts = []

        def body(db_, txn):
            attempts.append(txn.txn_id)
            txn.lock("hot-row", LockMode.X)

        with pytest.raises(LockTimeoutError):
            db.run_in_txn(body)
        assert len(attempts) == 1 + TXN_RETRY_LIMIT
        assert db.stats.get("txn.retries") == TXN_RETRY_LIMIT
        # Every attempt's txn was aborted, none leaked into the active set.
        assert list(db.txns.active) == [holder.txn_id]

    def test_non_victim_errors_abort_without_retry(self):
        db = Database(self.config())
        attempts = []

        def body(db_, txn):
            attempts.append(txn.txn_id)
            raise RuntimeError("logic bug, not contention")

        with pytest.raises(RuntimeError):
            db.run_in_txn(body)
        assert len(attempts) == 1
        assert db.stats.get("txn.retries") == 0
        assert not db.txns.active

    def test_deadlock_victim_retries_and_commits(self):
        db = Database(self.config(lock_wait_budget=1000))
        a = db.txns.begin()
        assert a.try_lock("r1", LockMode.X)
        assert a.try_lock("r2", LockMode.X) is True
        a.commit()

        b = db.txns.begin()
        assert b.try_lock("r2", LockMode.X)

        def body(db_, txn):
            txn.lock("r1", LockMode.X)
            if not txn.try_lock("r2", LockMode.X):
                # b waits for us; closing the cycle makes us the victim.
                db_.txns.locks.try_acquire(b.txn_id, "r1", LockMode.X)
                txn.lock("r2", LockMode.X)
            return "ok"

        # Manufacture the cycle on attempt 1 only: release b's lock after.
        attempts = []
        original_body = body

        def wrapper(db_, txn):
            attempts.append(txn.txn_id)
            if len(attempts) == 2:
                if b.state.value == "active":
                    b.abort()
                txn.lock("r1", LockMode.X)
                txn.lock("r2", LockMode.X)
                return "ok"
            return original_body(db_, txn)

        assert db.run_in_txn(wrapper) == "ok"
        assert len(attempts) == 2
        assert db.stats.get("txn.deadlocks") == 1
        assert db.stats.get("txn.retries") == 1


class TestSchedulerTimeouts:
    def test_wait_budget_aborts_blocked_program(self, stats):
        lm = LockManager(stats)
        order = []

        def hog(txn_id):
            yield Lock("r", LockMode.X)
            for _ in range(40):  # hold the lock for a long time
                yield Do(lambda: None)
            order.append("hog")

        def impatient(txn_id):
            yield Lock("r", LockMode.X)
            order.append("impatient")

        sched = Scheduler(lm, seed=7, wait_budget=6, backoff_cap=4,
                          max_restarts=None, stats=stats)
        result = sched.run([("hog", hog), ("impatient", impatient)],
                           round_robin=True)
        assert result.committed == 2  # timeout victim restarts and commits
        assert result.timeout_aborts >= 1
        assert result.restarts >= 1
        assert stats.get("txn.timeout_aborts") >= 1
        assert order == ["hog", "impatient"]

    def test_restart_budget_exhaustion_fails_program(self, stats):
        lm = LockManager(stats)

        def hog(txn_id):
            yield Lock("r", LockMode.X)
            for _ in range(200):
                yield Do(lambda: None)

        def starved(txn_id):
            yield Lock("r", LockMode.X)

        sched = Scheduler(lm, seed=7, wait_budget=4, backoff_cap=2,
                          max_restarts=1, stats=stats)
        result = sched.run([("hog", hog), ("starved", starved)],
                           round_robin=True)
        assert result.committed == 1
        assert result.failed == ["starved"]
        assert result.timeout_aborts == 2  # initial try + one restart
        assert result.restarts == 1

    def test_backoff_is_bounded(self, stats):
        lm = LockManager(stats)

        def hog(txn_id):
            yield Lock("r", LockMode.X)
            for _ in range(10):
                yield Do(lambda: None)

        def waiter(txn_id):
            yield Lock("r", LockMode.X)

        sched = Scheduler(lm, seed=1, wait_budget=10_000, backoff_initial=1,
                          backoff_cap=8, stats=stats)
        result = sched.run([("hog", hog), ("waiter", waiter)],
                          round_robin=True)
        assert result.committed == 2
        assert result.timeout_aborts == 0

    def test_default_scheduler_has_no_timeouts(self, stats):
        """wait_budget=None preserves the seed behaviour: block forever."""
        lm = LockManager(stats)

        def hog(txn_id):
            yield Lock("r", LockMode.X)
            for _ in range(25):
                yield Do(lambda: None)

        def waiter(txn_id):
            yield Lock("r", LockMode.X)

        result = Scheduler(lm, seed=2).run([("hog", hog), ("w", waiter)])
        assert result.committed == 2
        assert result.timeout_aborts == 0
        assert result.aborted == 0
