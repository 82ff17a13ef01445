"""Victim-retry backoff: jittered, deterministic, charged, deadline-capped."""

import time

import pytest

from repro.core.deadline import Deadline
from repro.core.engine import (TXN_RETRY_BACKOFF_BASE, TXN_RETRY_BACKOFF_CAP,
                               TXN_RETRY_LIMIT, Database)
from repro.errors import DeadlineExceededError, DeadlockError
from repro.rdb.txn import accounting_records


def failing_body(times):
    """A txn body that loses a deadlock ``times`` times, then succeeds."""
    remaining = [times]

    def body(db, txn):
        if remaining[0] > 0:
            remaining[0] -= 1
            raise DeadlockError("synthetic victim")
        return "done"

    return body


def capture_sleeps(db):
    slept = []
    db.backoff_sleep = slept.append
    return slept


class TestJitteredBackoff:
    def test_delays_follow_jittered_exponential_schedule(self):
        db = Database()
        slept = capture_sleeps(db)
        assert db.run_in_txn(failing_body(TXN_RETRY_LIMIT)) == "done"
        assert len(slept) == TXN_RETRY_LIMIT
        for index, delay in enumerate(slept):
            envelope = min(TXN_RETRY_BACKOFF_CAP,
                           TXN_RETRY_BACKOFF_BASE * (2 ** index))
            assert envelope * 0.5 <= delay < envelope * 1.5

    def test_same_seed_same_delays(self):
        # Every engine seeds its jitter the same way: delays reproduce.
        runs = []
        for _ in range(2):
            db = Database()
            slept = capture_sleeps(db)
            db.run_in_txn(failing_body(4))
            runs.append(slept)
        assert runs[0] == runs[1]

    def test_backoff_charged_to_accounting_record(self):
        db = Database()
        slept = capture_sleeps(db)
        db.run_in_txn(failing_body(2))
        record = accounting_records(db.stats)[-1]
        assert record.outcome == "committed"
        assert record.retries == 2
        assert len(record.victim_attempts) == 2
        charged = record.counters["txn.retry_backoff_us"]
        assert charged == sum(int(delay * 1_000_000) for delay in slept)
        assert record.counters["txn.retries"] == 2
        # The global counter reconciles with the per-txn charge.
        assert db.stats.get("txn.retry_backoff_us") == charged

    def test_deadline_caps_backoff_delay(self):
        db = Database()
        slept = []
        # A sleeping stub: real time must pass for the deadline to bite.
        db.backoff_sleep = lambda delay: (slept.append(delay),
                                          time.sleep(delay)) and None
        # Plenty of deadline to start, but less than the 1.34ms first
        # backoff the seeded jitter draws: the clamped sleep must fit the
        # remaining budget, and once the budget is spent the retry loop
        # stops with the typed deadline error rather than burning the
        # remaining attempts.
        deadline = Deadline.after(0.001)
        with pytest.raises(DeadlineExceededError):
            db.run_in_txn(failing_body(10), deadline=deadline)
        assert slept, "expected at least one capped backoff sleep"
        assert all(delay <= 0.001 for delay in slept)

    def test_expired_deadline_beats_retry(self):
        """Once the deadline expires, retrying stops even with budget left."""
        db = Database()
        db.backoff_sleep = lambda delay: None
        deadline = Deadline.expired_deadline()
        with pytest.raises(DeadlineExceededError):
            db.run_in_txn(failing_body(10), deadline=deadline)
        # The deadline was checked before any attempt began.
        assert db.stats.get("txn.begun") == 0
