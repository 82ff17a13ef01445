"""Victim-retry backoff: jittered, deterministic, charged, deadline-capped."""

import time
from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.deadline import Deadline
from repro.core.engine import Database
from repro.errors import DeadlineExceededError, DeadlockError
from repro.rdb.txn import accounting_records


def make_db(**overrides):
    settings = {"checkpoint_interval": 0, "txn_retry_backoff_base": 0.004,
                "txn_retry_backoff_cap": 0.016}
    settings.update(overrides)
    config = replace(DEFAULT_CONFIG, **settings)
    return Database(config)


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
        db = make_db()
        slept = capture_sleeps(db)
        assert db.run_in_txn(failing_body(3), retries=5) == "done"
        assert len(slept) == 3
        base, cap = 0.004, 0.016
        for index, delay in enumerate(slept):
            envelope = min(cap, base * (2 ** index))
            assert envelope * 0.5 <= delay < envelope * 1.5

    def test_same_seed_same_delays(self):
        runs = []
        for _ in range(2):
            db = make_db(txn_retry_jitter_seed=42)
            slept = capture_sleeps(db)
            db.run_in_txn(failing_body(4), retries=5)
            runs.append(slept)
        assert runs[0] == runs[1]
        other = make_db(txn_retry_jitter_seed=43)
        slept = capture_sleeps(other)
        other.run_in_txn(failing_body(4), retries=5)
        assert slept != runs[0]

    def test_backoff_disabled_when_base_is_zero(self):
        db = make_db(txn_retry_backoff_base=0.0)
        slept = capture_sleeps(db)
        db.run_in_txn(failing_body(2), retries=5)
        assert slept == []
        assert db.stats.get("txn.retries") == 2

    def test_backoff_charged_to_accounting_record(self):
        db = make_db(txn_retry_jitter_seed=7)
        slept = capture_sleeps(db)
        db.run_in_txn(failing_body(2), retries=5)
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
        db = make_db()
        slept = []
        # A sleeping stub: real time must pass for the deadline to bite.
        db.backoff_sleep = lambda delay: (slept.append(delay),
                                          time.sleep(delay)) and None
        # Plenty of deadline to start, but far less than the ~2-6ms first
        # backoff: the clamped sleep must fit the remaining budget, and
        # once the budget is spent the retry loop stops with the typed
        # deadline error rather than burning the remaining attempts.
        deadline = Deadline.after(0.001)
        with pytest.raises(DeadlineExceededError):
            db.run_in_txn(failing_body(10), retries=10, deadline=deadline)
        assert slept, "expected at least one capped backoff sleep"
        assert all(delay <= 0.001 for delay in slept)

    def test_expired_deadline_beats_retry(self):
        """Once the deadline expires, retrying stops even with budget left."""
        db = make_db()
        db.backoff_sleep = lambda delay: None
        deadline = Deadline.expired_deadline()
        with pytest.raises(DeadlineExceededError):
            db.run_in_txn(failing_body(10), retries=10, deadline=deadline)
        # The deadline was checked before any attempt began.
        assert db.stats.get("txn.begun") == 0
