"""Request deadlines: the Deadline type and its propagation into the engine."""

import time
from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.deadline import Deadline
from repro.core.engine import Database
from repro.errors import DeadlineExceededError
from repro.rdb.locks import LockMode
from repro.rdb.wal import LogOp
from repro.serve import DatabaseServer

DOC = "<Product><Name>n</Name></Product>"


def make_db(**overrides):
    config = replace(DEFAULT_CONFIG, checkpoint_interval=0, **overrides)
    db = Database(config)
    db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
    return db


class TestDeadlineType:
    def test_remaining_and_expiry(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired()
        assert 0 < deadline.remaining() <= 60.0
        assert Deadline.expired_deadline().expired()
        assert Deadline.expired_deadline().remaining() == 0.0

    def test_clamp_caps_to_remaining(self):
        deadline = Deadline.after(0.010)
        assert deadline.clamp(100.0) <= 0.010
        assert Deadline.expired_deadline().clamp(1.0) == 0.0
        # A delay already under the remaining budget is untouched.
        assert Deadline.after(60.0).clamp(0.5) == 0.5


class TestEngineDeadlines:
    def test_run_in_txn_rejects_expired_deadline_up_front(self):
        db = make_db()
        with pytest.raises(DeadlineExceededError):
            db.run_in_txn(lambda _db, _txn: None,
                          deadline=Deadline.expired_deadline())
        assert db.stats.get("txn.deadline_exceeded") == 1
        assert db.stats.get("txn.begun") == 0  # no work was started

    def test_lock_wait_aborts_on_expired_deadline(self):
        db = make_db(lock_wait_budget=10_000_000)
        holder = db.txns.begin()
        assert holder.try_lock("r", LockMode.X)
        blocked = db.txns.begin()
        blocked.deadline = Deadline.after(0.02)
        # The budget is effectively infinite: only the deadline can end
        # this wait (the yield hook makes each step take real time).
        db.txns.lock_wait_yield = lambda: time.sleep(0.001)
        with pytest.raises(DeadlineExceededError):
            blocked.lock("r", LockMode.X)
        db.txns.lock_wait_yield = None
        assert db.txns.locks.find_deadlock() is None  # edges cleared
        blocked.abort()
        holder.commit()


class TestServerDeadlines:
    def test_deadline_spent_in_queue(self):
        db = make_db()
        with DatabaseServer(db) as server:
            session = server.session()
            with pytest.raises(DeadlineExceededError, match="queue"):
                session.run(lambda _db, _txn: None,
                            deadline=Deadline.expired_deadline())
        assert db.stats.get("serve.deadline_expired") == 1
        # Deadline expiry is not a generic failure.
        assert db.stats.get("serve.failed") == 0

    def test_deadline_bounds_lock_wait_under_server(self):
        db = make_db(serve_workers=2, lock_wait_budget=10_000_000)
        with DatabaseServer(db) as server:
            holder = server.session()
            holder.begin()
            holder.lock(("doc", "docs", 1), LockMode.X)
            contender = server.session()
            contender.begin()
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                contender.lock(("doc", "docs", 1), LockMode.X,
                               deadline=0.05)
            assert time.monotonic() - started < 5.0
            # The contender's txn was aborted by the failed request; the
            # holder still owns its lock and can commit.
            assert contender.txn is None
            holder.commit()
        assert db.stats.get("txn.deadline_exceeded") >= 1

    def test_insert_deadline_expires_waiting_for_the_table_lock(self):
        """An auto-commit insert that runs out of time waiting for the
        table IX lock another session holds logs no INSERT and consumes
        no DocID."""
        db = make_db(serve_workers=2, lock_wait_budget=10_000_000)

        def inserts():
            return sum(record.op is LogOp.INSERT
                       for record in db.log.records())

        with DatabaseServer(db) as server:
            holder = server.session()
            holder.begin()
            holder.lock(("table", "docs"), LockMode.X)
            logged, docid = inserts(), db.catalog.peek_docid("docs")
            with pytest.raises(DeadlineExceededError):
                server.session().insert("docs", ("k", DOC), deadline=0.05)
            assert inserts() == logged
            assert db.catalog.peek_docid("docs") == docid
            holder.commit()
        assert db.stats.get("txn.deadline_exceeded") >= 1

    def test_deadline_not_retryable(self):
        assert not DatabaseServer.is_retryable(DeadlineExceededError("x"))

    def test_resolve_deadline(self):
        db = make_db()
        with DatabaseServer(db) as server:
            assert server.resolve_deadline(None) is None
            assert server.resolve_deadline(5).remaining() <= 5.0
            explicit = Deadline.after(1.0)
            assert server.resolve_deadline(explicit) is explicit
