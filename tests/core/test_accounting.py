"""Histograms, per-transaction accounting, and the shutdown/undo fixes.

The accounting invariant under test is the DB2 accounting-trace contract:
every committed or aborted transaction yields exactly one
:class:`~repro.rdb.txn.AccountingRecord`, and the records' counter deltas
sum to the registry's global deltas for work done inside transactions.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.deadline import Deadline
from repro.core.engine import TXN_RETRY_LIMIT, Database
from repro.core.events import EventTrace
from repro.core.stats import HISTOGRAMS, METRICS, Histogram, StatsRegistry
from repro.errors import (DeadlineExceededError, DeadlockError,
                          FaultInjectionError, LockTimeoutError)
from repro.rdb.locks import LockMode
from repro.rdb.txn import accounting_records


def summed(records) -> Counter:
    total: Counter = Counter()
    for record in records:
        total.update(record.counters)
    return total


def txn_visible(before: dict, after: dict) -> dict:
    """The global bag's change between two ``counters()`` reads, less the
    meta-counters bumped outside any charge context.

    ``obs.*`` is observation machinery, not transaction work; the
    registry never charges it to accounting records.
    """
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0) and not name.startswith("obs.")}


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for value in (0, 1, 2, 3, 4, 5, 1000):
            h.observe(value)
        assert h.count == 7
        assert h.sum == 1015
        assert h.max == 1000
        # 0 and 1 share bucket <=1; 2 is <=2; 3 and 4 are <=4; 5 is <=8.
        assert h.buckets() == [(1, 2), (2, 1), (4, 2), (8, 1), (1024, 1)]

    def test_cumulative_and_quantiles(self):
        h = Histogram()
        for value in (1, 1, 1, 8, 64):
            h.observe(value)
        assert h.cumulative_buckets() == [(1, 3), (8, 4), (64, 5)]
        assert h.quantile(0.5) == 1
        assert h.quantile(0.9) == 64
        assert Histogram().quantile(0.5) == 0

    def test_negative_values_clamp_to_zero(self):
        h = Histogram()
        h.observe(-5)
        assert h.sum == 0 and h.max == 0
        assert h.buckets() == [(1, 1)]

    def test_registry_creates_on_first_observe(self):
        stats = StatsRegistry()
        assert stats.histogram("btree.search_entries") is None
        stats.observe("btree.search_entries", 3)
        h = stats.histogram("btree.search_entries")
        assert h is not None and h.count == 1
        stats.reset()
        assert stats.histograms() == {}

    def test_registries_are_disjoint(self):
        # A histogram name colliding with a counter name would make the
        # Prometheus exposition emit the same series twice.
        assert not METRICS & HISTOGRAMS


class TestHotPathHistograms:
    def test_engine_workload_populates_hot_path_histograms(self):
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        for i in range(6):
            db.insert("t", (i, f"<a><b n='{i}'>x</b></a>"))
        db.xpath("t", "doc", "/a/b")
        names = set(db.stats.histograms())
        assert {"btree.search_entries", "xscan.doc_events",
                "xscan.doc_peak_units", "wal.record_bytes"} <= names
        assert names <= HISTOGRAMS

    def test_lock_wait_steps_histogram(self):
        db = Database(EngineConfig(lock_wait_budget=4))
        holder = db.txns.begin()
        holder.lock(("r",), LockMode.X)
        # Fast path: an uncontended acquire observes zero wait steps.
        h = db.stats.histogram("lock.acquire_wait_steps")
        assert h is not None and h.count >= 1 and h.buckets()[0][0] == 1
        waiter = db.txns.begin()
        with pytest.raises(LockTimeoutError):
            waiter.lock(("r",), LockMode.X)
        holder.commit()
        waiter.lock(("r",), LockMode.X)  # now free: waited = 0 again
        waiter.commit()

    def test_eviction_residency_histogram(self):
        db = Database(EngineConfig(buffer_pool_pages=8))
        db.create_table("t", [("doc", "xml")])
        for i in range(30):
            db.insert("t", (f"<a>{'y' * 3000}</a>",))
        assert db.stats.get("buffer.evictions") > 0
        h = db.stats.histogram("buffer.eviction_residency")
        assert h is not None
        assert h.count == db.stats.get("buffer.evictions")


class TestChargeSinks:
    def test_charge_mirrors_adds(self):
        stats = StatsRegistry()
        sink: Counter = Counter()
        stats.add("wal.records")
        with stats.charge(sink):
            stats.add("wal.records", 2)
        stats.add("wal.records")
        assert sink == {"wal.records": 2}
        assert stats.get("wal.records") == 4

    def test_sinks_stack_and_an_open_sink_counts_once(self):
        stats = StatsRegistry()
        outer: Counter = Counter()
        inner: Counter = Counter()
        with stats.charge(outer):
            stats.add("buffer.hits")
            with stats.charge(inner):
                stats.add("buffer.hits")
                with stats.charge(outer):  # already open: a no-op
                    stats.add("buffer.hits")
            stats.add("buffer.hits")
        assert outer == {"buffer.hits": 4}
        assert inner == {"buffer.hits": 2}
        assert stats.get("buffer.hits") == 4

    def test_equal_sinks_are_still_distinct(self):
        # Two empty Counters are equal; opening the second must not be
        # mistaken for re-opening the first.
        stats = StatsRegistry()
        first: Counter = Counter()
        second: Counter = Counter()
        with stats.charge(first), stats.charge(second):
            stats.add("wal.records")
        assert first == {"wal.records": 1}
        assert second == {"wal.records": 1}


class TestAccountingRecords:
    def test_one_record_per_txn_and_deltas_sum_to_global(self):
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        emitted_before = db.stats.get("obs.accounting_records")
        before = db.stats.counters()
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", (1, "<a>one</a>"), txn_id=txn.txn_id))
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", (2, "<a>two</a>"), txn_id=txn.txn_id))
        loser = db.txns.begin()
        db.insert("t", (3, "<a>three</a>"), txn_id=loser.txn_id)
        loser.abort()
        after = db.stats.counters()
        records = accounting_records(db.stats)
        new = records[-(db.stats.get("obs.accounting_records")
                        - emitted_before):]
        assert len(new) == 3
        assert [r.outcome for r in new] == ["committed", "committed",
                                            "aborted"]
        assert dict(summed(new)) == txn_visible(before, after)

    def test_headline_figures_match_counters(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", ("<a>payload</a>",), txn_id=txn.txn_id))
        record = accounting_records(db.stats)[-1]
        assert record.outcome == "committed"
        assert record.isolation == "cs"
        assert record.wal_records == record.counters.get("wal.records", 0) > 0
        assert record.wal_bytes == record.counters.get("wal.bytes", 0) > 0
        assert record.to_dict()["txn_id"] == record.txn_id

    def test_ring_buffer_wraps_but_counts_lifetime(self):
        db = Database()
        EventTrace(ring_size=2).install(db.stats)
        for _ in range(5):
            db.txns.begin().commit()
        assert len(accounting_records(db.stats)) == 2
        assert db.stats.events.dropped == 3
        assert db.stats.get("obs.accounting_records") == 5


class TestRetryFolding:
    def _contended_db(self):
        db = Database(EngineConfig(lock_wait_budget=4))
        db.create_table("t", [("doc", "xml")])
        return db

    def test_retries_fold_into_one_record(self):
        db = self._contended_db()
        blocker = db.txns.begin()
        blocker.lock(("doc", "t", 99), LockMode.X)
        attempts: list[int] = []
        emitted_before = db.stats.get("obs.accounting_records")

        def body(eng, txn):
            attempts.append(txn.txn_id)
            if len(attempts) == 1:
                txn.lock(("doc", "t", 99), LockMode.S)  # times out
            eng.insert("t", ("<a/>",), txn_id=txn.txn_id)
            return txn.txn_id

        before = db.stats.counters()
        final_txn = db.run_in_txn(body)
        after = db.stats.counters()
        assert len(attempts) == 2
        # Exactly one record for the logical transaction: the victim
        # attempt recorded nothing and was folded into the final one.
        new = db.stats.get("obs.accounting_records") - emitted_before
        assert new == 1
        assert len(accounting_records(db.stats)) == 1
        record = accounting_records(db.stats)[-1]
        blocker.commit()
        assert record.txn_id == final_txn
        assert record.outcome == "committed"
        assert record.retries == 1
        assert record.victim_attempts == (attempts[0],)
        # Folded counters carry both attempts' charged work.  The victim
        # attempt only waited for a lock, so it logged nothing (no BEGIN
        # or ABORT); the final attempt logged BEGIN, INSERT and COMMIT.
        assert record.counters["wal.records"] == 3
        assert record.counters["txn.aborts"] == 1
        assert record.counters["txn.retries"] == 1
        # And the whole story still sums to the global deltas (the blocker
        # txn is still active, so only the retried txn did charged work in
        # the window).
        assert dict(summed([record])) == txn_visible(before, after)

    def test_exhausted_retries_leave_aborted_record(self):
        db = self._contended_db()
        blocker = db.txns.begin()
        blocker.lock(("doc", "t", 1), LockMode.X)

        def body(eng, txn):
            txn.lock(("doc", "t", 1), LockMode.S)

        with pytest.raises(LockTimeoutError):
            db.run_in_txn(body)
        record = accounting_records(db.stats)[-1]
        blocker.commit()
        assert record.outcome == "aborted"
        assert record.retries == TXN_RETRY_LIMIT
        assert len(record.victim_attempts) == TXN_RETRY_LIMIT


class TestAttemptChains:
    """However a ``run_in_txn`` attempt chain ends, it leaves exactly one
    accounting record, and the records sum to the global deltas.

    An attempt inserts a row, then ends as drawn: ``commit``; ``victim``
    (raises ``DeadlockError``, so it is retried); ``deadline`` (a victim
    whose backoff outlives the request deadline); ``self_abort`` (aborts
    its own transaction, which emits that attempt's record, then raises
    ``DeadlockError``); or ``error`` (a non-engine exception).  A chain
    also ends at the retry limit.  A self-aborted attempt's record stands
    alone, so a chain leaves one record per self-abort plus one unless its
    last attempt self-aborted.
    """

    KINDS = ("commit", "victim", "deadline", "self_abort", "error")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.sampled_from(KINDS),
                             max_size=TXN_RETRY_LIMIT + 1),
                    min_size=1, max_size=4))
    def test_one_record_per_chain_and_sums_to_global(self, chains):
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        emitted_before = db.stats.get("obs.accounting_records")
        before = db.stats.counters()
        expected = 0
        for kinds in chains:
            deadline = Deadline.after(3600)
            plan = iter(kinds)
            executed: list[str] = []

            def expire(delay, deadline=deadline, executed=executed):
                if executed[-1] == "deadline":
                    deadline.expires_at = 0.0

            def body(eng, txn, plan=plan, executed=executed):
                executed.append(next(plan, "commit"))
                eng.insert("t", (len(executed), "<a>x</a>"),
                           txn_id=txn.txn_id)
                if executed[-1] == "self_abort":
                    txn.abort()
                if executed[-1] in ("victim", "deadline", "self_abort"):
                    raise DeadlockError("synthetic victim")
                if executed[-1] == "error":
                    raise ValueError("not an engine error")

            db.backoff_sleep = expire
            try:
                db.run_in_txn(body, deadline=deadline)
                ended = "commit"
            except (DeadlockError, DeadlineExceededError, ValueError) as exc:
                ended = type(exc).__name__
            last = executed[-1]
            if len(executed) > TXN_RETRY_LIMIT and last != "commit":
                assert ended == ("ValueError" if last == "error"
                                 else "DeadlockError")
            else:
                assert ended == {"commit": "commit", "error": "ValueError",
                                 "deadline": "DeadlineExceededError"}[last]
            expected += executed.count("self_abort") + \
                (last != "self_abort")
        after = db.stats.counters()
        new = db.stats.get("obs.accounting_records") - emitted_before
        assert new == expected
        records = accounting_records(db.stats)[-new:]
        assert dict(summed(records)) == txn_visible(before, after)


class TestSatelliteFixes:
    def test_delete_row_is_undone_on_abort(self):
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        rid = db.insert("t", (7, "<a><b>keep me</b></a>"))
        txn = db.txns.begin()
        db.delete_row("t", rid, txn_id=txn.txn_id)
        assert db.tables["t"].row_count == 0
        txn.abort()
        # The live engine state has the row and its document back, not
        # just the replayed log.
        assert db.tables["t"].row_count == 1
        results = db.xpath("t", "doc", "/a/b")
        assert len(results) == 1
        assert results[0].row[0] == 7
        assert "keep me" in db.get_document("t", "doc", results[0].docid)

    def test_delete_row_commit_still_deletes(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        rid = db.insert("t", ("<a/>",))
        txn = db.txns.begin()
        db.delete_row("t", rid, txn_id=txn.txn_id)
        txn.commit()
        assert db.tables["t"].row_count == 0
        assert db.xpath("t", "doc", "/a") == []

    def test_close_retries_after_failed_checkpoint(self, monkeypatch):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.insert("t", ("<a/>",))
        calls = {"n": 0}
        original = db.txns.checkpoint

        def failing_checkpoint():
            calls["n"] += 1
            if calls["n"] == 1:
                raise FaultInjectionError("checkpoint torn")
            original()

        monkeypatch.setattr(db.txns, "checkpoint", failing_checkpoint)
        with pytest.raises(FaultInjectionError):
            db.close()
        # The failed close must NOT have latched the closed flag ...
        assert not getattr(db, "_closed", False)
        db.close()  # ... so the retry really checkpoints
        assert calls["n"] == 2
        assert db.stats.get("wal.checkpoints") == 1
        db.close()  # idempotent once genuinely closed
        assert calls["n"] == 2
