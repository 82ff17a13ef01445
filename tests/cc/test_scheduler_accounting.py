"""Accounting attribution under the deterministic concurrent scheduler.

The cross-cutting invariant: every finished program emits exactly one
:class:`~repro.rdb.txn.AccountingRecord`, victim attempts fold into it, and
the records' counter deltas sum to the registry's global deltas for the
whole run (meta ``obs.*`` counters excluded — they are bumped outside any
charge context by design).
"""

from collections import Counter

from repro.core.stats import StatsRegistry
from repro.cc.scheduler import Do, Lock, Scheduler
from repro.rdb.locks import LockManager, LockMode
from repro.rdb.txn import accounting_records


def run_sum_check(result, scheduler, before, expected_records):
    records = accounting_records(scheduler.stats)
    assert len(records) == expected_records
    assert scheduler.stats.get("obs.accounting_records") == expected_records
    total: Counter = Counter()
    for record in records:
        total.update(record.counters)
    after = scheduler.stats.counters()
    visible = {name: value - before.get(name, 0)
               for name, value in after.items()
               if value != before.get(name, 0)
               and not name.startswith("obs.")}
    assert dict(total) == visible
    return records


class TestSchedulerAccounting:
    def test_uncontended_programs_emit_one_record_each(self):
        stats = StatsRegistry()
        locks = LockManager(stats)
        scheduler = Scheduler(locks, seed=1, stats=stats)

        def program(name):
            def body(txn_id):
                yield Lock(("r", name), LockMode.X)
                yield Do(lambda: None)
            return body

        before = stats.counters()
        result = scheduler.run([("a", program("a")),
                                ("b", program("b"))])
        assert result.committed == 2
        records = run_sum_check(result, scheduler, before, 2)
        assert all(r.outcome == "committed" for r in records)
        assert all(r.isolation == "cs" for r in records)
        assert all(r.retries == 0 and r.victim_attempts == ()
                   for r in records)
        assert all(r.counters.get("lock.acquired") == 1 for r in records)

    def test_deadlock_victim_folds_restart_into_one_record(self):
        stats = StatsRegistry()
        locks = LockManager(stats)
        scheduler = Scheduler(locks, seed=7, stats=stats)

        def program(first, second):
            def body(txn_id):
                yield Lock(first, LockMode.X)
                yield Lock(second, LockMode.X)
            return body

        before = stats.counters()
        result = scheduler.run([("ab", program("a", "b")),
                                ("ba", program("b", "a"))],
                               round_robin=True)
        assert result.committed == 2
        assert result.deadlock_aborts >= 1
        records = run_sum_check(result, scheduler, before, 2)
        victims = [r for r in records if r.retries > 0]
        assert victims, "a deadlock victim must have been restarted"
        for record in victims:
            # One record per program: the aborted attempts appear only as
            # folded victim ids, never as separate records.
            assert len(record.victim_attempts) == record.retries
            assert record.outcome == "committed"
            assert record.counters.get("txn.deadlock_aborts", 0) >= 1
