"""Runtime sanitizers: trips, counters, and engine wiring."""

import textwrap
import threading

import pytest

from repro.analyze import sanitize
from repro.analyze.framework import Program, SourceModule
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

    def test_thread_scope_ignores_foreign_thread_pins(self, armed, stats):
        pool = make_pool(stats)
        page_id, _ = pool.new_page()  # pinned by this thread
        assert pool.pinned_by_caller() == [page_id]
        errors = []

        def probe():
            # A monitor-style reader on another thread: the pin is not its
            # leak, so the thread-scoped quiesce check stays quiet.
            assert pool.pinned_by_caller() == []
            try:
                sanitize.check_pool_quiesced(pool, stats, scope="thread")
            except SanitizerError as exc:  # pragma: no cover - fail path
                errors.append(exc)

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert errors == []
        # The pinning thread itself still trips...
        with pytest.raises(SanitizerError):
            sanitize.check_pool_quiesced(pool, stats, scope="thread")
        # ...and the global scope (shutdown) sees the pin from anywhere.
        with pytest.raises(SanitizerError):
            sanitize.check_pool_quiesced(pool, stats)
        pool.unpin(page_id, dirty=True)
        assert pool.pinned_by_caller() == []
        sanitize.check_pool_quiesced(pool, stats, scope="thread")
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

    def test_cross_check_against_static_graph(self, armed, stats):
        sanitize.on_lock_acquired(stats, 1, ("row", 1))
        sanitize.on_lock_acquired(stats, 1, ("doc", 2))
        assert sanitize.cross_check_static_order([("row", "doc")]) == []
        contradictions = sanitize.cross_check_static_order([("doc", "row")])
        assert len(contradictions) == 1
        assert "'row' before 'doc'" in contradictions[0]


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


class TestLockSummaryCrossCheck:
    def test_witnessed_class_missing_statically_is_reported(self, armed,
                                                            stats):
        sanitize.on_lock_acquired(stats, 1, ("row", 1))
        sanitize.on_lock_acquired(stats, 1, ("weird", 2))
        sanitize.on_locks_released(1)
        issues = sanitize.cross_check_lock_summaries({"row", "doc"})
        assert len(issues) == 1
        assert "'weird'" in issues[0]
        assert sanitize.cross_check_lock_summaries({"row", "weird"}) == []

    def test_witnessed_classes_survive_txn_end(self, armed, stats):
        # Unlike the per-txn order lists, the class set must outlive the
        # transaction: the cross-check runs after the workload quiesced.
        sanitize.on_lock_acquired(stats, 3, ("row", 1))
        sanitize.on_locks_released(3)
        assert sanitize.cross_check_lock_summaries(set()) != []

    def test_reset_witness_clears_the_class_set(self, armed, stats):
        sanitize.on_lock_acquired(stats, 1, ("row", 1))
        sanitize.reset_witness()
        assert sanitize.cross_check_lock_summaries(set()) == []

    def test_against_real_effect_summaries(self, armed, stats, tmp_path):
        # Static side: effect summaries of a fixture tree.  Runtime side:
        # a wired LockManager witnessing live acquisitions.
        path = tmp_path / "proto.py"
        path.write_text(textwrap.dedent("""\
            class Protocol:
                def write(self, mgr, txn):
                    mgr.try_acquire(txn, ("row", 1), "X")
                    mgr.try_acquire(txn, ("doc", 1), "X")
            """))
        program = Program()
        program.add(SourceModule(path, tmp_path))
        static = program.effects().all_lock_classes()
        locks = LockManager(stats)
        locks.try_acquire(9, ("row", 4), LockMode.X)
        locks.release_all(9)
        assert sanitize.cross_check_lock_summaries(static) == []
        # A class the static analysis never saw is a blind-spot witness.
        locks.try_acquire(10, ("node", 7), LockMode.X)
        locks.release_all(10)
        issues = sanitize.cross_check_lock_summaries(static)
        assert len(issues) == 1
        assert "'node'" in issues[0]


def in_thread(fn):
    """Run ``fn`` to completion on a fresh thread; re-raise its error."""
    box: list = []
    failure: list = []

    def runner():
        try:
            box.append(fn())
        except BaseException as exc:  # noqa: BLE001 - test harness relay
            failure.append(exc)

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    if failure:
        raise failure[0]
    return box[0] if box else None


class TestTrackedLock:
    def test_with_region_pushes_and_pops_the_token(self, armed):
        latch = sanitize.TrackedLock("db.latch")
        assert sanitize.held_lock_tokens() == ()
        with latch:
            assert sanitize.held_lock_tokens() == ("db.latch",)
        assert sanitize.held_lock_tokens() == ()

    def test_rlock_reentry_pushes_once_per_level(self, armed):
        latch = sanitize.TrackedLock("db.latch", threading.RLock())
        with latch:
            with latch:
                assert sanitize.held_lock_tokens() == ("db.latch",
                                                       "db.latch")
            assert sanitize.held_lock_tokens() == ("db.latch",)
        assert sanitize.held_lock_tokens() == ()

    def test_failed_release_keeps_the_held_stack_truthful(self, armed):
        # _latch_sleep releases and re-acquires around a sleep; if the
        # release itself raises, the latch is still held and the token
        # must stay.
        latch = sanitize.TrackedLock("server._state_lock")
        with latch:
            with pytest.raises(RuntimeError):
                sanitize.TrackedLock("server._state_lock").release()
            assert sanitize.held_lock_tokens() == ("server._state_lock",)

    def test_failed_nonblocking_acquire_pushes_nothing(self, armed):
        inner = threading.Lock()
        latch = sanitize.TrackedLock("guard._lock", inner)
        in_thread(inner.acquire)  # held by (defunct) other thread
        assert latch.acquire(blocking=False) is False
        assert sanitize.held_lock_tokens() == ()

    def test_disarmed_latch_is_a_plain_lock(self):
        sanitize.disable()
        latch = sanitize.TrackedLock("db.latch")
        with latch:
            assert sanitize.held_lock_tokens() == ()


class TestLocksetDiscipline:
    KEY = ("Server", "jobs")

    def test_single_thread_init_phase_is_benign(self, armed, stats):
        # build_database-style pre-population: latch-free writes from one
        # thread never trip — Eraser defers judgement while exclusive.
        for _ in range(3):
            sanitize.shared_access(stats, *self.KEY, write=True)
        assert sanitize.witnessed_field_states()[self.KEY] == "exclusive"
        assert stats.get("sanitize.race.lockset") == 0
        assert stats.get("sanitize.checks") == 3

    def test_second_thread_replaces_the_universal_lockset(self, armed,
                                                          stats):
        latch = sanitize.TrackedLock("db.latch")
        sanitize.shared_access(stats, *self.KEY, write=True)  # latch-free

        def worker():
            with latch:
                sanitize.shared_access(stats, *self.KEY, write=True)

        in_thread(worker)
        # C(v) was universal through the exclusive phase: the first
        # second-thread access replaces, not intersects, so the latch-free
        # init does not poison the candidate set.
        assert sanitize.witnessed_locksets()[self.KEY] == \
            frozenset(("db.latch",))
        assert sanitize.witnessed_field_states()[self.KEY] == \
            "shared-modified"
        assert stats.get("sanitize.race.lockset") == 0

    def test_disjoint_locksets_trip_once(self, armed, stats):
        latch_a = sanitize.TrackedLock("server._state_lock")
        latch_b = sanitize.TrackedLock("guard._lock")
        with latch_a:
            sanitize.shared_access(stats, *self.KEY, write=True)

        def worker():
            with latch_b:
                sanitize.shared_access(stats, *self.KEY, write=True)

        in_thread(worker)
        with latch_a, pytest.raises(SanitizerError,
                                    match="no latch consistently guards"):
            sanitize.shared_access(stats, *self.KEY, write=True)
        assert stats.get("sanitize.race.lockset") == 1
        assert sanitize.witnessed_locksets()[self.KEY] == frozenset()
        # Tripped fields report once, not per access.
        with latch_a:
            sanitize.shared_access(stats, *self.KEY, write=True)
        assert stats.get("sanitize.race.lockset") == 1

    def test_consistently_guarded_reads_stay_shared(self, armed, stats):
        latch = sanitize.TrackedLock("stats._lock")
        with latch:
            sanitize.shared_access(stats, *self.KEY, write=True)

        def reader():
            with latch:
                sanitize.shared_access(stats, *self.KEY, write=False)

        in_thread(reader)
        assert sanitize.witnessed_field_states()[self.KEY] == "shared"
        assert sanitize.witnessed_locksets()[self.KEY] == \
            frozenset(("stats._lock",))

    def test_extra_held_stands_in_for_released_stripes(self, armed, stats):
        # The stats registry reports its whole-map ops *after* leaving its
        # locked region (reporting inside would recurse into stats.add);
        # extra_held carries the latch it verifiably held.
        sanitize.shared_access(stats, "StatsRegistry", "_counters",
                               write=True, extra_held=("stats._lock",))
        in_thread(lambda: sanitize.shared_access(
            stats, "StatsRegistry", "_counters", write=True,
            extra_held=("stats._lock",)))
        key = ("StatsRegistry", "_counters")
        assert sanitize.witnessed_locksets()[key] == \
            frozenset(("stats._lock",))
        assert stats.get("sanitize.race.lockset") == 0

    def test_disarmed_access_is_a_no_op(self, stats):
        sanitize.disable()
        sanitize.shared_access(stats, *self.KEY, write=True)
        assert stats.get("sanitize.checks") == 0
        assert sanitize.witnessed_locksets() == {}


class TestFieldGuardCrossCheck:
    def _witness(self, stats, token, cls="DatabaseServer", field="_state"):
        latch = sanitize.TrackedLock(token)

        def access():
            with latch:
                sanitize.shared_access(stats, cls, field, write=True)

        access()
        in_thread(access)

    def test_agreement_is_silent(self, armed, stats):
        self._witness(stats, "server._state_lock")
        triples = [("DatabaseServer", "_state", "_state_lock")]
        assert sanitize.cross_check_field_guards(triples) == []

    def test_wrong_static_guard_is_a_discrepancy(self, armed, stats):
        self._witness(stats, "server._state_lock")
        issues = sanitize.cross_check_field_guards(
            [("DatabaseServer", "_state", "db.latch")])
        assert len(issues) == 1
        assert "never hold it" in issues[0]

    def test_unexercised_fields_are_skipped(self, armed, stats):
        assert sanitize.cross_check_field_guards(
            [("Ghost", "field", "db.latch")]) == []

    def test_tokens_compare_by_tail(self, armed, stats):
        # Static factory-call tokens ('lock_of()') and runtime tokens
        # ('registry.lock_of') meet at the tail.
        self._witness(stats, "registry.lock_of", cls="Registry",
                      field="entries")
        assert sanitize.cross_check_field_guards(
            [("Registry", "entries", "lock_of()")]) == []


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
                     "sanitize.race.lockset"):
            assert name in METRICS
