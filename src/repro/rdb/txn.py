"""Transactions: lock scope, logging scope, logical undo, and accounting.

A thin transaction layer over :mod:`repro.rdb.locks` and
:mod:`repro.rdb.wal`.  Updates register *undo actions* (closures that
logically reverse the change); abort runs them in reverse order, mirroring
the standard relational design the paper builds on.  A transaction's BEGIN
record precedes its first redo record, and only a transaction that logged
writes a COMMIT or ABORT: a read-only one leaves the log untouched.

The layer also hosts the engine's DB2-style *accounting trace*: every
transaction owns a private counter sink, opened on the running thread
through :meth:`repro.core.stats.StatsRegistry.charge` while work runs on
its behalf (the same rule charges the served request's wait clock or a
tracer span open around it), and commit/abort records one
``txn.accounting`` event — txn id, isolation, outcome, retries, charged
counters — in the registry's event ring.  :func:`accounting_records`
reads them back as :class:`AccountingRecord` objects.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.core.deadline import Deadline
from repro.core.stats import StatsRegistry, default_stats, wait_breakdown
from repro.errors import (DeadlineExceededError, DeadlockError,
                          LockTimeoutError, TransactionError)
from repro.rdb.locks import LockManager, LockMode
from repro.rdb.wal import LogManager, LogOp

#: Bounded exponential backoff between interactive lock retries, in
#: simulated steps: the wait starts at the initial value and doubles per
#: retry up to the cap.
LOCK_BACKOFF_INITIAL = 1
LOCK_BACKOFF_CAP = 16


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class IsolationLevel(enum.Enum):
    """SQL isolation levels, "naturally extended to cover XML columns" (§5.1).

    Today a level is an accounting label only: it is carried on the
    transaction and its accounting record, and no lock is taken or released
    differently because of it.  (In the paper READ_COMMITTED releases read
    locks eagerly, REPEATABLE_READ holds them to commit, and
    UNCOMMITTED_READ takes none, the case that *requires* DocID locking for
    direct index access.)
    """

    UNCOMMITTED_READ = "ur"
    READ_COMMITTED = "cs"
    REPEATABLE_READ = "rr"


@dataclass(frozen=True)
class AccountingRecord:
    """One transaction's accounting-trace record (DB2 IFCID 3 analogue).

    ``counters`` holds the :class:`~repro.core.stats.StatsRegistry` deltas
    charged to the transaction — including work folded in from earlier
    victim attempts when ``run_in_txn`` or the deterministic scheduler
    restarted it (:meth:`TransactionManager.restart`); those attempts' txn
    ids are listed in ``victim_attempts`` and counted by ``retries``.
    """

    txn_id: int
    isolation: str
    outcome: str  # "committed" | "aborted"
    retries: int = 0
    victim_attempts: tuple[int, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)

    # -- headline figures (the DB2 accounting-report columns) -------------

    @property
    def pages_read(self) -> int:
        return self.counters.get("disk.page_reads", 0)

    @property
    def pages_written(self) -> int:
        return self.counters.get("disk.page_writes", 0)

    @property
    def lock_waits(self) -> int:
        return self.counters.get("lock.waits", 0)

    @property
    def wal_records(self) -> int:
        return self.counters.get("wal.records", 0)

    @property
    def wal_bytes(self) -> int:
        return self.counters.get("wal.bytes", 0)

    # -- class-3 suspension breakdown -------------------------------------

    @property
    def waits(self) -> dict[str, int]:
        """Per-wait-class microseconds suspended on this txn's behalf.

        Wait charges flow through the same accounting sink as every other
        counter, so the breakdown *folds across victim retries* exactly
        like the rest of the record (an aborted attempt's lock-wait time
        is carried into its successor) and sums against the global
        ``waits.*_us`` counters in the accounting-caps check.
        """
        return wait_breakdown(self.counters)

    @property
    def wait_us(self) -> int:
        """Total microseconds suspended (all wait classes)."""
        return sum(self.waits.values())

    def to_dict(self) -> dict:
        """JSON-safe rendering (exporters and artifacts)."""
        return {
            "txn_id": self.txn_id,
            "isolation": self.isolation,
            "outcome": self.outcome,
            "retries": self.retries,
            "victim_attempts": list(self.victim_attempts),
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "lock_waits": self.lock_waits,
            "wal_bytes": self.wal_bytes,
            "wait_us": self.wait_us,
            "waits": self.waits,
            "counters": dict(sorted(self.counters.items())),
        }


def accounting_records(stats: StatsRegistry) -> list[AccountingRecord]:
    """The accounting records retained in ``stats``'s event ring, oldest
    first.  ``obs.accounting_records`` counts every one ever emitted."""
    return [AccountingRecord(txn_id=record.txn_id, **record.payload)
            for record in stats.events.records("txn.accounting")]


class Transaction:
    """One unit of work; obtained from :class:`TransactionManager`."""

    def __init__(self, txn_id: int, manager: "TransactionManager",
                 isolation: IsolationLevel) -> None:
        self.txn_id = txn_id
        self.isolation = isolation
        self._manager = manager
        self._locks = manager.locks
        self._log = manager.log
        self._stats = manager.stats
        self.state = TxnState.ACTIVE
        #: Whether this transaction has written its BEGIN record, which
        #: precedes its first redo record: a read-only transaction logs
        #: nothing, not even its COMMIT or ABORT.
        self.logged = False
        self._undo: list[Callable[[], None]] = []
        #: Accounting sink: counter deltas charged to this transaction.
        self.acct: Counter[str] = Counter()
        #: Victim attempts folded into this transaction by
        #: :meth:`TransactionManager.restart`.
        self.retries = 0
        self.victim_attempts: tuple[int, ...] = ()
        #: Request deadline (serving layer): checked between lock-wait
        #: backoff steps; ``None`` means unbounded.
        self.deadline: Deadline | None = None

    def charging(self):
        """Context manager attributing counter increments to this txn."""
        return self._stats.charge(self.acct)

    # -- locking -------------------------------------------------------------

    def try_lock(self, resource: object, mode: LockMode) -> bool:
        """Attempt to lock ``resource``; False means the caller must wait."""
        self._check_active()
        return self._locks.try_acquire(self.txn_id, resource, mode)

    def lock(self, resource: object, mode: LockMode) -> None:
        """Lock ``resource`` or raise (single-threaded convenience path).

        A blocked request retries under a bounded exponential backoff until
        the manager's wait budget (simulated steps) is exhausted.  Raises
        :class:`~repro.errors.DeadlockError` if this transaction sits on a
        waits-for cycle, :class:`~repro.errors.LockTimeoutError` once the
        budget runs out — so callers can tell a victim (retry after abort)
        from plain contention (wait longer or shed load).

        With a request :class:`~repro.core.deadline.Deadline` attached to
        the transaction (serving layer), the deadline caps the remaining
        wait: an expired deadline aborts the wait immediately with
        :class:`~repro.errors.DeadlineExceededError` (non-retryable, the
        client ran out of time) instead of burning the rest of the budget.

        Under a serving layer the manager's ``lock_wait_yield`` hook runs
        between backoff steps with real-thread semantics: it releases the
        engine latch and sleeps briefly so the lock *holder*'s session can
        run on its own thread and release the lock.  Without a server the
        hook is ``None`` and the loop is the original single-threaded
        simulated wait.
        """
        if self.try_lock(resource, mode):
            self._stats.observe("lock.acquire_wait_steps", 0)
            return
        manager = self._manager
        budget = manager.lock_wait_budget
        backoff = LOCK_BACKOFF_INITIAL
        waited = 0
        while True:
            cycle = self._locks.find_deadlock()
            if cycle and self.txn_id in cycle:
                self._stats.add("txn.deadlocks")
                raise DeadlockError(
                    f"txn {self.txn_id} is a deadlock victim on "
                    f"{resource!r} (cycle {sorted(cycle)})")
            if self.deadline is not None and self.deadline.expired():
                self._locks.clear_waits(self.txn_id)
                self._stats.add("txn.deadline_exceeded")
                raise DeadlineExceededError(
                    f"txn {self.txn_id} ran out of deadline waiting for "
                    f"{resource!r} after {waited} simulated wait steps")
            if waited >= budget:
                self._locks.clear_waits(self.txn_id)
                self._stats.add("txn.lock_timeouts")
                raise LockTimeoutError(
                    f"txn {self.txn_id} gave up on {resource!r} after "
                    f"{waited} simulated wait steps (budget {budget})")
            waited += backoff
            self._stats.add("lock.wait_steps", backoff)
            backoff = min(backoff * 2, LOCK_BACKOFF_CAP)
            yield_hook = manager.lock_wait_yield
            if yield_hook is not None:
                # The latch-yielding sleep is the real suspension of the
                # interactive lock wait (DB2's IRLM lock suspension);
                # charged here — not inside the hook — so the latch
                # re-acquire after the sleep is part of the lock wait.
                with self._stats.wait_timer("lock.wait"):
                    yield_hook()
            if self.try_lock(resource, mode):
                self._stats.observe("lock.acquire_wait_steps", waited)
                return

    # -- logging and undo -----------------------------------------------------

    def log(self, op: LogOp, target: str = "", payload: bytes = b"",
            extra: bytes = b"") -> None:
        """Write a redo record under this transaction, its BEGIN record
        first if this is the first."""
        self._check_active()
        if not self.logged:
            self._log.append(self.txn_id, LogOp.BEGIN)
            self.logged = True
        self._log.append(self.txn_id, op, target, payload, extra)

    def on_abort(self, action: Callable[[], None]) -> None:
        """Register a logical undo action (run in reverse order on abort)."""
        self._check_active()
        self._undo.append(action)

    # -- completion -------------------------------------------------------------

    def commit(self) -> None:
        self._check_active()
        if self.logged:
            with self.charging():
                # If the COMMIT append raises (a simulated crash) the
                # transaction stays ACTIVE: its commit was never
                # acknowledged.
                self._manager.commit_record(self.txn_id)
        self.state = TxnState.COMMITTED
        self._undo.clear()
        self._manager._finish(self)

    def abort(self, account: bool = True) -> None:
        """Roll back.  ``account=False`` records no accounting event: a
        victim about to be restarted folds into its successor's record
        (:meth:`TransactionManager.restart`)."""
        self._check_active()
        with self.charging():
            for action in reversed(self._undo):
                action()
            self._undo.clear()
            if self.logged:
                self._log.append(self.txn_id, LogOp.ABORT)
            self._stats.add("txn.aborts")
        self.state = TxnState.ABORTED
        self._manager._finish(self, account)

    def _check_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"txn {self.txn_id} is {self.state.value}, not active")

    def __repr__(self) -> str:
        return f"Transaction({self.txn_id}, {self.state.value})"


class TransactionManager:
    """Creates transactions and owns the shared lock and log managers.

    ``lock_wait_budget`` bounds the interactive :meth:`Transaction.lock`
    retry loop.  With ``checkpoint_every`` > 0 a WAL checkpoint is written
    automatically every that many commits of transactions that logged
    something; ``on_checkpoint`` (typically the buffer pool's
    ``flush_all``) runs first, so the marker follows the page writes.
    """

    def __init__(self, locks: LockManager | None = None,
                 log: LogManager | None = None,
                 stats: StatsRegistry | None = None,
                 lock_wait_budget: int = 64,
                 checkpoint_every: int = 0,
                 on_checkpoint: Callable[[], None] | None = None) -> None:
        self.stats = default_stats(stats)
        self.locks = locks if locks is not None else LockManager(self.stats)
        self.log = log if log is not None else LogManager(self.stats)
        self.lock_wait_budget = lock_wait_budget
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        #: optional hook run between lock-wait backoff steps — the serving
        #: layer installs a latch-release-and-sleep here so that while one
        #: session waits for a lock, the holder's session can run on its
        #: own client thread and release it.  ``None`` (the default)
        #: keeps the single-threaded simulated wait loop unchanged.
        self.lock_wait_yield: Callable[[], None] | None = None
        self._commits_since_checkpoint = 0
        self._ids = itertools.count(1)
        self.active: dict[int, Transaction] = {}

    def begin(self, isolation: IsolationLevel = IsolationLevel.READ_COMMITTED
              ) -> Transaction:
        """Start a transaction.  Nothing is logged yet: its BEGIN record
        goes in front of its first redo record (:meth:`Transaction.log`),
        so a relational log holds nothing for a unit of work that changed
        nothing."""
        txn = Transaction(next(self._ids), self, isolation)
        self.active[txn.txn_id] = txn
        with txn.charging():
            self.stats.add("txn.begun")
        return txn

    def charging(self, txn_id: int):
        """Charge context for ``txn_id`` if it is active, else a no-op.

        ``Database.insert`` and ``Database.delete_row`` route their work
        through this, so per-transaction accounting needs no cooperation
        from their callers.  Subdocument updates (``XmlUpdater``) take no
        txn id and do not pass through it.
        """
        txn = self.active.get(txn_id)
        if txn is None:
            return nullcontext()
        return txn.charging()

    def commit_record(self, txn_id: int) -> None:
        """Harden ``txn_id``'s COMMIT record."""
        self.log.append(txn_id, LogOp.COMMIT)

    def checkpoint(self) -> None:
        """Run ``on_checkpoint``, then write a WAL CHECKPOINT marker."""
        if self.on_checkpoint is not None:
            self.on_checkpoint()
        self.log.checkpoint()
        self._commits_since_checkpoint = 0

    def restart(self, victim: Transaction) -> Transaction:
        """Begin the successor of ``victim``, an aborted deadlock or lock
        timeout victim, with the victim's isolation.

        The retry is charged to the victim, and the victim's accounting
        folds into the successor: its charged counters, the retry count
        and its txn id all land on the one record the final attempt
        emits (a retried transaction is one unit of work).
        """
        with victim.charging():
            self.stats.add("txn.retries")
        txn = self.begin(victim.isolation)
        txn.acct.update(victim.acct)
        txn.retries = victim.retries + 1
        txn.victim_attempts = victim.victim_attempts + (victim.txn_id,)
        return txn

    def adopt(self, log: LogManager) -> None:
        """Continue ``log``, a recovered engine's history.  Later txn ids
        are past every id in it, so a new COMMIT never claims the records
        of a transaction the crash cut."""
        self.log = log
        self._ids = itertools.count(
            1 + max((record.txn_id for record in log.records()), default=0))

    def _finish(self, txn: Transaction, account: bool = True) -> None:
        with txn.charging():
            self.locks.release_all(txn.txn_id)
        self.active.pop(txn.txn_id, None)
        if account:
            # The IFCID 3 analogue: one accounting record per finished
            # unit of work.  The event carries AccountingRecord's fields,
            # so accounting_records() rebuilds the record from it.  The
            # counters are copied first: a commit inside the transaction's
            # own charge would otherwise put the meta counter below in it.
            counters = dict(txn.acct)
            self.stats.add("obs.accounting_records")
            self.stats.events.emit(
                "txn.accounting", txn_id=txn.txn_id,
                isolation=txn.isolation.value,
                outcome="committed" if txn.state is TxnState.COMMITTED
                else "aborted",
                retries=txn.retries, victim_attempts=txn.victim_attempts,
                counters=counters)
        if txn.state is TxnState.COMMITTED and txn.logged and \
                self.checkpoint_every > 0:
            self._commits_since_checkpoint += 1
            if self._commits_since_checkpoint >= self.checkpoint_every:
                self.checkpoint()
