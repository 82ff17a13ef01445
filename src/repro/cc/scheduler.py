"""Deterministic concurrent-workload simulator.

Concurrency experiments need reproducible interleavings, so instead of
threads the engine runs transaction *programs* (generators of actions) under
a seeded random or round-robin scheduler.  Each program runs as one of the
engine's own transactions, begun from a
:class:`~repro.rdb.txn.TransactionManager` over the given lock manager: its
lock requests go through ``txn.try_lock``, a request that would block leaves
the program waiting, and a finished program commits, which releases its
locks and records its one accounting event.  A waits-for cycle aborts its
youngest transaction, which restarts as the next transaction with the
victim's accounting folded in (:meth:`TransactionManager.restart`, the fold
``Database.run_in_txn`` uses).  Only the interleaving is the scheduler's
own.  It reports committed/aborted counts, wait steps and makespan — the
measures experiments E9a/E9b compare across protocols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.stats import StatsRegistry
from repro.errors import TransactionError
from repro.rdb.locks import LockManager
from repro.rdb.txn import Transaction, TransactionManager, TxnState

#: Livelock guard: a run taking more scheduling steps than this raises.
MAX_STEPS = 100_000


#: Program actions.
@dataclass(frozen=True)
class Lock:
    """Request a lock; the program resumes when granted."""

    resource: object
    mode: object


@dataclass(frozen=True)
class Do:
    """Run a side effect (must not block)."""

    effect: Callable[[], None]


#: A program body: receives its txn id, yields actions, returns at commit.
ProgramBody = Callable[[int], Iterator[object]]


@dataclass
class ScheduleResult:
    committed: int = 0
    aborted: int = 0
    wait_steps: int = 0
    total_steps: int = 0
    commit_order: list[str] = field(default_factory=list)
    deadlock_aborts: int = 0
    restarts: int = 0

    @property
    def makespan(self) -> int:
        return self.total_steps


class _Runner:
    def __init__(self, name: str, body: ProgramBody,
                 txn: Transaction) -> None:
        self.name = name
        self.body = body
        self.txn = txn
        self.iterator = body(txn.txn_id)
        self.pending: object | None = None


class Scheduler:
    """Runs programs to completion under a lock manager.

    A blocked program waits until its lock is granted; only a deadlock
    aborts it, and a victim always restarts.  Every finished program
    records one accounting event in ``stats.events``, through the same
    transaction commit interactive transactions use.
    """

    def __init__(self, locks: LockManager, seed: int = 0,
                 stats: StatsRegistry | None = None) -> None:
        self.locks = locks
        self.rng = random.Random(seed)
        self.stats = stats if stats is not None else locks.stats
        self.txns = TransactionManager(locks, stats=self.stats)

    def run(self, programs: list[tuple[str, ProgramBody]],
            round_robin: bool = False) -> ScheduleResult:
        """Execute all programs; returns aggregate statistics."""
        runners = [_Runner(name, body, self.txns.begin())
                   for name, body in programs]
        result = ScheduleResult()
        active = list(runners)
        cursor = 0
        while active:
            result.total_steps += 1
            if result.total_steps > MAX_STEPS:
                raise TransactionError(
                    "scheduler exceeded max steps (livelock?)")
            if round_robin:
                runner = active[cursor % len(active)]
            else:
                runner = self.rng.choice(active)
            cursor += 1
            # The step and the deadlock scan after it are charged to the
            # runner that took the step.
            with runner.txn.charging():
                self._step(runner, result)
                if runner.txn.state is TxnState.COMMITTED:
                    active.remove(runner)
                    continue
                cycle = self.locks.find_deadlock()
            if cycle:
                # The youngest (largest txn id) dies — deterministic.
                by_txn = {other.txn.txn_id: other for other in runners}
                self._restart(by_txn[max(t for t in cycle if t in by_txn)],
                              result)
        return result

    def _step(self, runner: _Runner, result: ScheduleResult) -> None:
        action = runner.pending
        if action is None:
            try:
                action = next(runner.iterator)
            except StopIteration:
                runner.txn.commit()
                result.committed += 1
                result.commit_order.append(runner.name)
                return
        if isinstance(action, Lock):
            if runner.txn.try_lock(action.resource, action.mode):
                runner.pending = None
            else:
                runner.pending = action
                result.wait_steps += 1
        elif isinstance(action, Do):
            action.effect()
            runner.pending = None
        else:
            raise TransactionError(f"unknown scheduler action {action!r}")

    def _restart(self, runner: _Runner, result: ScheduleResult) -> None:
        """Abort ``runner``'s transaction as a deadlock victim and run its
        program again as the successor transaction."""
        victim = runner.txn
        with victim.charging():
            self.stats.add("txn.deadlock_aborts")
            runner.iterator.close()
        victim.abort(account=False)
        result.aborted += 1
        result.deadlock_aborts += 1
        result.restarts += 1
        runner.txn = self.txns.restart(victim)
        runner.iterator = runner.body(runner.txn.txn_id)
        runner.pending = None
