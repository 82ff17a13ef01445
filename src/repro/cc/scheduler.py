"""Deterministic concurrent-workload simulator.

Concurrency experiments need reproducible interleavings, so instead of
threads the engine runs transaction *programs* (generators of actions) under
a seeded round-robin/random scheduler.  Lock requests that would block leave
the program waiting; a waits-for cycle aborts a victim (which may restart).
The scheduler reports committed/aborted counts, wait steps and makespan —
the measures experiments E9a/E9b compare across protocols.

Robustness knobs: ``wait_budget`` bounds how long (in simulated steps,
accumulated through a bounded exponential backoff) one program may stay
blocked on a lock before it is aborted as a *timeout* victim, and
``max_restarts`` bounds how often a victim — deadlock or timeout — is
restarted before it is given up on, so contended workloads terminate
instead of livelocking.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.stats import StatsRegistry
from repro.errors import TransactionError
from repro.rdb.locks import LockManager
from repro.rdb.txn import emit_accounting


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
    timeout_aborts: int = 0
    restarts: int = 0
    #: programs that exhausted their restart budget and never committed
    failed: list[str] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return self.total_steps


class _Runner:
    def __init__(self, name: str, body: ProgramBody, txn_id: int,
                 restartable: bool) -> None:
        self.name = name
        self.body = body
        self.txn_id = txn_id
        self.restartable = restartable
        self.iterator = body(txn_id)
        self.pending: object | None = None
        self.done = False
        self.committed = False
        self.restarts = 0
        self.waited = 0     # simulated steps spent blocked on current lock
        self.backoff = 0    # next cooldown length (0 = no backoff yet)
        self.cooldown = 0   # steps to skip before retrying the lock
        #: Accounting sink; survives restarts so victim attempts fold into
        #: the one record the program finally emits.
        self.sink: Counter[str] = Counter()
        self.victim_txns: list[int] = []


class Scheduler:
    """Runs programs to completion under a lock manager.

    ``wait_budget`` (simulated steps; ``None`` disables timeouts) bounds
    blocked waiting per lock request; waiting accrues through a bounded
    exponential backoff starting at ``backoff_initial`` steps and doubling
    up to ``backoff_cap``.  ``max_restarts`` (``None`` = unlimited) bounds
    how often one program is restarted after being chosen as a deadlock or
    timeout victim.  Every finished program records one accounting event
    in ``stats.events``, the stream interactive transactions record in.
    """

    def __init__(self, locks: LockManager, seed: int = 0,
                 max_steps: int = 100_000,
                 wait_budget: int | None = None,
                 backoff_initial: int = 1,
                 backoff_cap: int = 16,
                 max_restarts: int | None = None,
                 stats: StatsRegistry | None = None) -> None:
        self.locks = locks
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        self.wait_budget = wait_budget
        self.backoff_initial = max(1, backoff_initial)
        self.backoff_cap = max(1, backoff_cap)
        self.max_restarts = max_restarts
        self.stats = stats if stats is not None else locks.stats
        self._next_txn = 1000  # distinct from interactive txns

    def run(self, programs: list[tuple[str, ProgramBody]],
            restartable: bool = True,
            round_robin: bool = False) -> ScheduleResult:
        """Execute all programs; returns aggregate statistics."""
        runners = []
        for name, body in programs:
            self._next_txn += 1
            runners.append(_Runner(name, body, self._next_txn, restartable))
        result = ScheduleResult()
        active = list(runners)
        cursor = 0
        while active:
            result.total_steps += 1
            if result.total_steps > self.max_steps:
                raise TransactionError(
                    "scheduler exceeded max steps (livelock?)")
            runner = self._choose(active, cursor, round_robin)
            cursor += 1
            # One simulated step passes for every program backing off —
            # whether or not anything else was runnable this step.
            for waiting in active:
                if waiting is not runner and waiting.cooldown > 0:
                    waiting.cooldown -= 1
            if runner is None:
                continue
            with self.stats.charge(runner.sink):
                self._step(runner, result)
            if runner.done:
                self._emit(runner)
                active.remove(runner)
                continue
            if self.wait_budget is not None and \
                    runner.waited >= self.wait_budget:
                self._abort(runner, result, reason="timeout")
                if runner.done:
                    self._emit(runner)
                    active.remove(runner)
                continue
            # Deadlock handling after blocked steps.  The scan is charged
            # to the runner whose blocked step triggered it.
            with self.stats.charge(runner.sink):
                cycle = self.locks.find_deadlock()
            if cycle:
                victim = self._pick_victim(cycle, runners)
                self._abort(victim, result, reason="deadlock")
                if victim.done:
                    self._emit(victim)
                    active.remove(victim)
        return result

    def _emit(self, runner: _Runner) -> None:
        """Record the finished program's accounting (one record, with all
        victim attempts folded in)."""
        emit_accounting(
            self.stats, runner.txn_id,
            "-",  # scheduler programs manage their own locks
            "committed" if runner.committed else "aborted",
            runner.restarts, tuple(runner.victim_txns), dict(runner.sink))

    def _choose(self, active: list[_Runner], cursor: int,
                round_robin: bool) -> _Runner | None:
        ready = [runner for runner in active if runner.cooldown == 0]
        if not ready:
            return None
        if round_robin:
            return ready[cursor % len(ready)]
        return self.rng.choice(ready)

    def _step(self, runner: _Runner, result: ScheduleResult) -> None:
        action = runner.pending
        if action is None:
            try:
                action = next(runner.iterator)
            except StopIteration:
                self.locks.release_all(runner.txn_id)
                runner.done = True
                runner.committed = True
                result.committed += 1
                result.commit_order.append(runner.name)
                return
        if isinstance(action, Lock):
            if self.locks.try_acquire(runner.txn_id, action.resource,
                                      action.mode):
                runner.pending = None
                runner.waited = 0
                runner.backoff = 0
            else:
                runner.pending = action
                result.wait_steps += 1
                if self.wait_budget is not None:
                    # Exponential backoff: skip this runner for a while and
                    # charge the skipped steps against its wait budget.
                    runner.backoff = min(
                        runner.backoff * 2 or self.backoff_initial,
                        self.backoff_cap)
                    runner.cooldown = runner.backoff
                    runner.waited += 1 + runner.backoff
        elif isinstance(action, Do):
            action.effect()
            runner.pending = None
        else:
            raise TransactionError(f"unknown scheduler action {action!r}")

    def _pick_victim(self, cycle: list[int],
                     runners: list[_Runner]) -> _Runner:
        by_txn = {runner.txn_id: runner for runner in runners}
        # Youngest (largest txn id) dies — deterministic.
        victim_txn = max(t for t in cycle if t in by_txn)
        return by_txn[victim_txn]

    def _abort(self, runner: _Runner, result: ScheduleResult,
               reason: str) -> None:
        """Abort ``runner`` and restart it if its budget allows.

        A non-restartable victim (or one out of restarts) is marked done
        immediately; the caller removes it from the active set in the same
        iteration.
        """
        with self.stats.charge(runner.sink):
            self.locks.release_all(runner.txn_id)
            runner.iterator.close()
            result.aborted += 1
            if reason == "deadlock":
                result.deadlock_aborts += 1
                self.stats.add("txn.deadlock_aborts")
            else:
                result.timeout_aborts += 1
                self.stats.add("txn.timeout_aborts")
            out_of_restarts = self.max_restarts is not None and \
                runner.restarts >= self.max_restarts
            if runner.restartable and not out_of_restarts:
                runner.restarts += 1
                result.restarts += 1
                self.stats.add("txn.retries")
        if runner.restartable and not out_of_restarts:
            runner.victim_txns.append(runner.txn_id)
            self._next_txn += 1
            runner.txn_id = self._next_txn
            runner.iterator = runner.body(runner.txn_id)
            runner.pending = None
            runner.waited = 0
            runner.backoff = 0
            runner.cooldown = 0
        else:
            runner.done = True
            result.failed.append(runner.name)
