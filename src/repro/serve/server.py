"""The multi-client server: admission tokens, engine latch, request lifecycle.

:class:`DatabaseServer` turns a single-threaded
:class:`~repro.core.engine.Database` into a multi-client service the way
DB2 for z/OS runs SQL: each request executes on the thread of the client
that issued it (DB2's allied thread), and a count of concurrency tokens
caps how many run at once (CTHREAD).  Admission hands out
``serve_workers`` tokens first come, first served, with at most
``serve_queue_limit`` requests waiting for one; per-client state lives in
:class:`~repro.serve.session.Session`.  The engine's internals stay
single-threaded — every engine entry happens under ``Database.latch`` —
and concurrency comes from *yielding* that latch exactly where a session
sleeps anyway:

* between lock-wait backoff steps (``TransactionManager.lock_wait_yield``),
  so the session *holding* the contested lock can run on its own client
  thread and release it; and
* during victim-retry backoff (``Database.backoff_sleep``), so a backoff
  never stalls unrelated sessions.

Those are the only waits in the engine and both are bounded (wait budget,
retry limit, request deadline), so token holders can never deadlock
against each other: every request finishes with a result or a typed error.

The request lifecycle is fully accounted: ``serve.requests`` →
(``serve.admitted`` | ``serve.shed_*``) → exactly one of
``serve.completed`` / ``serve.failed`` / ``serve.deadline_expired``, with
``serve.queue_wait_us`` and ``serve.request_us`` histograms for the
latency report.  On drain the server rolls back abandoned session
transactions.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, deque
from typing import TYPE_CHECKING, Any, Callable

from repro.core.deadline import Deadline
from repro.core.stats import wait_breakdown
from repro.errors import (DeadlineExceededError, DeadlockError,
                          FaultInjectionError, LockTimeoutError,
                          ServerClosedError, ServerOverloadedError)
from repro.fault.injector import SimulatedCrash
from repro.rdb.txn import TxnState
from repro.serve.session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import Database

#: Seconds a server-mode lock wait sleeps per backoff step *with the engine
#: latch released*, letting the lock holder's session run on its thread.
LOCK_YIELD_S = 0.0005


class DatabaseServer:
    """Token-admission serving layer over one :class:`Database` (see
    module doc).

    Use as a context manager (``with DatabaseServer(db) as server``) or
    call :meth:`start` / :meth:`shutdown` explicitly.  Clients obtain a
    :class:`Session` from :meth:`session` and issue requests through it;
    each runs on its calling thread and returns when the request completes
    or is shed.
    """

    #: Errors after which resubmitting the same request is sound: the
    #: transaction was aborted cleanly (victim) or never started (shed).
    RETRYABLE = (DeadlockError, LockTimeoutError, ServerOverloadedError)

    #: What ``_state_lock`` guards (read by ``python -m repro.analyze``).
    GUARDED_BY = {"_state_lock": ("_state", "_sessions", "_crashed",
                                  "_free", "_waiting")}

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.stats = db.stats
        config = db.config
        #: The concurrency tokens (DB2's CTHREAD): a request runs only
        #: while it holds one (see :meth:`submit`).
        self.token_count = max(1, config.serve_workers)
        #: Cap on :attr:`_waiting`; a request beyond it is shed.
        self.queue_limit = max(1, config.serve_queue_limit)
        self._state = "new"  # new -> serving -> draining -> closed
        #: Guards the server's own shared mutable state: ``_state``,
        #: ``_sessions``, ``_crashed`` and the tokens.  Never acquired
        #: while holding ``db.latch``-ordered engine locks except as
        #: latch -> _state_lock (shutdown's crash note); the reverse nesting
        #: is forbidden, and LATCH001 flags a lock or a token taken inside
        #: a ``_state_lock`` region.
        self._state_lock = threading.Lock()
        #: Tokens no request holds.
        self._free = self.token_count
        #: One pre-acquired turn lock per request waiting for a token, in
        #: arrival order: a release hands its token to the first one by
        #: releasing that lock (:meth:`_release_token`).
        self._waiting: deque[threading.Lock] = deque()
        self._session_ids = itertools.count(1)
        self._sessions: dict[int, Session] = {}
        #: First :class:`SimulatedCrash` a request hit, if any (a crash
        #: plan fired mid-request): the server stops admitting and the
        #: harness re-raises it from :meth:`shutdown`.  Client threads and
        #: the shutdown path race to record it, so all access goes through
        #: ``_state_lock`` (:meth:`_note_crash` / :attr:`crashed`).
        self._crashed: SimulatedCrash | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DatabaseServer":
        """Install the engine yield hooks and start admitting requests."""
        with self._state_lock:
            if self._state != "new":
                raise ServerClosedError(
                    f"server cannot start from state {self._state!r}")
            self._state = "serving"
        self.db.txns.lock_wait_yield = self._yield_latch
        self.db.backoff_sleep = self._latch_sleep
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` finish waiting requests first.

        Shutdown takes every token, queueing behind the requests already
        waiting, so it returns only after the requests in flight have
        finished.  With ``drain`` the waiting requests run first; without
        it each fails with :class:`~repro.errors.ServerClosedError` when
        its turn comes.  Then abandoned session transactions are rolled
        back and the engine yield hooks are uninstalled (the database is
        usable single-threaded again).  Idempotent.
        """
        with self._state_lock:
            if self._state in ("closed", "new"):
                self._state = "closed"
                return
            self._state = "draining" if drain else "closed"
        for _ in range(self.token_count):
            self._take_token()
        with self._state_lock:
            abandoned = list(self._sessions.values())
            self._sessions.clear()
        if abandoned:
            self.stats.add("serve.sessions_closed", len(abandoned))
        with self.db.latch:
            for session in abandoned:
                session.closed = True
                try:
                    self._rollback_abandoned(session)
                except SimulatedCrash as crash:
                    # A crash at a log point halted the log, so the
                    # abort's ABORT append re-raises it; keep tearing
                    # down — shutdown re-raises it at the end.
                    self._note_crash(crash)
        self.db.txns.lock_wait_yield = None
        self.db.backoff_sleep = None
        with self._state_lock:
            if self._state != "closed":
                self._state = "closed"
        # Give the tokens back, so a shutdown racing this one finishes too.
        for _ in range(self.token_count):
            self._release_token()
        crashed = self.crashed
        if crashed is not None:
            raise crashed

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    @property
    def crashed(self) -> SimulatedCrash | None:
        with self._state_lock:
            return self._crashed

    def _note_crash(self, crash: SimulatedCrash) -> None:
        """Record the first simulated crash; later ones lose the race."""
        with self._state_lock:
            if self._crashed is None:
                self._crashed = crash

    # -- sessions ----------------------------------------------------------

    def session(self) -> Session:
        """Open a new client session."""
        session = Session(self, next(self._session_ids))
        with self._state_lock:
            if self._state != "serving":
                raise ServerClosedError(
                    f"server is {self._state}, not accepting sessions")
            # Registered in the same critical section as the state check:
            # a session admitted here is either rolled back by its owner
            # or captured by shutdown's copy of the map — never lost to a
            # serving->draining flip between check and insert.
            self._sessions[session.session_id] = session
        self.stats.add("serve.sessions_opened")
        return session

    def _release_session(self, session: Session) -> None:
        """Session close: roll back its open txn directly under the latch.

        Takes the latch directly, not a concurrency token, so sessions can
        still be closed while the server drains.
        """
        with self._state_lock:
            registered = self._sessions.pop(session.session_id,
                                            None) is not None
        with self.db.latch:
            self._rollback_abandoned(session)
        # Whoever removes the session from the map counts its close —
        # here, or shutdown for the sessions it abandons — so after a
        # shutdown ``serve.sessions_closed`` equals ``sessions_opened``.
        if registered:
            self.stats.add("serve.sessions_closed")

    @staticmethod
    def _rollback_abandoned(session: Session) -> None:
        txn = session.txn
        session.txn = None
        if txn is not None and txn.state is TxnState.ACTIVE:
            txn.abort()

    # -- request path ------------------------------------------------------

    def resolve_deadline(self, deadline: "Deadline | float | None"
                         ) -> Deadline | None:
        """Normalize a client deadline: seconds → :class:`Deadline`;
        ``None`` stays ``None`` (no deadline)."""
        if deadline is None or isinstance(deadline, Deadline):
            return deadline
        return Deadline.after(float(deadline))

    def submit(self, session: Session | None,
               work: Callable[["Database"], Any], label: str,
               deadline: Deadline | None) -> Any:
        """Run one request on the calling thread; return its result.

        Admission is DB2 connection governance in miniature: a request
        takes one of the ``serve_workers`` concurrency tokens, waiting in
        arrival order while all are held, and a request that finds
        ``serve_queue_limit`` requests already waiting is shed at once
        with :class:`~repro.errors.ServerOverloadedError` — the client
        still holds its timeout budget, so rejecting now is cheaper than
        timing out after queueing.  Every attempt bumps ``serve.requests``
        and ends in exactly one of ``serve.admitted``,
        ``serve.shed_queue_full`` or ``serve.shed_closed``.  An admitted
        request runs ``work`` (see :meth:`_process`) and returns its
        result or raises its error.
        """
        submitted_ns = time.monotonic_ns()
        self.stats.add("serve.requests")
        self._admit(label)
        try:
            return self._process(work, label, deadline, submitted_ns)
        finally:
            self._release_token()

    @classmethod
    def is_retryable(cls, error: BaseException) -> bool:
        """Whether resubmitting after ``error`` is sound (victim/shed)."""
        return isinstance(error, cls.RETRYABLE)

    # -- request internals -------------------------------------------------

    def _admit(self, label: str) -> None:
        """Take a token for one request, or shed it with a typed error."""
        turn_lock = threading.Lock()
        turn_lock.acquire()
        with self._state_lock:
            state = self._state
            waits = not self._free
            full = waits and len(self._waiting) >= self.queue_limit
            if state == "serving" and not waits:
                self._free -= 1
            elif state == "serving" and not full:
                self._waiting.append(turn_lock)
        if state != "serving":
            self.stats.add("serve.shed_closed")
            raise ServerClosedError(
                f"server is {state}; request {label!r} rejected")
        if full:
            self.stats.add("serve.shed_queue_full")
            raise ServerOverloadedError(
                f"request shed before any work started: wait queue full "
                f"({self.queue_limit} waiting) — safe to retry after "
                f"backoff")
        self.stats.add("serve.admitted")
        if not waits:
            return
        turn_lock.acquire()  # until a release hands this request a token
        if self.state == "closed":
            self._release_token()
            self.stats.add("serve.shed_closed")
            raise ServerClosedError(
                f"server shut down before request {label!r} ran")

    def _take_token(self) -> None:
        """Block until the calling thread holds a token, queueing behind
        the requests already waiting (shutdown's path: no admission)."""
        turn_lock = threading.Lock()
        turn_lock.acquire()
        with self._state_lock:
            if self._free:
                self._free -= 1
                return
            self._waiting.append(turn_lock)
        turn_lock.acquire()

    def _release_token(self) -> None:
        """Hand the token to the longest-waiting request, or free it.

        Handing it over, rather than freeing it for anyone to take, keeps
        the wait first come, first served: a client that finishes one
        request cannot take the token back ahead of the requests already
        waiting.
        """
        with self._state_lock:
            if self._waiting:
                self._waiting.popleft().release()
            else:
                self._free += 1

    def _process(self, work: Callable[["Database"], Any], label: str,
                 deadline: Deadline | None, submitted_ns: int) -> Any:
        """Run one admitted request under the engine latch.

        The whole lifecycle is charged to a fresh sink, the request's one
        wait clock, backdated to the submit timestamp, so the request's
        elapsed time decomposes as ``elapsed = cpuish + Σ waits``: the
        token wait charged up front as ``admission.queue``, the
        engine-latch acquisition as ``latch.wait``, and every suspension
        the work itself hits (lock waits, buffer I/O, retry backoff)
        through the engine's own wait timers.  The clock's breakdown goes
        into the request's ``serve.request`` record and its total into
        the ``waits.request_wait_us`` histogram.  The request's event
        records are stamped with its label, which ties the
        ``txn.accounting`` records of the work to the request that ran it.
        """
        queue_wait_us = (time.monotonic_ns() - submitted_ns) // 1000
        self.stats.observe("serve.queue_wait_us", queue_wait_us)
        clock: Counter[str] = Counter()
        outcome = "ok"
        with self.stats.events.context(label), self.stats.charge(clock):
            self.stats.charge_wait("admission.queue", queue_wait_us)
            try:
                if deadline is not None and deadline.expired():
                    raise DeadlineExceededError(
                        f"request {label!r} spent its deadline in the "
                        f"admission queue ({queue_wait_us}us)")
                latch_wait_from = time.monotonic_ns()
                with self.db.latch:
                    # Charged inside the region (from a timestamp taken
                    # before it) so the latch stays a plain ``with`` block
                    # for the static latch-inference checkers.
                    self.stats.charge_wait(
                        "latch.wait",
                        (time.monotonic_ns() - latch_wait_from) // 1000)
                    result = work(self.db)
            except BaseException as error:
                # Every failure propagates to the client that issued the
                # request; nothing is swallowed.  Non-``Exception``
                # escapees (KeyboardInterrupt, SystemExit) are counted in
                # no outcome counter.
                outcome = type(error).__name__
                if isinstance(error, SimulatedCrash):
                    # A crash plan fired: the simulated process is dead.
                    # Record it, stop admitting, and let shutdown re-raise.
                    self._note_crash(error)
                    with self._state_lock:
                        if self._state == "serving":
                            self._state = "draining"
                elif isinstance(error, DeadlineExceededError):
                    self.stats.add("serve.deadline_expired")
                elif isinstance(error, Exception):
                    self.stats.add("serve.failed")
                    if isinstance(error, FaultInjectionError):
                        self.stats.add("serve.chaos_faults")
                raise
            else:
                self.stats.add("serve.completed")
                return result
            finally:
                self._observe_request(label, submitted_ns, clock, outcome)

    def _observe_request(self, label: str, submitted_ns: int,
                         clock: Counter[str], outcome: str) -> None:
        elapsed_us = (time.monotonic_ns() - submitted_ns) // 1000
        self.stats.observe("serve.request_us", elapsed_us)
        waits = wait_breakdown(clock)
        waited_us = sum(waits.values())
        if waited_us > 0:
            self.stats.observe("waits.request_wait_us", waited_us)
        self.stats.events.emit(
            "serve.request", request=label, elapsed_us=elapsed_us,
            outcome=outcome, waits=waits)

    # -- latch yielding ----------------------------------------------------

    def _yield_latch(self) -> None:
        """Between lock-wait backoff steps: let the lock holder run."""
        self._latch_sleep(LOCK_YIELD_S)

    def _latch_sleep(self, delay: float) -> None:
        """Sleep ``delay`` seconds with the engine latch released.

        Called from engine code on a request's thread, which holds the
        latch exactly once.  Falls back to a plain sleep if the calling thread
        does not own the latch (an engine used directly while a server is
        attached — supported but single-threaded).
        """
        try:
            self.db.latch.release()
        except RuntimeError:
            if delay > 0:
                time.sleep(delay)
            return
        try:
            if delay > 0:
                time.sleep(delay)
            else:
                time.sleep(0)
        finally:
            self.db.latch.acquire()
