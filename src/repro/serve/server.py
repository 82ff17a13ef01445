"""The multi-client server: worker pool, engine latch, and request lifecycle.

:class:`DatabaseServer` turns a single-threaded
:class:`~repro.core.engine.Database` into a multi-client service the way
DB2 for z/OS fronts its data engine with a thread pool: N worker threads
(the concurrency tokens), a bounded admission queue, and per-client
:class:`~repro.serve.session.Session` state.  The engine's internals stay
single-threaded — every engine entry happens under ``Database.latch`` —
and concurrency comes from *yielding* that latch exactly where a session
sleeps anyway:

* between lock-wait backoff steps (``TransactionManager.lock_wait_yield``),
  so the session *holding* the contested lock can run on another worker
  and release it; and
* during victim-retry backoff (``Database.backoff_sleep``), so a backoff
  never stalls unrelated sessions.

Those are the only waits in the engine and both are bounded (wait budget,
retry limit, request deadline), so workers can never deadlock against each
other: every request finishes with a result or a typed error.

The request lifecycle is fully accounted: ``serve.requests`` →
(``serve.admitted`` | ``serve.shed_*``) → exactly one of
``serve.completed`` / ``serve.failed`` / ``serve.deadline_expired``, with
``serve.queue_wait_us`` and ``serve.request_us`` histograms for the
latency report.  On drain the server rolls back abandoned session
transactions.
"""

from __future__ import annotations

import itertools
import queue as _queue
import threading
import time
from collections import Counter
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
#: latch released*, letting the lock holder's session run on another worker.
LOCK_YIELD_S = 0.0005


class _Request:
    """One admitted unit of work and its completion state."""

    __slots__ = ("session", "work", "label", "deadline", "submitted_ns",
                 "done", "result", "error")

    def __init__(self, session: Session | None,
                 work: Callable[["Database"], Any], label: str,
                 deadline: Deadline | None, submitted_ns: int) -> None:
        self.session = session
        self.work = work
        self.label = label
        self.deadline = deadline
        self.submitted_ns = submitted_ns
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def finish(self, result: Any = None,
               error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self.done.set()

    def wait(self) -> Any:
        """Block until a worker finishes this request; raise its error."""
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.result


class DatabaseServer:
    """Thread-pool serving layer over one :class:`Database` (see module doc).

    Use as a context manager (``with DatabaseServer(db) as server``) or
    call :meth:`start` / :meth:`shutdown` explicitly.  Clients obtain a
    :class:`Session` from :meth:`session` and issue requests through it;
    each blocks its calling thread until the request completes or is shed.
    """

    #: Errors after which resubmitting the same request is sound: the
    #: transaction was aborted cleanly (victim) or never started (shed).
    RETRYABLE = (DeadlockError, LockTimeoutError, ServerOverloadedError)

    #: What ``_state_lock`` guards (read by ``python -m repro.analyze``).
    GUARDED_BY = {"_state_lock": ("_state", "_sessions", "_crashed")}

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.stats = db.stats
        config = db.config
        self.workers = max(1, config.serve_workers)
        #: The bounded wait queue in front of the worker pool (see
        #: :meth:`submit`); workers take requests from it in FIFO order.
        self.queue: _queue.Queue = _queue.Queue(
            maxsize=max(1, config.serve_queue_limit))
        self._threads: list[threading.Thread] = []
        self._state = "new"  # new -> serving -> draining -> closed
        #: Guards the server's own shared mutable state: ``_state``,
        #: ``_sessions`` and ``_crashed``.  Never acquired while holding
        #: ``db.latch``-ordered engine locks except as latch -> _state_lock
        #: (shutdown's crash note); the reverse nesting is forbidden, and
        #: LATCH001 flags a lock taken inside a ``_state_lock`` region.
        self._state_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._sessions: dict[int, Session] = {}
        #: First :class:`SimulatedCrash` a worker hit, if any (a crash
        #: plan fired mid-request): the server stops admitting and the
        #: harness re-raises it from :meth:`shutdown`.  Workers and the
        #: shutdown path race to record it, so all access goes through
        #: ``_state_lock`` (:meth:`_note_crash` / :attr:`crashed`).
        self._crashed: SimulatedCrash | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DatabaseServer":
        """Install the engine yield hooks and start the worker pool."""
        with self._state_lock:
            if self._state != "new":
                raise ServerClosedError(
                    f"server cannot start from state {self._state!r}")
            self._state = "serving"
        self.db.txns.lock_wait_yield = self._yield_latch
        self.db.backoff_sleep = self._latch_sleep
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` finish queued work first.

        Without ``drain`` every queued request fails immediately with
        :class:`~repro.errors.ServerClosedError`.  Either way all workers
        are joined, abandoned session transactions are rolled back, the
        engine yield hooks are uninstalled (the database is usable
        single-threaded again).  Idempotent.
        """
        with self._state_lock:
            if self._state in ("closed", "new"):
                self._state = "closed"
                return
            self._state = "draining" if drain else "closed"
        if not drain:
            self._purge_queue()
        for _ in self._threads:
            self.queue.put(None)
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        self._purge_queue()  # requests admitted after the sentinels
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

        Runs on the client's thread (not through the admission queue) so
        sessions can still be closed while the server drains.
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
               deadline: Deadline | None) -> _Request:
        """Admit one request (or shed it); returns without waiting.

        Admission is DB2 connection governance in miniature: the workers
        are the concurrency tokens, :attr:`queue` is the bounded wait
        queue, and a request that finds the queue full is shed at once
        with :class:`~repro.errors.ServerOverloadedError` — the client
        still holds its timeout budget, so rejecting now is cheaper than
        timing out after queueing.  Every attempt bumps ``serve.requests``
        and ends in exactly one of ``serve.admitted``,
        ``serve.shed_queue_full`` or ``serve.shed_closed``.
        """
        self.stats.add("serve.requests")
        state = self.state
        if state != "serving":
            self.stats.add("serve.shed_closed")
            raise ServerClosedError(
                f"server is {state}; request {label!r} rejected")
        request = _Request(session, work, label, deadline,
                           time.monotonic_ns())
        try:
            self.queue.put_nowait(request)
        except _queue.Full:
            self.stats.add("serve.shed_queue_full")
            raise ServerOverloadedError(
                f"request shed before any work started: wait queue full "
                f"({self.queue.maxsize} waiting) — safe to retry after "
                f"backoff") from None
        self.stats.add("serve.admitted")
        return request

    def call(self, session: Session | None,
             work: Callable[["Database"], Any], label: str,
             deadline: Deadline | None) -> Any:
        """Admit one request and block until its outcome."""
        return self.submit(session, work, label, deadline).wait()

    @classmethod
    def is_retryable(cls, error: BaseException) -> bool:
        """Whether resubmitting after ``error`` is sound (victim/shed)."""
        return isinstance(error, cls.RETRYABLE)

    # -- worker internals --------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self.queue.get()
            if request is None or not self._process(request):
                return

    def _process(self, request: _Request) -> bool:
        """Run one request; False tells the worker to stop (crash).

        The whole lifecycle is charged to a fresh sink, the request's one
        wait clock, backdated to the submit timestamp, so the request's
        elapsed time decomposes as ``elapsed = cpuish + Σ waits``: the
        admission-queue wait charged up front, the engine-latch
        acquisition as ``latch.wait``, and every suspension the work
        itself hits (lock waits, buffer I/O, retry backoff) through the
        engine's own wait timers.  The clock's breakdown goes into the
        request's ``serve.request`` record and its total into the
        ``waits.request_wait_us`` histogram.  The worker also stamps the
        request's event records with its label, which ties the
        ``txn.accounting`` records of the work to the request that ran it.
        """
        queue_wait_us = (time.monotonic_ns() - request.submitted_ns) // 1000
        self.stats.observe("serve.queue_wait_us", queue_wait_us)
        clock: Counter[str] = Counter()
        with self.stats.events.context(request.label), \
                self.stats.charge(clock):
            self.stats.charge_wait("admission.queue", queue_wait_us)
            if request.deadline is not None and request.deadline.expired():
                self.stats.add("serve.deadline_expired")
                request.finish(error=DeadlineExceededError(
                    f"request {request.label!r} spent its deadline in the "
                    f"admission queue ({queue_wait_us}us)"))
                self._observe_request(request, clock)
                return True
            try:
                latch_wait_from = time.monotonic_ns()
                with self.db.latch:
                    # Charged inside the region (from a timestamp taken
                    # before it) so the latch stays a plain ``with`` block
                    # for the static latch-inference checkers.
                    self.stats.charge_wait(
                        "latch.wait",
                        (time.monotonic_ns() - latch_wait_from) // 1000)
                    result = request.work(self.db)
            except SimulatedCrash as crash:
                # A crash plan fired on this worker: the simulated process
                # is dead.  Record it, stop admitting, and let shutdown
                # re-raise.
                self._note_crash(crash)
                with self._state_lock:
                    if self._state == "serving":
                        self._state = "draining"
                request.finish(error=crash)
                self._observe_request(request, clock)
                return False
            except BaseException as error:
                # The server/client boundary: every failure is marshalled
                # to the waiting client thread, which re-raises it from
                # ``_Request.wait`` — nothing is swallowed.
                # Non-``Exception`` escapees (KeyboardInterrupt,
                # SystemExit) additionally propagate here to take the
                # worker down.
                if not isinstance(error, Exception):
                    request.finish(error=error)
                    raise
                if isinstance(error, DeadlineExceededError):
                    self.stats.add("serve.deadline_expired")
                else:
                    self.stats.add("serve.failed")
                    if isinstance(error, FaultInjectionError):
                        self.stats.add("serve.chaos_faults")
                request.finish(error=error)
            else:
                self.stats.add("serve.completed")
                request.finish(result=result)
            self._observe_request(request, clock)
            return True

    def _observe_request(self, request: _Request,
                         clock: Counter[str]) -> None:
        elapsed_us = (time.monotonic_ns() - request.submitted_ns) // 1000
        self.stats.observe("serve.request_us", elapsed_us)
        waits = wait_breakdown(clock)
        waited_us = sum(waits.values())
        if waited_us > 0:
            self.stats.observe("waits.request_wait_us", waited_us)
        error = request.error
        self.stats.events.emit(
            "serve.request", request=request.label, elapsed_us=elapsed_us,
            outcome="ok" if error is None else type(error).__name__,
            waits=waits)

    def _purge_queue(self) -> None:
        while True:
            try:
                request = self.queue.get_nowait()
            except _queue.Empty:
                return
            if request is None:
                continue
            self.stats.add("serve.shed_closed")
            request.finish(error=ServerClosedError(
                f"server shut down before request {request.label!r} ran"))

    # -- latch yielding ----------------------------------------------------

    def _yield_latch(self) -> None:
        """Between lock-wait backoff steps: let the lock holder run."""
        self._latch_sleep(LOCK_YIELD_S)

    def _latch_sleep(self, delay: float) -> None:
        """Sleep ``delay`` seconds with the engine latch released.

        Called from engine code on a worker thread that holds the latch
        exactly once.  Falls back to a plain sleep if the calling thread
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
