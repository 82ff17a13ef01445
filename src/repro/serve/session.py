"""Per-client sessions: transaction state.

A :class:`Session` is the serving layer's unit of client state — the
analogue of a DB2 *thread* bound to one connection.  It owns the session's
**transaction state**: at most one explicit transaction at a time, begun
with :meth:`Session.begin`, operated on across requests with
:meth:`Session.execute`, and ended with :meth:`Session.commit` /
:meth:`Session.rollback`.  Locks are held *between* requests, which is
where real multi-session contention comes from.

A session caches nothing: :meth:`Session.query` runs
:meth:`~repro.core.engine.Database.xpath`, whose parse and compile go
through the engine's one query cache (shared by every session, as DB2's
dynamic statement cache is) and whose plan is made per call, so an index
created later is used at once.

A session object is *not* itself thread-safe — it models one client
connection, and one client issues one request at a time.  Each request
runs on the client's own thread: the session builds a closure and hands it
to :meth:`DatabaseServer.submit`, which takes a concurrency token and runs
it under the engine latch.

Every request body fires the ``serve.request`` fault point when the engine
carries an injector, so chaos plans (``FaultPlan.fail_at``) can kill
exactly one session's transaction mid-flight while the rest keep serving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ServerClosedError, TransactionError
from repro.rdb.locks import LockMode
from repro.rdb.txn import IsolationLevel, Transaction, TxnState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deadline import Deadline
    from repro.core.engine import Database, XPathResult
    from repro.serve.server import DatabaseServer


class Session:
    """One client's server-side state (see module docstring)."""

    def __init__(self, server: "DatabaseServer", session_id: int) -> None:
        self._server = server
        self.session_id = session_id
        self.closed = False
        #: The session's explicit transaction, if one is open.  Only
        #: touched while the engine latch is held.
        self.txn: Transaction | None = None

    # -- auto-commit requests ----------------------------------------------

    def run(self, body: Callable[["Database", Transaction], Any],
            isolation: IsolationLevel | None = None,
            deadline: "Deadline | float | None" = None,
            label: str = "run") -> Any:
        """One auto-commit request: ``body(db, txn)`` via ``run_in_txn``.

        The engine's victim-retry machinery applies (with jittered
        backoff); the request deadline caps both lock waits and retry
        backoff.  Blocks until the request finishes or is shed.
        """
        self._check_open()
        resolved = self._server.resolve_deadline(deadline)

        def work(db: "Database") -> Any:
            return db.run_in_txn(self._chaos_wrap(body),
                                 isolation=isolation, deadline=resolved)

        return self._server.submit(self, work, label, resolved)

    def query(self, table: str, column: str, path: str,
              namespaces: dict[str, str] | None = None,
              deadline: "Deadline | float | None" = None
              ) -> "list[XPathResult]":
        """Auto-commit XPath query: :meth:`Database.xpath` under a lock.

        Takes a table-level IS intent lock (readers coexist with other
        readers and with IX writers; DocID-level conflicts are left to the
        caller's explicit locks, as in §5.1's granular scheme).
        """

        def body(db: "Database", txn: Transaction) -> "list[XPathResult]":
            txn.lock(("table", table), LockMode.IS)
            return db.xpath(table, column, path, namespaces)

        return self.run(body, deadline=deadline, label=f"query:{path}")

    def insert(self, table: str, row: tuple,
               deadline: "Deadline | float | None" = None) -> Any:
        """Auto-commit insert under a table-level IX intent lock."""

        def body(db: "Database", txn: Transaction) -> Any:
            txn.lock(("table", table), LockMode.IX)
            return db.insert(table, row, txn_id=txn.txn_id)

        return self.run(body, deadline=deadline, label=f"insert:{table}")

    # -- explicit transactions ---------------------------------------------

    def begin(self, isolation: IsolationLevel | None = None,
              deadline: "Deadline | float | None" = None) -> int:
        """Open the session's explicit transaction; returns its txn id.

        The transaction's locks persist across requests until
        :meth:`commit` / :meth:`rollback` — each subsequent
        :meth:`execute` carries its own deadline for its own lock waits.
        """
        self._check_open()
        resolved = self._server.resolve_deadline(deadline)

        def work(db: "Database") -> int:
            if self.txn is not None:
                raise TransactionError(
                    f"session {self.session_id} already has txn "
                    f"{self.txn.txn_id} open")
            self.txn = db.txns.begin(
                isolation or IsolationLevel.READ_COMMITTED)
            return self.txn.txn_id

        return self._server.submit(self, work, "begin", resolved)

    def execute(self, body: Callable[["Database", Transaction], Any],
                deadline: "Deadline | float | None" = None,
                label: str = "execute") -> Any:
        """One request inside the session's explicit transaction.

        Any engine error (deadlock, lock timeout, expired deadline,
        injected fault, ...) aborts the transaction — its locks are gone
        and the session has no open transaction afterwards; the error
        propagates so the client can classify it (see
        :meth:`DatabaseServer.is_retryable`) and re-begin if appropriate.
        """
        self._check_open()
        resolved = self._server.resolve_deadline(deadline)

        def work(db: "Database") -> Any:
            txn = self._require_txn()
            txn.deadline = resolved
            try:
                with txn.charging():
                    return self._chaos_wrap(body)(db, txn)
            except BaseException:
                self._abandon_txn()
                raise
            finally:
                txn.deadline = None

        return self._server.submit(self, work, label, resolved)

    def lock(self, resource: object, mode: LockMode = LockMode.X,
             deadline: "Deadline | float | None" = None) -> None:
        """Explicitly lock ``resource`` inside the open transaction."""
        self.execute(lambda db, txn: txn.lock(resource, mode),
                     deadline=deadline, label=f"lock:{resource!r}")

    def commit(self, deadline: "Deadline | float | None" = None) -> None:
        """Commit the session's explicit transaction."""
        self._check_open()
        resolved = self._server.resolve_deadline(deadline)

        def work(db: "Database") -> None:
            txn = self._require_txn()
            self.txn = None
            try:
                txn.commit()
            except BaseException:
                # A commit that failed mid-flight (e.g. an injected log
                # fault) must not leak an active transaction holding
                # locks: abort it, then report the original failure.
                if txn.state is TxnState.ACTIVE:
                    txn.abort()
                raise

        self._server.submit(self, work, "commit", resolved)

    def rollback(self, deadline: "Deadline | float | None" = None) -> None:
        """Abort the session's explicit transaction (no-op if none open)."""
        self._check_open()
        resolved = self._server.resolve_deadline(deadline)

        def work(db: "Database") -> None:
            txn = self.txn
            self.txn = None
            if txn is not None:
                txn.abort()

        self._server.submit(self, work, "rollback", resolved)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the session: roll back any open transaction.

        Idempotent; also callable while the server drains (the rollback
        takes the engine latch directly, not a concurrency token).
        """
        if self.closed:
            return
        self.closed = True
        self._server._release_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _chaos_wrap(self, body: Callable[["Database", Transaction], Any]
                    ) -> Callable[["Database", Transaction], Any]:
        """Fire the ``serve.request`` fault point before the real body."""

        def wrapped(db: "Database", txn: Transaction) -> Any:
            if db.injector is not None:
                db.injector.hit("serve.request")
            return body(db, txn)

        return wrapped

    def _require_txn(self) -> Transaction:
        if self.txn is None:
            raise TransactionError(
                f"session {self.session_id} has no open transaction")
        return self.txn

    def _abandon_txn(self) -> None:
        """Abort and forget the explicit txn after a failed request."""
        txn = self.txn
        self.txn = None
        if txn is not None and txn.state is TxnState.ACTIVE:
            txn.abort()

    def _check_open(self) -> None:
        if self.closed:
            raise ServerClosedError(
                f"session {self.session_id} is closed")

    def __repr__(self) -> str:
        state = "closed" if self.closed else \
            (f"txn {self.txn.txn_id}" if self.txn else "idle")
        return f"Session({self.session_id}, {state})"
