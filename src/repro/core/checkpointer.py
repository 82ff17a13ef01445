"""Background checkpointer and lazy writer (DB2's castout engines).

Synchronous checkpoints stall whichever thread crosses the
``checkpoint_interval`` commit threshold: that thread flushes *every*
dirty page under the engine latch while other sessions wait.  The
:class:`Checkpointer` moves that work to a background thread, two ways:

* **requested checkpoints** — ``TransactionManager.checkpoint_async`` is
  wired to :meth:`Checkpointer.request_checkpoint`, so the committing
  thread just sets an event and returns; the checkpointer thread takes
  the engine latch and runs the full flush + CHECKPOINT record itself;
* **trickle (lazy writing)** — between requests it writes back a few old
  dirty pages per cycle through ``flush_page``, choosing victims whose
  residency age has reached the ``buffer.eviction_residency`` histogram
  median: pages old enough that LRU eviction would soon write them
  *synchronously* on some request thread's miss path.  Trickled pages
  make later checkpoints (and evictions) nearly free.

The thread takes the engine latch for every cycle, so it interleaves
with request workers exactly like another session — including during
latch-yielding sleeps (lock-wait backoff, the group-commit window).
WAL discipline holds: the log is forced (``log.flush``) before any page
write-back, so no page can reach the device describing an update whose
log record is still volatile.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.analyze import sanitize as _sanitize
from repro.core.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import Database


class Checkpointer:
    """Background checkpoint/lazy-writer thread over one ``Database``.

    Start with :meth:`start`, stop with :meth:`stop` (both idempotent).
    A fatal error in the background thread (including a simulated crash
    from a fault plan) is captured in :attr:`error` and ends the loop;
    the serving layer surfaces it at shutdown.
    """

    def __init__(self, db: "Database", interval: float = 0.005,
                 trickle_pages: int = 8) -> None:
        self.db = db
        self.stats: StatsRegistry = db.stats
        #: Idle period between lazy-writer cycles.
        self.interval = interval
        #: Most dirty pages one trickle cycle writes back.
        self.trickle_pages = max(1, trickle_pages)
        self.error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._wake = threading.Event()
        #: An Event rather than a bare bool: set by any committing thread,
        #: consumed by the checkpointer thread — the flag itself must be a
        #: synchronized object, not an unlatched field.
        self._checkpoint_requested = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Checkpointer":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._loop,
                                            name="checkpointer",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """End the loop and join the thread (pending request still runs)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread.join()
        self._thread = None
        if _sanitize.enabled():
            # Witness the owner's post-join read of the thread's error
            # slot: the join itself is the synchronization (Eraser keeps
            # the field in read-shared state — writer thread, then one
            # reader — so this never trips, by design).
            _sanitize.shared_access(self.stats, "Checkpointer", "error",
                                    write=False)

    @property
    def running(self) -> bool:
        return self._thread is not None

    # -- the request side (committing threads) -----------------------------

    def request_checkpoint(self) -> None:
        """Ask the background thread for a full checkpoint (non-blocking).

        This is what ``TransactionManager.checkpoint_async`` points at:
        the committing thread returns immediately instead of flushing the
        whole pool itself.  Requests coalesce — many commits crossing the
        threshold while one checkpoint is pending produce one checkpoint.
        """
        self.stats.add("ckpt.requests")
        self._checkpoint_requested.set()
        self._wake.set()

    # -- the background thread ---------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.interval)
            self._wake.clear()
            try:
                self._cycle()
            except BaseException as error:  # noqa: B036 - thread boundary
                # Simulated crashes (BaseException) and real bugs both end
                # the loop; the owner (serving layer) re-raises at
                # shutdown.  Swallowing here would hide a dead lazy
                # writer behind slowly accreting dirty pages.
                if _sanitize.enabled():
                    _sanitize.shared_access(self.stats, "Checkpointer",
                                            "error", write=True)
                self.error = error
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise  # interpreter shutdown: do not sit on it
                return
        # One last drain so a checkpoint requested during shutdown is not
        # silently dropped.
        if self._checkpoint_requested.is_set() and self.error is None:
            try:
                self._cycle()
            except BaseException as error:  # noqa: B036 - thread boundary
                if _sanitize.enabled():
                    _sanitize.shared_access(self.stats, "Checkpointer",
                                            "error", write=True)
                self.error = error
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise

    def _cycle(self) -> None:
        """One unit of background work, under the engine latch.

        The latch acquisition is charged to the ``ckpt.interference`` wait
        class: time the background writer spent blocked behind foreground
        request workers (the reverse direction — workers blocked behind a
        checkpoint cycle — lands in their ``latch.wait``).  Charged from a
        timestamp taken before the ``with`` rather than a ``wait_timer``
        around an explicit ``acquire`` so the latch region stays a plain
        ``with`` block the static latch-inference checkers can see.
        """
        latch_wait_from = time.monotonic_ns()
        with self.db.latch:
            self.stats.charge_wait(
                "ckpt.interference",
                (time.monotonic_ns() - latch_wait_from) // 1000)
            self.stats.add("ckpt.cycles")
            if self._checkpoint_requested.is_set():
                self._checkpoint_requested.clear()
                self.db.txns.checkpoint()
                self.stats.add("ckpt.background_checkpoints")
            else:
                self._trickle()

    def _trickle(self) -> None:
        """Write back up to ``trickle_pages`` old dirty unpinned frames."""
        pool = self.db.pool
        candidates = pool.dirty_page_ages()
        if not candidates:
            return
        threshold = 0
        residency = self.stats.histogram("buffer.eviction_residency")
        if residency is not None and residency.count:
            threshold = residency.quantile(0.5)
        victims = [page_id for age, page_id in candidates
                   if age >= threshold][:self.trickle_pages]
        if not victims:
            return
        # WAL rule: force the log before pages describing logged updates
        # can reach the device.
        self.db.log.flush()
        for page_id in victims:
            pool.flush_page(page_id)
        self.stats.add("ckpt.trickle_pages", len(victims))
        self.stats.observe("ckpt.trickle_batch", len(victims))
