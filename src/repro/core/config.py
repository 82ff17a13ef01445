"""Engine configuration.

One frozen dataclass carries every tunable the experiments sweep; components
take the values they need at construction time so a single engine instance is
internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for the storage engine and XML services.

    Attributes:
        page_size: Size in bytes of one storage page.  The paper's analysis
            notes the record size is bounded by the page size (§3.1).
        buffer_pool_pages: Number of frames in the buffer pool.
        record_size_limit: Tree-packing threshold (§3.1): a subtree (or run of
            sibling subtrees) is spilled into its own record once its encoded
            size exceeds this many bytes.  This is the packing-factor knob
            swept by experiments E1-E3.
        lock_wait_budget: Simulated wait steps an *interactive*
            ``Transaction.lock`` call spends retrying a blocked request
            before raising ``LockTimeoutError``.
        checkpoint_interval: Commits between automatic WAL checkpoints,
            each run synchronously by the committing thread (0 disables
            automatic checkpointing; ``Database.checkpoint`` is always
            available).
        txn_group_commit / ckpt_background: Removed features (group commit
            and the background checkpointer).  Each accepts only ``False``
            and raises ``ValueError`` when set, because the benchmark's
            workload configuration still passes both; they go when that
            configuration next changes.
        slow_query_entries_scanned / slow_query_events: Per-query
            thresholds on the ``btree.entries_scanned`` and ``xscan.events``
            counter deltas.  A query exceeding either is captured — plan,
            span tree and counter deltas — as a record in the
            engine's event ring (``Database.slow_queries``).  0 disables a
            threshold; both zero disables slow-query capture entirely (and
            its per-query tracer).
        serve_workers: Worker threads in the serving layer's pool — the
            server's concurrency-token count (DB2 z/OS:
            CTHREAD, the active-thread ceiling).
        serve_queue_limit: Bounded admission wait queue: requests beyond
            the active set queue here; once the queue is full further
            requests are shed with ``ServerOverloadedError`` (DB2:
            queued-at-create-thread).
    """

    page_size: int = 4096
    buffer_pool_pages: int = 256
    record_size_limit: int = 1024
    lock_wait_budget: int = 64
    txn_group_commit: bool = False
    checkpoint_interval: int = 0
    ckpt_background: bool = False
    slow_query_entries_scanned: int = 0
    slow_query_events: int = 0
    serve_workers: int = 4
    serve_queue_limit: int = 32

    def __post_init__(self) -> None:
        for name in ("txn_group_commit", "ckpt_background"):
            if getattr(self, name):
                raise ValueError(
                    f"EngineConfig.{name} was removed: group commit and the "
                    f"background checkpointer no longer exist; commits "
                    f"force the log themselves and threshold checkpoints "
                    f"run synchronously")

    def slow_query_thresholds(self) -> dict[str, int]:
        """Enabled slow-query thresholds as ``{counter name: limit}``."""
        thresholds = {
            "btree.entries_scanned": self.slow_query_entries_scanned,
            "xscan.events": self.slow_query_events,
        }
        return {name: limit for name, limit in thresholds.items() if limit > 0}

    def with_(self, **changes: object) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


#: Default configuration used when callers do not supply one.
DEFAULT_CONFIG = EngineConfig()
