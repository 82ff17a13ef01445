"""DISPLAY-style system snapshots of a live engine.

DB2 for z/OS answers ``-DISPLAY BUFFERPOOL``, ``-DISPLAY DATABASE ... LOCKS``
and ``-DISPLAY LOG`` with structured views of live subsystem state; this
module is that surface for the reproduction.  :class:`Monitor` wraps a
:class:`~repro.core.engine.Database` and :meth:`Monitor.snapshot` assembles
one consistent :class:`MonitorSnapshot` from the buffer pool, lock manager
(holders, waiters, and the waits-for graph — exportable as Graphviz DOT),
write-ahead log, transaction table, per-table-space / per-index footprints,
and the accounting and slow-query records retained in the event ring.

Everything is copied at snapshot time: the views stay valid (and stable)
after the engine moves on, so tests and the report CLI can inspect them
without racing live state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rdb.txn import accounting_records


@dataclass(frozen=True)
class BufferPoolView:
    """``-DISPLAY BUFFERPOOL``: frame occupancy and hit behaviour."""

    capacity: int
    resident: int  # LRU depth: frames currently holding a page
    pinned: int
    dirty: int
    hits: int
    misses: int
    evictions: int
    flushes: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of pool requests served without disk I/O (0.0 idle)."""
        touches = self.hits + self.misses
        return self.hits / touches if touches else 0.0

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "resident": self.resident,
            "pinned": self.pinned,
            "dirty": self.dirty,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "evictions": self.evictions,
            "flushes": self.flushes,
        }


@dataclass(frozen=True)
class LockTableView:
    """``-DISPLAY ... LOCKS``: grants, waiters, and the waits-for graph.

    ``grants`` maps the printable resource key to ``{txn_id: mode name}``;
    ``waiters`` maps a blocked transaction to the sorted ids it waits for.
    """

    grants: dict[str, dict[int, str]] = field(default_factory=dict)
    waiters: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def granted_count(self) -> int:
        return sum(len(holders) for holders in self.grants.values())

    def wait_for_dot(self) -> str:
        """The waits-for graph as Graphviz DOT (``waiter -> blocker``)."""
        lines = ["digraph waits_for {"]
        for waiter in sorted(self.waiters):
            for blocker in self.waiters[waiter]:
                lines.append(f'  "txn{waiter}" -> "txn{blocker}";')
        lines.append("}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "grants": {resource: dict(holders)
                       for resource, holders in sorted(self.grants.items())},
            "waiters": {waiter: list(blockers)
                        for waiter, blockers in sorted(self.waiters.items())},
            "wait_for_dot": self.wait_for_dot(),
        }


@dataclass(frozen=True)
class WalView:
    """``-DISPLAY LOG``: log position and checkpoint lag."""

    next_lsn: int
    records: int
    bytes_written: int
    bytes_since_checkpoint: int
    last_checkpoint_lsn: int | None
    checkpoints: int
    #: Records at or below the flush boundary; equals ``records`` unless
    #: the log runs with ``auto_flush`` off.
    durable_records: int = 0
    unflushed_records: int = 0
    flushes: int = 0

    def to_dict(self) -> dict:
        return {
            "next_lsn": self.next_lsn,
            "records": self.records,
            "bytes_written": self.bytes_written,
            "bytes_since_checkpoint": self.bytes_since_checkpoint,
            "last_checkpoint_lsn": self.last_checkpoint_lsn,
            "checkpoints": self.checkpoints,
            "durable_records": self.durable_records,
            "unflushed_records": self.unflushed_records,
            "flushes": self.flushes,
        }


@dataclass(frozen=True)
class TxnView:
    """One row of the transaction table."""

    txn_id: int
    isolation: str
    state: str
    locks_held: int

    def to_dict(self) -> dict:
        return {
            "txn_id": self.txn_id,
            "isolation": self.isolation,
            "state": self.state,
            "locks_held": self.locks_held,
        }


@dataclass(frozen=True)
class MonitorSnapshot:
    """One consistent picture of engine state (all views copied)."""

    buffer_pool: BufferPoolView
    lock_table: LockTableView
    wal: WalView
    transactions: tuple[TxnView, ...]
    #: Per-table base-table-space footprints plus column-index sizes.
    tables: dict[str, dict] = field(default_factory=dict)
    #: Per XML column (``"table.column"``): data + NodeID-index footprint.
    xml_stores: dict[str, dict] = field(default_factory=dict)
    #: Per-table DocID index sizes.
    docid_indexes: dict[str, dict] = field(default_factory=dict)
    #: Per XPath value index sizes.
    value_indexes: dict[str, dict] = field(default_factory=dict)
    #: Accounting summary (emitted/buffered counts) plus the records the
    #: event ring still holds.
    accounting: dict = field(default_factory=dict)
    #: Slow-query summary (captured/buffered counts).
    slow_queries: dict = field(default_factory=dict)
    #: Serving-layer view (``DatabaseServer.view()``): worker pool state,
    #: queue depth, session count, request outcome counters.  Empty when
    #: no server is attached to the monitor.
    server: dict = field(default_factory=dict)
    #: Wait-state profile (``repro.obs.waits.wait_profile``): per-class
    #: suspension totals plus the per-request wait distribution — the
    #: DB2 accounting class-3 section of the DISPLAY output.
    waits: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe rendering (exporters, artifacts, report CLI)."""
        return {
            "server": self.server,
            "waits": self.waits,
            "buffer_pool": self.buffer_pool.to_dict(),
            "lock_table": self.lock_table.to_dict(),
            "wal": self.wal.to_dict(),
            "transactions": [txn.to_dict() for txn in self.transactions],
            "tables": self.tables,
            "xml_stores": self.xml_stores,
            "docid_indexes": self.docid_indexes,
            "value_indexes": self.value_indexes,
            "accounting": self.accounting,
            "slow_queries": self.slow_queries,
        }

    def format(self) -> str:
        """Human-readable DISPLAY-style rendering."""
        bp = self.buffer_pool
        lines = [
            "=== BUFFER POOL ===",
            (f"  frames {bp.resident}/{bp.capacity} resident, "
             f"{bp.pinned} pinned, {bp.dirty} dirty"),
            (f"  hits {bp.hits}  misses {bp.misses}  "
             f"hit-ratio {bp.hit_ratio:.2%}  evictions {bp.evictions}"),
            "=== LOCK TABLE ===",
            (f"  {self.lock_table.granted_count} grants on "
             f"{len(self.lock_table.grants)} resources, "
             f"{len(self.lock_table.waiters)} waiters"),
        ]
        for resource, holders in sorted(self.lock_table.grants.items()):
            held = ", ".join(f"txn{txn}:{mode}"
                             for txn, mode in sorted(holders.items()))
            lines.append(f"  {resource}: {held}")
        for waiter, blockers in sorted(self.lock_table.waiters.items()):
            lines.append(f"  txn{waiter} waits for "
                         + ", ".join(f"txn{b}" for b in blockers))
        wal = self.wal
        lines += [
            "=== LOG ===",
            (f"  next LSN {wal.next_lsn}, {wal.records} records, "
             f"{wal.bytes_written} bytes "
             f"({wal.bytes_since_checkpoint} since checkpoint, "
             f"last checkpoint LSN {wal.last_checkpoint_lsn})"),
            (f"  durable {wal.durable_records} "
             f"(+{wal.unflushed_records} volatile), "
             f"{wal.flushes} forces"),
            "=== TRANSACTIONS ===",
        ]
        if self.transactions:
            for txn in self.transactions:
                lines.append(f"  txn{txn.txn_id} [{txn.isolation}] "
                             f"{txn.state}, {txn.locks_held} locks")
        else:
            lines.append("  (none active)")
        lines.append("=== STORAGE ===")
        for name, info in sorted(self.tables.items()):
            space = info["space"]
            lines.append(f"  table {name}: {space['records']} records on "
                         f"{space['pages']} pages")
        for name, info in sorted(self.xml_stores.items()):
            lines.append(f"  xml {name}: {info['record_count']} records, "
                         f"{info['data_pages']} data pages, "
                         f"{info['nodeid_index_entries']} NodeID entries")
        for name, info in sorted(self.docid_indexes.items()):
            lines.append(f"  docid-index {name}: {info['entries']} entries "
                         f"on {info['pages']} pages")
        for name, info in sorted(self.value_indexes.items()):
            lines.append(f"  value-index {name}: {info['entries']} entries "
                         f"on {info['pages']} pages "
                         f"(height {info['height']})")
        acct = self.accounting
        lines.append("=== ACCOUNTING ===")
        lines.append(f"  {acct.get('emitted', 0)} records emitted, "
                     f"{acct.get('buffered', 0)} buffered")
        slow = self.slow_queries
        lines.append(f"  slow queries: {slow.get('captured', 0)} captured, "
                     f"{slow.get('buffered', 0)} buffered")
        if self.waits.get("by_class"):
            from repro.obs.waits import format_breakdown
            lines.append("=== WAITS (class-3 suspensions) ===")
            lines.extend(format_breakdown(self.waits["by_class"]))
            request_wait = self.waits.get("request_wait")
            if request_wait and request_wait.get("count"):
                lines.append(
                    f"  per-request total: p50 {request_wait['p50_us']:,} "
                    f"us  p99 {request_wait['p99_us']:,} us  max "
                    f"{request_wait['max_us']:,} us "
                    f"({request_wait['count']} clocked)")
        if self.server:
            srv = self.server
            lines += [
                "=== SERVER ===",
                (f"  {srv['state']}: {srv['busy']}/{srv['workers']} workers "
                 f"busy, queue {srv['queue_depth']}/{srv['queue_limit']}, "
                 f"{srv['sessions_open']} sessions"),
                (f"  requests {srv['requests']}  admitted {srv['admitted']}  "
                 f"completed {srv['completed']}  failed {srv['failed']}  "
                 f"deadline-expired {srv['deadline_expired']}  "
                 f"shed {srv['shed']}"),
            ]
        return "\n".join(lines)


class Monitor:
    """Assembles :class:`MonitorSnapshot` views from a live engine.

    A :class:`~repro.serve.server.DatabaseServer` built on the engine
    attaches itself as :attr:`server`, adding a ``-DISPLAY THREAD``-style
    section to snapshots and enabling the cheap :meth:`health` signals its
    overload guard polls on the admission path.
    """

    def __init__(self, db, server=None) -> None:
        self.db = db
        #: Attached serving layer (anything with a ``view() -> dict``).
        self.server = server

    def health(self) -> dict:
        """Cheap live health signals for admission control.

        Unlike :meth:`snapshot` this reads only O(1) state — counter
        lookups and container lengths, no WAL or lock-table iteration — so
        the serving layer can afford it on the request path, from threads
        that do not hold the engine latch.  An untouched buffer pool
        reports hit ratio 1.0 (idle is healthy, not thrashing).
        """
        db = self.db
        hits = db.stats.get("buffer.hits")
        misses = db.stats.get("buffer.misses")
        touches = hits + misses
        return {
            "lock_waiters": db.txns.locks.waiter_count(),
            "active_txns": len(db.txns.active),
            "buffer_touches": touches,
            "buffer_hit_ratio": hits / touches if touches else 1.0,
        }

    def snapshot(self) -> MonitorSnapshot:
        """One consistent copy of current engine state.

        Snapshots deliberately take no engine latch — DISPLAY-style
        commands must work *while* the engine is busy, including when a
        request thread is stuck holding the latch.  Each view builder is
        therefore a latch-free read retried on torn dict iteration (see
        :meth:`_stable`); the lock table copies under its own lock, and the
        event ring copies atomically.
        """
        from repro.obs.waits import wait_profile

        db = self.db
        accounting = accounting_records(db.stats)
        return MonitorSnapshot(
            server=dict(self.server.view()) if self.server is not None
            else {},
            waits=wait_profile(db.stats),
            buffer_pool=self._stable(self._buffer_pool),
            lock_table=self._lock_table(),
            wal=self._stable(self._wal),
            transactions=self._stable(self._transactions),
            tables=self._stable(self._tables),
            xml_stores=self._stable(self._xml_stores),
            docid_indexes=self._stable(self._docid_indexes),
            value_indexes=self._stable(self._value_indexes),
            accounting={
                "emitted": db.stats.get("obs.accounting_records"),
                "buffered": len(accounting),
                "records": [record.to_dict() for record in accounting],
            },
            slow_queries={
                "captured": db.stats.get("obs.slow_queries"),
                "buffered": len(db.slow_queries),
            },
        )

    # -- view builders -----------------------------------------------------

    @staticmethod
    def _stable(build, retries: int = 4):
        """Run a latch-free view builder, retrying torn iterations.

        A concurrent begin/commit can resize ``txns.active`` (or a pool /
        index map) mid-iteration, which CPython surfaces as a
        ``RuntimeError``; re-reading yields a view that is merely slightly
        newer, which is all a monitor promises.  The final attempt
        propagates, so a *deterministic* RuntimeError in a builder is not
        silently retried forever.
        """
        for _ in range(retries):
            try:
                return build()
            except RuntimeError:
                continue
        return build()

    def _buffer_pool(self) -> BufferPoolView:
        pool, stats = self.db.pool, self.db.stats
        return BufferPoolView(
            capacity=pool.capacity,
            resident=pool.resident_count(),
            pinned=len(pool.pinned_pages()),
            dirty=pool.dirty_count(),
            hits=stats.get("buffer.hits"),
            misses=stats.get("buffer.misses"),
            evictions=stats.get("buffer.evictions"),
            flushes=stats.get("buffer.flushes"),
        )

    def _lock_table(self) -> LockTableView:
        locks = self.db.txns.locks
        grants = {
            str(resource): {txn: mode.name
                            for txn, mode in holders.items()}
            for resource, holders in locks.lock_table().items()
        }
        waiters = {waiter: tuple(sorted(blockers))
                   for waiter, blockers in locks.waits_for_edges().items()}
        return LockTableView(grants=grants, waiters=waiters)

    def _wal(self) -> WalView:
        log, stats = self.db.log, self.db.stats
        return WalView(
            next_lsn=log.next_lsn,
            records=sum(1 for _ in log.records()),
            bytes_written=log.bytes_written,
            bytes_since_checkpoint=log.bytes_since_checkpoint,
            last_checkpoint_lsn=log.last_checkpoint_lsn(),
            checkpoints=stats.get("wal.checkpoints"),
            durable_records=log.durable_count,
            unflushed_records=log.unflushed_count,
            flushes=stats.get("wal.flushes"),
        )

    def _transactions(self) -> tuple[TxnView, ...]:
        txns = self.db.txns
        return tuple(
            TxnView(txn_id=txn.txn_id,
                    isolation=txn.isolation.value,
                    state=txn.state.value,
                    locks_held=txns.locks.locks_held(txn.txn_id))
            for txn in sorted(txns.active.values(),
                              key=lambda txn: txn.txn_id)
        )

    def _tables(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for name, table in self.db.tables.items():
            indexes = {
                column.name: self._tree_stats(tree)
                for column in table.definition.columns
                if (tree := table.column_index(column.name)) is not None
            }
            out[name] = {"space": table.space.footprint(),
                         "column_indexes": indexes}
        return out

    def _xml_stores(self) -> dict[str, dict]:
        return {f"{table}.{column}": store.storage_footprint()
                for (table, column), store in self.db.xml_stores.items()}

    def _docid_indexes(self) -> dict[str, dict]:
        return {name: self._tree_stats(tree)
                for name, tree in self.db.docid_indexes.items()}

    def _value_indexes(self) -> dict[str, dict]:
        return {name: index.size_stats()
                for name, index in self.db.value_indexes.items()}

    @staticmethod
    def _tree_stats(tree) -> dict[str, int]:
        return {"entries": tree.entry_count,
                "pages": tree.page_count,
                "height": tree.height()}
