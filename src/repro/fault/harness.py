"""Crash harness: run a workload to a crash point, restart, verify.

The harness drives one engine instance under a fault plan, catches the
:class:`~repro.fault.injector.SimulatedCrash` when the plan fires, hardens
what a real crash would have left on stable storage (the WAL as of the last
completed append, the device image as-is — torn pages included), and then
simulates a restart: reload the WAL (torn-tail tolerant) and replay the
committed records against a fresh engine.

Verification helpers reduce a database to a comparable digest (every stored
document plus every base row) and cross-check every XPath value index
against a freshly rebuilt one, so crash tests can assert the recovered
database is exactly the committed prefix with consistent indexes.

Because every log append is durable on return and the log *halts* when a
crash fires at one of its points, ``run`` hardens exactly what a real
crash would have: nothing a surviving
thread did after the crash can leak into the WAL.
:func:`recovered_commit_txns` extracts the committed txn ids from a
reloaded log so tests can assert "acknowledged ⊆ recovered ⊆
submitted".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.events import EventTrace
from repro.core.stats import StatsRegistry
from repro.fault.injector import FaultInjector, FaultSpec, SimulatedCrash
from repro.indexes.manager import XPathValueIndex
from repro.rdb.pages import SlottedPage
from repro.rdb.storage import Disk
from repro.rdb.wal import LogManager, LogOp


@dataclass
class CrashOutcome:
    """What one harness run left behind."""

    crash: SimulatedCrash | None
    db: "object"  # the (crashed) engine, for post-mortem inspection
    wal_path: str
    image_path: str

    @property
    def crashed(self) -> bool:
        return self.crash is not None

    @property
    def point(self) -> str | None:
        return self.crash.point if self.crash else None


def recovered_commit_txns(log: LogManager) -> set[int]:
    """Txn ids whose COMMIT record survived in ``log``.

    After a crash-and-reload this is the set of transactions recovery will
    replay as committed.  Crash tests compare it against the ids the
    *clients* saw acknowledged: acknowledged ⊆ recovered proves no durable
    commit was lost; recovered ⊆ submitted proves no phantom commit was
    manufactured.
    """
    return {record.txn_id for record in log.records()
            if record.op is LogOp.COMMIT}


def database_digest(db) -> dict:
    """Reduce a database to a comparable value: rows + serialized documents.

    Two databases with equal digests hold the same base rows and byte-equal
    serializations of every stored XML document.
    """
    digest: dict = {}
    for (table, column), store in sorted(db.xml_stores.items()):
        for docid in store.docids():
            digest[("doc", table, column, docid)] = \
                store.document(docid).serialize()
    for name, table in sorted(db.tables.items()):
        digest[("rows", name)] = sorted(
            repr(row) for _, row in table.scan_rids())
    return digest


def verify_value_indexes(db) -> None:
    """Assert every XPath value index matches a freshly rebuilt one.

    Rebuilds each index from its store's records and compares the complete
    sorted entry lists; raises ``AssertionError`` on any divergence.  Also
    checks every DocID index covers exactly the stored documents, and every
    NodeID index lists exactly its store's documents (the list a full scan
    reads), and runs
    the structural checks first: :meth:`SlottedPage.validate` over every
    data page of every XML store and relational table, and
    :meth:`BTree.verify` over every value, DocID and NodeID index.  A
    restart that leaves a damaged record page fails here with a typed
    :class:`~repro.errors.StorageError`, a damaged node page with a typed
    :class:`~repro.errors.IndexError_`, before their contents are trusted.
    """
    spaces = [store.space for store in db.xml_stores.values()] + \
        [table.space for table in db.tables.values()]
    for space in spaces:
        for page_id in space.page_ids:
            with space.pool.page(page_id) as data:
                SlottedPage(data).validate()
    for store in db.xml_stores.values():
        store.node_index.tree.verify()
        indexed = [docid for docid, _ in store.node_index.documents()]
        assert indexed == store.docids(), \
            f"NodeID index of {store.name!r} does not list its documents"
    for name, index in db.value_indexes.items():
        index.tree.verify()
        ix_def = db.catalog.index(name)
        store = db.xml_stores[(ix_def.table, ix_def.spec["column"])]
        rebuilt = XPathValueIndex(index.definition, db.pool,
                                  db.catalog.names)
        rebuilt.attach(store)
        got = sorted((bytes(k), bytes(v)) for k, v in index.tree.scan())
        want = sorted((bytes(k), bytes(v)) for k, v in rebuilt.tree.scan())
        assert got == want, f"value index {name!r} diverges from its store"
    for table, docid_index in db.docid_indexes.items():
        docid_index.verify()
        indexed = {int.from_bytes(bytes(k), "big")
                   for k, _ in docid_index.scan()}
        stored: set[int] = set()
        for (tbl, _column), store in db.xml_stores.items():
            if tbl == table:
                stored.update(store.docids())
        assert indexed == stored, \
            f"DocID index of {table!r} does not cover its stores"


class CrashHarness:
    """Runs workloads to a crash point and simulates restart recovery."""

    def __init__(self, workdir: str, config: EngineConfig = DEFAULT_CONFIG,
                 stats: StatsRegistry | None = None,
                 trace: EventTrace | None = None) -> None:
        self.workdir = str(workdir)
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        #: Optional flight recorder: an event ring installed on the harness
        #: registry (it retains the injected faults and the accounting
        #: records around them) and dumped after the crash.
        self.trace = trace
        if trace is not None:
            trace.install(self.stats)
        os.makedirs(self.workdir, exist_ok=True)
        self.wal_path = os.path.join(self.workdir, "crash.wal")
        self.image_path = os.path.join(self.workdir, "crash.img")
        self.events_path = os.path.join(self.workdir, "crash_events.jsonl")

    def run(self, workload: Callable[[object], None],
            plan: Iterable[FaultSpec] = (), seed: int = 0) -> CrashOutcome:
        """Run ``workload`` against a fresh engine under ``plan``.

        The workload receives the :class:`~repro.core.engine.Database`; a
        :class:`SimulatedCrash` it lets propagate ends the run.  Whatever
        the crash left behind is persisted for :meth:`restart`.
        """
        from repro.core.engine import Database

        injector = FaultInjector(plan, seed=seed, stats=self.stats)
        db = Database(self.config, stats=self.stats, injector=injector)
        crash: SimulatedCrash | None = None
        try:
            workload(db)
        except SimulatedCrash as caught:
            crash = caught
        injector.disarm()  # post-crash: persist and inspect without faults
        db.log.save(self.wal_path)
        db.disk.save(self.image_path)
        return CrashOutcome(crash, db, self.wal_path, self.image_path)

    def tear_log_tail(self, drop_bytes: int) -> None:
        """Cut ``drop_bytes`` off the persisted WAL — a crash mid-append."""
        size = os.path.getsize(self.wal_path)
        with open(self.wal_path, "r+b") as fh:
            fh.truncate(max(0, size - drop_bytes))

    def load_log(self) -> LogManager:
        """Reload the persisted WAL (torn-tail tolerant)."""
        return LogManager.load(self.wal_path, stats=self.stats)

    def load_image(self, verify: bool = True) -> Disk:
        """Reload the persisted device image, verifying page checksums."""
        return Disk.load(self.image_path, stats=self.stats, verify=verify)

    def restart(self):
        """Simulate restart: reload the WAL and replay the committed log.

        With a trace installed, the last events before the crash are
        dumped to ``crash_events.jsonl`` first — the flight-recorder
        read-out a post-recovery investigation starts from (which fault
        fired, which transactions finished around it).
        """
        from repro.core.engine import Database

        if self.trace is not None:
            self.dump_events()
        log = self.load_log()
        return Database.replay(log, self.config)

    def post_mortem(self, n: int = 64) -> list[dict]:
        """The newest ``n`` trace records as dicts ([] with no trace)."""
        if self.trace is None:
            return []
        return [record.to_dict() for record in self.trace.last(n)]

    def dump_events(self, n: int = 64) -> str | None:
        """Write the post-mortem records to ``crash_events.jsonl``."""
        records = self.post_mortem(n)
        if not records:
            return None
        with open(self.events_path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return self.events_path
