"""The System R/X engine facade (Fig. 1 and Fig. 2 glued together).

A :class:`Database` owns the shared relational infrastructure (device,
buffer pool, catalog, log, locks) plus the XML services: base tables with XML
columns get an implicit ``DocID`` column, one internal XML table (an
:class:`~repro.xmlstore.store.XmlStore`) per XML column, a DocID index
mapping DocIDs back to base rows, and any number of XPath value indexes.

DDL and DML are logged; :meth:`Database.replay` performs archive recovery by
re-executing the committed log against a fresh database — record placement is
deterministic, so all physical IDs reproduce.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.deadline import Deadline
from repro.core.stats import StatsRegistry
from repro.errors import (CatalogError, DeadlineExceededError, DeadlockError,
                          DocumentNotFoundError, LockTimeoutError, QueryError)
from repro.indexes.definition import XPathIndexDefinition
from repro.indexes.manager import XPathValueIndex
from repro.lang import ast
from repro.lang.parser import lift_literals, parse_xpath
from repro.obs.explain import ExplainResult
from repro.obs.tracer import Tracer
from repro.query.executor import Executor, QueryMatch
from repro.query.plan import AccessMethod, AccessPlan
from repro.query.planner import Planner, SourceMemo
from repro.rdb import codec
from repro.rdb.btree import BTree
from repro.rdb.buffer import BufferPool
from repro.rdb.catalog import Catalog, ColumnDef, IndexDef, TableDef
from repro.rdb.storage import Disk
from repro.rdb.table import Table
from repro.rdb.tablespace import Rid
from repro.rdb.txn import (IsolationLevel, Transaction, TransactionManager,
                           TxnState)
from repro.rdb.values import SqlType, coerce, decode_row, encode_row
from repro.rdb.wal import LogManager, LogOp, replay as wal_replay
from repro.xmlstore.store import PreparedDocument, XmlStore
from repro.xmlstore.update import XmlUpdater
from repro.xpath.qtree import QueryTree, compile_query
from repro.xpath.quickxscan import QuickXScan
from repro.xpath.values import Item

#: Entries in a :class:`Database`'s query cache (statement shapes).
QUERY_CACHE_SIZE = 256

#: How many times ``run_in_txn`` retries a transaction aborted as a
#: deadlock or timeout victim before the last error propagates.
TXN_RETRY_LIMIT = 5
#: Jittered exponential backoff between victim retries, in seconds:
#: retry ``n`` sleeps ``BASE * 2**n`` scaled by a jitter factor in
#: [0.5, 1.5), so the last of :data:`TXN_RETRY_LIMIT` retries waits about
#: 16 ms.  Without it, retrying victims restart at once and contending
#: transactions collide again in lockstep (a retry hot loop).
TXN_RETRY_BACKOFF_BASE = 0.001
#: Seed of each engine's jitter RNG, so retry delays are reproducible.
TXN_RETRY_JITTER_SEED = 0

#: A query cache entry: the parsed path and its query tree, the planner's
#: source groups per index set, and the QuickXScan over the tree's nodes
#: (see :meth:`Database.compile_xpath`).
_Statement = tuple[tuple[ast.LocationPath, QueryTree], SourceMemo,
                   QuickXScan]


@dataclass(frozen=True)
class XPathResult:
    """One XPath query result row."""

    docid: int
    base_rid: Rid
    row: tuple
    match: QueryMatch

    @property
    def node_id(self) -> bytes | None:
        return self.match.item.node_id


_T = TypeVar("_T")


class Database:
    """One engine instance: relational services + XML services.

    Passing a :class:`~repro.fault.injector.FaultInjector` threads a fault
    plan through the whole storage stack: the device is wrapped in a
    :class:`~repro.fault.disk.FaultyDisk` and the log manager fires the
    injector's crash points, so any workload can run under injected
    failures without further plumbing.
    """

    #: ``latch`` guards the engine as a whole, not named fields (read by
    #: ``python -m repro.analyze``).
    GUARDED_BY = {"latch": ()}

    def __init__(self, config: EngineConfig = DEFAULT_CONFIG,
                 stats: StatsRegistry | None = None,
                 injector: "object | None" = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.injector = injector
        #: Engine latch: the engine's internals are single-threaded, so a
        #: concurrent front end (``repro.serve``) serializes every engine
        #: entry behind this lock.  The latch is deliberately *yielded*
        #: while a transaction sleeps — inside the lock-wait backoff loop
        #: (``TransactionManager.lock_wait_yield``) and during victim-retry
        #: backoff (:attr:`backoff_sleep`) — which is exactly when another
        #: session's progress is what unblocks this one.  It is the
        #: engine's one concurrency mechanism: engine state is read and
        #: written only under it, and the stats registry is the only
        #: structure with a lock of its own, because client threads record
        #: the ``serve.*`` counters without the latch.
        self.latch = threading.RLock()
        #: Jitter source for victim-retry backoff (seeded for determinism).
        self._retry_rng = random.Random(TXN_RETRY_JITTER_SEED)
        #: How ``run_in_txn`` sleeps between victim retries.  Defaults to
        #: ``time.sleep``; the serving layer installs a latch-releasing
        #: sleep so a backoff never stalls other sessions.
        self.backoff_sleep: Callable[[float], None] | None = None
        disk = Disk(config.page_size, stats=self.stats)
        if injector is not None:
            from repro.fault.disk import FaultyDisk
            disk = FaultyDisk(disk, injector)
        self.disk = disk
        self.pool = BufferPool(self.disk, capacity=config.buffer_pool_pages)
        self.catalog = Catalog()
        self.log = LogManager(stats=self.stats, injector=injector)
        self.txns = TransactionManager(
            log=self.log, stats=self.stats,
            lock_wait_budget=config.lock_wait_budget,
            checkpoint_every=config.checkpoint_interval,
            on_checkpoint=self.pool.flush_all)
        self._slow_thresholds = config.slow_query_thresholds()
        #: The engine's one query cache (see :meth:`compile_xpath`).
        self._queries: OrderedDict[tuple, _Statement] = OrderedDict()
        self.tables: dict[str, Table] = {}
        self.xml_stores: dict[tuple[str, str], XmlStore] = {}
        self.docid_indexes: dict[str, BTree] = {}
        self.value_indexes: dict[str, XPathValueIndex] = {}

    # -- DDL -----------------------------------------------------------------

    def create_table(self, name: str,
                     columns: list[tuple[str, str]]) -> TableDef:
        """Create a base table; ``columns`` are (name, SQL type) pairs."""
        payload = bytearray()
        codec.write_str(payload, name)
        codec.write_uvarint(payload, len(columns))
        for col_name, col_type in columns:
            codec.write_str(payload, col_name)
            codec.write_str(payload, col_type)
        self._apply_ddl("create_table", bytes(payload))
        self.log.append(-1, LogOp.DDL, "create_table", bytes(payload))
        return self.catalog.table(name)

    def _apply_create_table(self, definition: TableDef) -> None:
        self.catalog.add_table(definition)
        table = Table(definition, self.pool)
        self.tables[definition.name] = table
        if definition.has_xml:
            self.docid_indexes[definition.name] = BTree(
                self.pool, name=f"docix.{definition.name}", unique=True)
            for column in definition.xml_columns:
                store = XmlStore(self.pool, self.catalog.names,
                                 record_limit=self.config.record_size_limit,
                                 name=f"{definition.name}.{column.name}")
                self.xml_stores[(definition.name, column.name)] = store

    def create_xpath_index(self, name: str, table: str, column: str,
                           path: str, key_type: str,
                           namespaces: dict[str, str] | None = None
                           ) -> XPathValueIndex:
        """Create an XPath value index on an XML column (§3.3)."""
        payload = bytearray()
        for text in (name, table, column, path, key_type):
            codec.write_str(payload, text)
        # The namespace bindings follow as (prefix, URI) pairs up to the
        # end of the payload.
        for prefix, uri in (namespaces or {}).items():
            codec.write_str(payload, prefix)
            codec.write_str(payload, uri)
        self._apply_ddl("create_xpath_index", bytes(payload))
        self.log.append(-1, LogOp.DDL, "create_xpath_index", bytes(payload))
        return self.value_indexes[name]

    def register_schema(self, name: str, schema_text: str) -> None:
        """Compile and register an XML schema (Fig. 4)."""
        payload = bytearray()
        codec.write_str(payload, name)
        codec.write_str(payload, schema_text)
        self._apply_ddl("register_schema", bytes(payload))
        self.log.append(-1, LogOp.DDL, "register_schema", bytes(payload))

    # -- DML -----------------------------------------------------------------------

    def insert(self, table: str, row: tuple, txn_id: int = -1,
               validate_against: str | None = None) -> Rid:
        """Insert a row; XML column values are XML text strings.

        All XML columns of the row share one implicit DocID (§3.1).
        """
        with self.stats.trace("db.insert", table=table) as span, \
                self.txns.charging(txn_id):
            definition = self.catalog.table(table)
            # A value the table would refuse must not reach the log first:
            # replay re-applies every logged auto-commit insert.  So every
            # check runs before the append — encoding the logged row
            # (width, types, UTF-8), then the prepare phase (parse,
            # validate, pack) — and a refused document consumes no DocID,
            # so replay allocates the same ones.
            payload = encode_row(_log_types(definition), row)
            documents = self._prepare_insert(definition, row,
                                             validate_against)
            self._append(txn_id, LogOp.INSERT, table, payload,
                         validate_against.encode()
                         if validate_against else b"")
            rid = self._apply_insert(definition, row, documents)
            txn = self.txns.active.get(txn_id)
            if txn is not None:
                txn.on_abort(lambda: self._apply_delete(table, rid))
            if span is not None:
                span.set("rid", str(rid))
            return rid

    def _append(self, txn_id: int, op: LogOp, table: str, payload: bytes,
                extra: bytes = b"") -> None:
        """Log one row change: through ``txn_id``'s transaction while it is
        active (so its BEGIN record goes first), else under ``txn_id``
        as it stands (``-1``: auto-commit)."""
        txn = self.txns.active.get(txn_id)
        if txn is None:
            self.log.append(txn_id, op, table, payload, extra)
        else:
            txn.log(op, table, payload, extra)

    def _prepare_insert(self, definition: TableDef, row: tuple,
                        validate_against: str | None
                        ) -> dict[int, PreparedDocument]:
        """Prepare phase: parse, validate and pack the row's XML values
        for the table's next DocID; nothing is stored or allocated."""
        documents: dict[int, PreparedDocument] = {}
        if not definition.has_xml:
            return documents
        docid = self.catalog.peek_docid(definition.name)
        for position, column in enumerate(definition.columns):
            if column.sql_type is not SqlType.XML or row[position] is None:
                continue
            # The cell's text by the rule the log encodes it with (bytes
            # decode as UTF-8), so insert and replay parse the same text.
            xml_text = coerce(SqlType.VARCHAR, row[position])
            store = self.xml_stores[(definition.name, column.name)]
            if validate_against is not None:
                from repro.xschema.validator import validate_text
                stream = validate_text(
                    self.catalog.schema(validate_against), xml_text)
                documents[position] = store.prepare_events(docid,
                                                           stream.events())
            else:
                documents[position] = store.prepare_text(docid, xml_text)
        return documents

    def _apply_insert(self, definition: TableDef, row: tuple,
                      documents: dict[int, PreparedDocument]) -> Rid:
        """Apply phase: DocID, stored documents, base row, DocID index."""
        storage_row = list(row)
        docid = None
        if definition.has_xml:
            docid = self.catalog.next_docid(definition.name)
            for position, document in documents.items():
                # Records carry the DocID they were packed for: a prepare
                # that raced another insert must not be stored under ours.
                if document.docid != docid:
                    raise CatalogError(
                        f"DocID {document.docid} was prepared but {docid} "
                        f"allocated in {definition.name!r}")
                column = definition.columns[position].name
                self.xml_stores[(definition.name, column)].insert_packed(
                    document)
                storage_row[position] = docid
        rid = self.tables[definition.name].insert(tuple(storage_row))
        if docid is not None:
            self.docid_indexes[definition.name].insert(
                docid.to_bytes(8, "big"), rid.to_bytes())
        return rid

    def delete_row(self, table: str, rid: Rid, txn_id: int = -1) -> None:
        """Delete a base row and its XML documents.

        Inside a transaction the delete registers a logical-undo action
        (mirroring :meth:`insert`): abort re-inserts the row image —
        including its XML documents' text — so an aborted delete leaves
        the document queryable in the live engine, not just after replay.
        """
        with self.txns.charging(txn_id):
            txn = self.txns.active.get(txn_id)
            definition = self.catalog.table(table)
            restore_row = self._snapshot_row(definition, rid) \
                if txn is not None else None
            self._append(txn_id, LogOp.DELETE, table, rid.to_bytes())
            self._apply_delete(table, rid)
            if txn is not None:
                txn.on_abort(lambda: self._apply_insert(
                    definition, restore_row,
                    self._prepare_insert(definition, restore_row, None)))

    def _snapshot_row(self, definition: TableDef, rid: Rid) -> tuple:
        """Engine-level row image at ``rid`` (XML columns as text).

        This is the pre-image a delete's logical undo re-inserts.  The
        restored documents get fresh DocIDs/RIDs — logical undo restores
        content, not physical placement, exactly like the archive-recovery
        path.
        """
        row = list(self.tables[definition.name].fetch(rid))
        for position, column in enumerate(definition.columns):
            if column.sql_type is SqlType.XML and row[position] is not None:
                row[position] = self.get_document(
                    definition.name, column.name, row[position])
        return tuple(row)

    def _apply_delete(self, table: str, rid: Rid) -> None:
        definition = self.catalog.table(table)
        row = self.tables[table].delete(rid)
        for position, column in enumerate(definition.columns):
            if column.sql_type is SqlType.XML and row[position] is not None:
                docid = row[position]
                self.xml_stores[(table, column.name)].delete_document(docid)
                self.docid_indexes[table].delete(docid.to_bytes(8, "big"))

    def updater(self, table: str, column: str) -> XmlUpdater:
        """Node-level updater for one XML column."""
        return XmlUpdater(self._store(table, column))

    # -- queries -----------------------------------------------------------------------

    def planner(self, table: str, column: str) -> Planner:
        store = self._store(table, column)
        indexes = [
            self.value_indexes[ix.name]
            for ix in self.catalog.indexes_on(table)
            if ix.spec.get("column") == column
        ]
        return Planner(store, indexes)

    def compile_xpath(self, path_text: str,
                      namespaces: dict[str, str] | None = None
                      ) -> tuple[ast.LocationPath, QueryTree]:
        """Parse and compile a location path through the query cache.

        The cache is the engine's dynamic statement cache: an LRU of
        :data:`QUERY_CACHE_SIZE` statement *shapes*, counted by
        ``xpath.parse_hits`` / ``xpath.parse_misses``.  A shape is the
        text with its string and number literals lifted out (the text
        segments between them and the literals' kinds) plus the sorted
        namespace bindings; a text whose lift does not parse back to the
        same literals is its own shape.  An entry holds the parsed
        template, its query tree and the planner's source groups per
        index set, and one :class:`QuickXScan` (its candidate lists and
        name dispatch), none of which reads a literal's value, so the
        texts of one shape share them and only bind their own literals:
        the returned path and tree carry the caller's literals, and a scan
        runs on the tree's bind vector.  Evicting an entry drops its
        scanner.  Parsing and compiling are pure in the key, so an entry
        never goes stale, and a new index is a new index set, matched at
        once.  A text without literals gets the same shared pair on every
        hit.  The returned objects are shared: callers must treat them as
        immutable.
        """
        return self._statement(path_text, namespaces)[0]

    def _statement(self, path_text: str,
                   namespaces: dict[str, str] | None) -> "_Statement":
        """The cache entry for ``path_text``'s shape, bound to its literals."""
        lift = lift_literals(path_text)
        bindings = tuple(sorted((namespaces or {}).items()))
        shape = (lift.segments, lift.kinds, bindings)
        # The key of a text whose lift does not hold; shape keys are
        # triples, so none equals it.
        whole = (path_text, bindings)
        cache = self._queries
        key = shape
        entry = cache.get(shape)
        if entry is None and lift.kinds:
            key = whole
            entry = cache.get(whole)
        if entry is None:
            self.stats.add("xpath.parse_misses")
            path = parse_xpath(path_text, namespaces, lift)
            if not isinstance(path, ast.LocationPath):
                raise QueryError(f"{path_text!r} is not a location path")
            key = shape if not lift.kinds or ast.literal_slots(path) \
                else whole
            query = compile_query(path)
            entry = cache[key] = ((path, query), {},
                                  QuickXScan(query, stats=self.stats))
            if len(cache) > QUERY_CACHE_SIZE:
                cache.popitem(last=False)
            return entry
        cache.move_to_end(key)
        self.stats.add("xpath.parse_hits")
        if key is whole or not lift.values:
            return entry  # nothing to bind: the entry holds its literals
        (path, query), sources, scan = entry
        return ((ast.bind(path, lift.values), query.bind(lift.values)),
                sources, scan)

    def plan_xpath(self, table: str, column: str, path_text: str,
                   namespaces: dict[str, str] | None = None,
                   method: AccessMethod | None = None) -> AccessPlan:
        (path, query), sources, scan = self._statement(path_text, namespaces)
        plan = self.planner(table, column).plan(path, query,
                                                force_method=method,
                                                memo=sources)
        plan.scan = scan
        return plan

    def scan_document(self, path_text: str, source,
                      namespaces: dict[str, str] | None = None
                      ) -> list[Item]:
        """The items ``path_text`` matches in one document ``source`` (a
        stored document's ``source()`` or an event stream), evaluated by
        its shape's cached scanner: SQL/XML's per-row XMLEXISTS and
        XMLQUERY build no scanner per row."""
        (_path, query), _sources, scan = self._statement(path_text,
                                                         namespaces)
        return scan.run(source, query.binds)

    def xpath(self, table: str, column: str, path_text: str,
              namespaces: dict[str, str] | None = None,
              method: AccessMethod | None = None) -> list[XPathResult]:
        """Evaluate an XPath query over one XML column.

        Returns one result per matched node, joined back to the base row
        through the DocID index (Fig. 2): one DocID search and one row fetch
        per matched document, shared by its results.

        With any ``EngineConfig.slow_query_*`` threshold set, the query
        runs under a private tracer and its counter deltas are checked on
        completion: an offender is captured as an
        :class:`~repro.obs.explain.ExplainResult` without its rows and
        recorded in the event ring (see :attr:`slow_queries`).
        """
        if not self._slow_thresholds:
            return self._xpath(table, column, path_text, namespaces,
                               method)[1]
        tracer = Tracer(self.stats, name="slow_query")
        with tracer.install():
            plan, out = self._xpath(table, column, path_text, namespaces,
                                    method)
        deltas = tracer.root.counters
        exceeded = {
            name: (deltas.get(name, 0), limit)
            for name, limit in self._slow_thresholds.items()
            if deltas.get(name, 0) > limit
        }
        if exceeded:
            self.stats.add("obs.slow_queries")
            self.stats.events.emit(
                "db.slow_query",
                query=ExplainResult(plan, [], tracer.root, exceeded))
        return out

    @property
    def slow_queries(self) -> list[ExplainResult]:
        """Slow queries retained in the event ring, oldest first."""
        return [record.payload["query"]
                for record in self.stats.events.records("db.slow_query")]

    def _xpath(self, table: str, column: str, path_text: str,
               namespaces: dict[str, str] | None = None,
               method: AccessMethod | None = None
               ) -> tuple[AccessPlan, list[XPathResult]]:
        with self.stats.trace("db.xpath", table=table, column=column,
                              path=path_text) as span:
            plan = self.plan_xpath(table, column, path_text, namespaces,
                                   method)
            out = self.execute_plan(table, column, plan)
            if span is not None:
                span.set("method", plan.method.value)
                span.set("rows", len(out))
            return plan, out

    def execute_plan(self, table: str, column: str,
                     plan: AccessPlan) -> list[XPathResult]:
        """Execute a :class:`AccessPlan` built by :meth:`plan_xpath` and
        join its matches to their base rows.

        Every access method hands its matches over in DocID order, so the
        join searches the DocID index and fetches the row once per
        document: a match of the previous match's document reuses them.

        A plan reflects the indexes that existed when it was planned, so
        a caller that keeps one across DDL must plan again.
        """
        store = self._store(table, column)
        matches = Executor(store, stats=self.stats).execute(plan)
        with self.stats.trace("db.docid_join") as join_span:
            docid_index = self.docid_indexes[table]
            base_table = self.tables[table]
            out = []
            docid: int | None = None
            base: tuple[Rid, tuple] | None = None
            for match in matches:
                if match.docid != docid:
                    docid, base = match.docid, None
                    rid_bytes = docid_index.search_one(
                        docid.to_bytes(8, "big"))
                    if rid_bytes is not None:
                        base_rid = Rid.from_bytes(rid_bytes)
                        base = base_rid, base_table.fetch(base_rid)
                if base is None:  # pragma: no cover - index skew
                    continue
                out.append(XPathResult(match.docid, *base, match))
            if join_span is not None:
                join_span.set("rows", len(out))
        return out

    def explain_analyze(self, table: str, column: str, path_text: str,
                        namespaces: dict[str, str] | None = None,
                        method: AccessMethod | None = None) -> ExplainResult:
        """Run the query for real and explain what happened (EXPLAIN ANALYZE).

        Returns an :class:`~repro.obs.explain.ExplainResult` pairing the
        chosen :class:`AccessPlan` with the captured span tree: actual row
        counts, per-operator counter deltas (index entries scanned, page
        touches, physical reads) and the evaluated candidates — DB2-style
        EXPLAIN output for the planner of §5.

        The query runs the same path :meth:`xpath` runs — planning, the
        executor and the DocID join — under a fresh tracer installed on
        this database's stats registry for the duration of the call, so
        its counters equal those of a slow-query capture of the same query
        (nesting with an outer tracer is fine; the outer one is restored
        afterwards).
        """
        tracer = Tracer(self.stats, name="explain_analyze")
        with tracer.install():
            with tracer.span("query", table=table, column=column,
                             path=path_text) as span:
                plan, rows = self._xpath(table, column, path_text,
                                         namespaces, method)
                span.set("method", plan.method.value)
                span.set("rows", len(rows))
        return ExplainResult(plan, rows, tracer.root)

    def serialize_result(self, table: str, column: str,
                         result: XPathResult) -> str:
        """XML text of a matched node, as XMLQUERY gives it: a document
        node gives the whole document, an attribute its value."""
        store = self._store(table, column)
        if result.node_id is None:
            raise QueryError("result carries no node identity")
        return store.document(result.docid).serialize(result.node_id)

    def get_document(self, table: str, column: str, docid: int) -> str:
        """Full serialized document for a DocID."""
        return self._store(table, column).document(docid).serialize()

    # -- transactions and fault tolerance ------------------------------------------------

    def close(self) -> None:
        """Quiesce the engine: flush dirty pages and write a checkpoint.

        Closing is idempotent.
        """
        if getattr(self, "_closed", False):
            return
        self.checkpoint()
        # Only now is the engine really closed: if the checkpoint raised
        # (e.g. under fault injection) a later close() must retry it, not
        # silently no-op with the shutdown half done.
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Close only on clean exit: an in-flight exception already owns
        # the failure report.
        if exc_type is None:
            self.close()

    def checkpoint(self) -> None:
        """Flush dirty pages, then write a WAL CHECKPOINT marker.

        Recovery replays the whole log (:meth:`replay`) and reads no page
        back, so the marker bounds no restart work.
        """
        self.txns.checkpoint()

    def _retry_backoff_delay(self, retry_index: int) -> float:
        """Jittered exponential backoff before victim retry ``retry_index``
        (see :data:`TXN_RETRY_BACKOFF_BASE`), drawn from the seeded
        per-engine RNG."""
        return TXN_RETRY_BACKOFF_BASE * (2 ** retry_index) * (
            0.5 + self._retry_rng.random())

    def run_in_txn(self, body: Callable[["Database", object], _T],
                   isolation: IsolationLevel | None = None,
                   deadline: Deadline | None = None) -> _T:
        """Run ``body(db, txn)`` in a transaction, retrying victims.

        Commits on success and returns ``body``'s result.  On any engine
        error the transaction is aborted (undoing its changes); if the
        error was a deadlock or lock timeout the transaction is retried
        from scratch as its successor
        (:meth:`~repro.rdb.txn.TransactionManager.restart`), up to
        :data:`TXN_RETRY_LIMIT` times, before the last error propagates.

        Victim retries back off with seeded jitter (see
        :data:`TXN_RETRY_BACKOFF_BASE`) instead of restarting
        immediately: an immediate restart re-collides with the very
        transactions that just won, turning contention into a retry hot
        loop.  The slept time is charged to the transaction's accounting
        record as ``txn.retry_backoff_us``.

        ``deadline`` propagates into the transaction (capping its
        lock-wait budget) and gates each retry: once expired the work
        fails with :class:`~repro.errors.DeadlineExceededError` —
        non-retryable by construction, so a client deadline cannot be
        burned by the retry machinery.

        Every suspension any attempt hits — lock waits, buffer I/O, the
        retry backoff itself — is charged to the transaction's sink, so it
        reaches the accounting record's per-class waits (a victim's too,
        folded into its successor) and, on a served request's thread, the
        request's wait clock open around the call.
        """
        attempt = 0
        txn: Transaction | None = None
        while True:
            if deadline is not None and deadline.expired():
                self.stats.add("txn.deadline_exceeded")
                raise DeadlineExceededError(
                    f"deadline expired before transaction attempt "
                    f"{attempt} could begin")
            if txn is None:
                txn = self.txns.begin(
                    isolation or IsolationLevel.READ_COMMITTED)
            else:
                # The victim's work, its retry and its txn id fold into
                # this attempt's accounting record.
                txn = self.txns.restart(txn)
            txn.deadline = deadline
            with self.stats.trace("db.txn", txn_id=txn.txn_id,
                                  attempt=attempt) as span:
                try:
                    with txn.charging():
                        result = body(self, txn)
                except (DeadlockError, LockTimeoutError):
                    retrying = attempt < TXN_RETRY_LIMIT
                    if txn.state is TxnState.ACTIVE:
                        # A victim about to be retried records nothing: its
                        # work folds into the next attempt's record.
                        txn.abort(account=not retrying)
                    if span is not None:
                        span.set("outcome", "victim")
                    if not retrying:
                        raise
                    attempt += 1
                    delay = self._retry_backoff_delay(attempt - 1)
                    if deadline is not None:
                        delay = deadline.clamp(delay)
                    if delay > 0:
                        # Charged to the aborted attempt, whose accounting
                        # the next attempt carries.
                        with txn.charging():
                            self.stats.add("txn.retry_backoff_us",
                                           int(delay * 1_000_000))
                            sleep = self.backoff_sleep or time.sleep
                            with self.stats.wait_timer("txn.retry_backoff"):
                                sleep(delay)
                    continue
                except BaseException:
                    if txn.state is TxnState.ACTIVE:
                        txn.abort()
                    if span is not None:
                        span.set("outcome", "abort")
                    raise
                if txn.state is TxnState.ACTIVE:
                    txn.commit()
                if span is not None:
                    span.set("outcome", "commit")
                return result

    # -- recovery -----------------------------------------------------------------------

    @classmethod
    def replay(cls, log: LogManager,
               config: EngineConfig = DEFAULT_CONFIG) -> "Database":
        """Archive recovery (§2 utilities): re-execute the committed
        records of ``log`` against a fresh engine, in one redo pass.

        The recovered engine owns ``log`` from then on: it appends to it
        (so a later crash is recovered from the whole history) and counts
        those appends in its own registry.
        """
        db = cls(config)

        def apply(record) -> None:
            if record.op is LogOp.DDL:
                db._apply_ddl(record.target, record.payload)
            elif record.op is LogOp.INSERT:
                definition = db.catalog.table(record.target)
                row = decode_row(_log_types(definition), record.payload)
                validate = record.extra.decode() if record.extra else None
                db._apply_insert(definition, row,
                                 db._prepare_insert(definition, row, validate))
            elif record.op is LogOp.DELETE:
                db._apply_delete(record.target, Rid.from_bytes(record.payload))

        wal_replay(log, apply)
        log.stats = db.stats
        db.log = log
        db.txns.adopt(log)
        return db

    def _apply_ddl(self, kind: str, payload: bytes) -> None:
        """Apply one DDL statement: the code both the DDL entry points
        (before they log, so a failing statement is never logged) and
        replay run."""
        if kind == "create_table":
            name, pos = codec.read_str(payload, 0)
            n_cols, pos = codec.read_uvarint(payload, pos)
            columns = []
            for _ in range(n_cols):
                col_name, pos = codec.read_str(payload, pos)
                col_type, pos = codec.read_str(payload, pos)
                columns.append(ColumnDef(col_name, SqlType.parse(col_type)))
            self._apply_create_table(TableDef(name, columns))
        elif kind == "create_xpath_index":
            pos = 0
            fields = []
            for _ in range(5):
                text, pos = codec.read_str(payload, pos)
                fields.append(text)
            name, table, column, path, key_type = fields
            namespaces = {}
            while pos < len(payload):
                prefix, pos = codec.read_str(payload, pos)
                namespaces[prefix], pos = codec.read_str(payload, pos)
            store = self._store(table, column)
            definition = XPathIndexDefinition(name, path, key_type,
                                              namespaces)
            index = XPathValueIndex(definition, self.pool, self.catalog.names)
            index.attach(store)
            self.value_indexes[name] = index
            self.catalog.add_index(IndexDef(name, table, {
                "column": column, **definition.spec()}))
        elif kind == "register_schema":
            from repro.xschema.compiler import compile_schema
            name, pos = codec.read_str(payload, 0)
            text, pos = codec.read_str(payload, pos)
            self.catalog.register_schema(name, compile_schema(text))
        else:
            raise CatalogError(f"unknown DDL record {kind!r}")

    # -- helpers --------------------------------------------------------------------------

    def _store(self, table: str, column: str) -> XmlStore:
        store = self.xml_stores.get((table, column))
        if store is None:
            raise DocumentNotFoundError(
                f"{table}.{column} is not an XML column")
        return store


def _log_types(definition: TableDef) -> list[SqlType]:
    """Column types of ``definition``'s logged rows: XML cells are logged
    as their text, so replay re-prepares the same documents."""
    return [SqlType.VARCHAR if column.sql_type is SqlType.XML
            else column.sql_type for column in definition.columns]
