"""End-to-end serving-layer tests: sessions, statements, drain, latches."""

import ast
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analyze.framework import SourceModule, run_checkers
from repro.analyze.races import SharedStateRaceChecker, guarded_by
from repro.cc.document import doc_resource, node_resource
from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import QUERY_CACHE_SIZE, Database
from repro.core.events import EventTrace
from repro.errors import ServerClosedError, TransactionError, XmlParseError
from repro.fault.harness import verify_value_indexes
from repro.fault.injector import SimulatedCrash
from repro.query.plan import AccessMethod
from repro.rdb.locks import LockMode
from repro.rdb.txn import TxnState
from repro.serve import DatabaseServer

DOC = "<Product><Name>widget {i}</Name><Price>{i}</Price></Product>"
CATALOG = '<Catalog><Product id="p{i}"><Name>n{i}</Name></Product></Catalog>'
SERVER_PY = Path(__file__).resolve().parents[2] / "src/repro/serve/server.py"


def make_db(**overrides):
    config = replace(DEFAULT_CONFIG, checkpoint_interval=0, **overrides)
    db = Database(config)
    db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
    return db


class TestServing:
    def test_auto_commit_insert_and_query(self):
        db = make_db()
        with DatabaseServer(db) as server:
            with server.session() as session:
                for i in range(4):
                    session.insert("docs", (f"k{i}", DOC.format(i=i)))
                out = session.query("docs", "doc", "/Product/Name")
        assert len(out) == 4
        assert db.stats.get("serve.completed") == 5
        assert db.stats.get("serve.failed") == 0
        # The engine is single-threaded again after shutdown.
        assert db.txns.lock_wait_yield is None and db.backoff_sleep is None
        assert len(db.xpath("docs", "doc", "/Product")) == 4

    def test_many_concurrent_client_threads(self):
        db = make_db(serve_workers=4, serve_queue_limit=256)
        errors = []

        def client(index):
            try:
                with server.session() as session:
                    session.insert("docs", (f"c{index}",
                                            DOC.format(i=index)))
                    session.query("docs", "doc", "/Product/Name")
            except Exception as error:  # noqa: BLE001 - tally any failure
                errors.append(error)

        with DatabaseServer(db) as server:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(32)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert db.tables["docs"].row_count == 32
        assert db.stats.get("serve.sessions_opened") == 32
        assert db.stats.get("serve.sessions_closed") == 32

    def test_replace_workload_leaves_every_index_verifiable(self):
        # Two clients insert, read and replace (delete + insert in one
        # transaction) their own documents: every B+tree sees interleaved
        # inserts and deletes on small pages under a pool that evicts.
        db = make_db(page_size=1024, buffer_pool_pages=24, serve_workers=2,
                     lock_wait_budget=512)
        db.create_xpath_index("by_price", "docs", "doc", "/Product/Price",
                              "double")
        errors = []

        def client(index):
            def replace_doc(key, version):
                def body(db, txn):
                    txn.lock(("table", "docs"), LockMode.IX)
                    (old,) = db.xpath("docs", "doc",
                                      f"/Product[Price = {key}]")
                    db.delete_row("docs", old.base_rid, txn_id=txn.txn_id)
                    text = DOC.format(i=key).replace(
                        "widget", f"widget v{version}")
                    return db.insert("docs", (f"k{key}", text),
                                     txn_id=txn.txn_id)
                return body

            try:
                with server.session() as session:
                    keys = range(index, 120, 2)
                    for key in keys:
                        session.insert("docs", (f"k{key}", DOC.format(i=key)))
                    for version in (1, 2):
                        for key in keys[::3]:
                            session.run(replace_doc(key, version))
                            (hit,) = session.query(
                                "docs", "doc", f"/Product[Price = {key}]/Name")
                            assert hit.match.item.value == \
                                f"widget v{version} {key}"
            except Exception as error:  # noqa: BLE001 - tally any failure
                errors.append(error)

        with DatabaseServer(db) as server:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert db.tables["docs"].row_count == 120
        assert db.value_indexes["by_price"].entry_count == 120
        assert db.value_indexes["by_price"].tree.height() > 1
        verify_value_indexes(db)

    def test_statement_cache_hits_and_lru(self):
        """Served queries go through the engine's one statement cache,
        shared by every session."""
        db = make_db()
        with DatabaseServer(db) as server:
            first, second = server.session(), server.session()
            first.insert("docs", ("k", DOC.format(i=1)))
            for session in (first, second, first):
                (hit,) = session.query("docs", "doc", "/Product/Name")
                assert hit.match.item.value == "widget 1"
            assert db.stats.get("xpath.parse_misses") == 1
            assert db.stats.get("xpath.parse_hits") == 2
            # Filling the cache with as many other shapes evicts
            # /Product/Name, so it parses again.
            for i in range(QUERY_CACHE_SIZE):
                first.query("docs", "doc", f"/Product[Price{i} = {i}]")
            second.query("docs", "doc", "/Product/Name")
            assert db.stats.get("xpath.parse_misses") == QUERY_CACHE_SIZE + 2
            assert db.stats.get("xpath.parse_hits") == 2

    def test_prepared_plan_reused_until_ddl(self):
        """The parse is reused; the plan is made per query, so an index
        created between two executions is used by the second."""
        db = make_db()
        path = '/Catalog/Product[@id = "p7"]'
        with DatabaseServer(db) as server:
            session = server.session()
            for i in range(200):
                session.insert("docs", (f"k{i}", CATALOG.format(i=i)))
            assert len(session.query("docs", "doc", path)) == 1
            assert db.stats.get("exec.docs_evaluated") == 200
            assert db.plan_xpath("docs", "doc", path).method \
                is AccessMethod.FULL_SCAN
            # An index created afterwards is used at once.
            db.create_xpath_index("by_id", "docs", "doc",
                                  "/Catalog/Product/@id", "varchar")
            before = db.stats.get("exec.docs_evaluated")
            assert len(session.query("docs", "doc", path)) == 1
            assert db.stats.get("exec.docs_evaluated") - before == 1
            assert db.plan_xpath("docs", "doc", path).method \
                is AccessMethod.DOCID_LIST
            assert db.stats.get("xpath.parse_misses") == 1

    def test_served_queries_reach_slow_query_capture(self):
        db = make_db(slow_query_events=1)
        with DatabaseServer(db) as server:
            session = server.session()
            session.insert("docs", ("k", DOC.format(i=3)))
            (hit,) = session.query("docs", "doc", "/Product/Name")
            assert hit.match.item.value == "widget 3"
        (record,) = db.slow_queries
        assert record.query.attrs["path"] == "/Product/Name"
        assert record.row_count == 1
        assert "xscan.events" in record.exceeded

    @pytest.mark.parametrize("held, other_resource", [
        (doc_resource("docs", 1), doc_resource("docs", 2)),
        # Disjoint subtrees of one document: neither ID prefixes the other.
        (node_resource("docs", 1, b"\x02\x02"),
         node_resource("docs", 1, b"\x02\x04")),
    ], ids=["doc", "node"])
    def test_explicit_txn_holds_locks_across_requests(self, held,
                                                      other_resource):
        db = make_db(serve_workers=2)
        with DatabaseServer(db) as server:
            holder = server.session()
            holder.begin()
            holder.lock(held, LockMode.X)
            other = server.session()
            other.begin()
            assert db.txns.locks.locks_held(holder.txn.txn_id) == 1
            # The other session can take a different resource at once.
            other.lock(other_resource, LockMode.X)
            other.commit()
            holder.commit()
        assert db.stats.get("serve.failed") == 0

    @pytest.mark.parametrize("held, wanted", [
        (doc_resource("docs", 7), doc_resource("docs", 7)),
        # The holder locks an ancestor, the waiter a descendant of it.
        (node_resource("docs", 7, b"\x02"),
         node_resource("docs", 7, b"\x02\x04\x02")),
    ], ids=["doc", "node"])
    def test_explicit_txn_contention_resolves(self, held, wanted):
        """Two sessions fight over one lock; the waiter wins after commit."""
        db = make_db(serve_workers=2, lock_wait_budget=4096)
        with DatabaseServer(db) as server:
            holder = server.session()
            holder.begin()
            holder.lock(held, LockMode.X)
            got_lock = threading.Event()

            def waiter():
                with server.session() as session:
                    session.begin()
                    session.lock(wanted, LockMode.X)
                    got_lock.set()
                    session.commit()

            thread = threading.Thread(target=waiter)
            thread.start()
            assert not got_lock.wait(timeout=0.05)
            holder.commit()  # releases the lock; the waiter proceeds
            thread.join(timeout=10)
            assert got_lock.is_set()

    def test_begin_twice_is_an_error(self):
        db = make_db()
        with DatabaseServer(db) as server:
            session = server.session()
            session.begin()
            with pytest.raises(TransactionError, match="already has txn"):
                session.begin()
            session.rollback()

    def test_session_close_rolls_back_open_txn(self):
        db = make_db()
        with DatabaseServer(db) as server:
            session = server.session()
            session.begin()

            def locked_insert(database, txn):
                return database.insert("docs", ("gone", DOC.format(i=0)),
                                       txn_id=txn.txn_id)

            session.execute(locked_insert)
            session.close()
        assert db.tables["docs"].row_count == 0
        assert db.stats.get("txn.aborts") == 1

    def test_shutdown_rolls_back_abandoned_txns(self):
        db = make_db()
        server = DatabaseServer(db).start()
        session = server.session()
        session.begin()
        session.execute(lambda database, txn: database.insert(
            "docs", ("orphan", DOC.format(i=0)), txn_id=txn.txn_id))
        server.shutdown()
        assert db.tables["docs"].row_count == 0
        assert not db.txns.active

    def test_requests_after_shutdown_are_rejected(self):
        db = make_db()
        server = DatabaseServer(db).start()
        session = server.session()
        server.shutdown()
        # The session was closed by the drain: its front door rejects.
        with pytest.raises(ServerClosedError):
            session.insert("docs", ("late", DOC.format(i=0)))
        # A raw request against the stopped server is shed with the
        # typed error and counted.
        with pytest.raises(ServerClosedError):
            server.submit(None, lambda database: None, "late", None)
        assert db.stats.get("serve.shed_closed") == 1
        server.shutdown()  # idempotent

    def test_latency_histograms_populated(self):
        db = make_db()
        with DatabaseServer(db) as server:
            with server.session() as session:
                for i in range(3):
                    session.insert("docs", (f"k{i}", DOC.format(i=i)))
        for name in ("serve.request_us", "serve.queue_wait_us"):
            hist = db.stats.histogram(name)
            assert hist is not None and hist.count == 3

    def test_one_wait_observation_per_served_request(self):
        # Two tokens over an 8-page pool and documents of several pages:
        # requests wait in the queue, on the latch and on buffer I/O.  Each
        # served request has one wait clock, so the total-wait histogram
        # holds one observation per request record that waited.
        db = make_db(serve_workers=2, buffer_pool_pages=8)
        EventTrace(ring_size=1024).install(db.stats)
        big = "<Catalog>{}</Catalog>".format("".join(
            f"<Product id='p{i}'><Name>widget {i} {'x' * 40}</Name>"
            f"<Price>{i}</Price></Product>" for i in range(120)))

        def client(first):
            with server.session() as session:
                for i in range(first, first + 12):
                    session.insert("docs", (f"k{i}", big))
                    session.query("docs", "doc", f"/Catalog/Product[@id='p{i}']")

        with DatabaseServer(db) as server:
            threads = [threading.Thread(target=client, args=(first,))
                       for first in (0, 100)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert db.stats.get("buffer.misses") > 0
        served = db.stats.events.records("serve.request")
        assert len(served) >= 48 and db.stats.events.dropped == 0
        waited = [r for r in served if sum(r.payload["waits"].values()) > 0]
        assert waited
        hist = db.stats.histogram("waits.request_wait_us")
        assert hist is not None and hist.count == len(waited)


class TestHostileInput:
    @pytest.mark.parametrize("depth", [600, 10_000])
    def test_deep_nesting_fails_typed_and_leaves_the_store_intact(
            self, depth):
        db = make_db()
        db.create_xpath_index("by_price", "docs", "doc", "/Product/Price",
                              "double")
        with DatabaseServer(db) as server:
            with server.session() as session:
                session.insert("docs", ("k0", DOC.format(i=0)))
                with pytest.raises(XmlParseError, match="nested deeper"):
                    session.insert("docs", ("deep",
                                            "<a>" * depth + "</a>" * depth))
                session.insert("docs", ("k1", DOC.format(i=1)))
                out = session.query("docs", "doc", "/Product/Name")
        assert len(out) == 2
        assert db.tables["docs"].row_count == 2
        verify_value_indexes(db)


class TestThreadSafetyRegressions:
    """Pin the fixes the RACE/LATCH checkers forced on the serving layer."""

    def test_first_crash_wins(self):
        # RACE fix: client threads and the shutdown path race to record a
        # crash; _note_crash is latched and first-write-wins, so shutdown
        # always re-raises the crash that actually stopped the server.
        db = make_db()
        server = DatabaseServer(db).start()
        server._note_crash(SimulatedCrash("first", 1))
        server._note_crash(SimulatedCrash("second", 1))
        assert "first" in str(server.crashed)
        with pytest.raises(SimulatedCrash, match="first"):
            server.shutdown()

    def test_session_open_races_shutdown_without_leaking(self):
        # RACE002-class fix: session() checks the state and registers the
        # session in ONE _state_lock region, so a serving->draining flip
        # cannot slip between check and insert.  The stand-in lock runs a
        # shutdown at the first moment session() lets go of the lock: the
        # opened session must be in shutdown's copy of the map (so it is
        # rolled back and counted closed), or the open must be refused.
        db = make_db()
        server = DatabaseServer(db).start()
        real_lock = server._state_lock
        stand_in = _ShutdownOnFirstRelease(server)
        server._state_lock = stand_in
        try:
            session = server.session()
        except ServerClosedError:
            session = None
        server._state_lock = real_lock
        assert stand_in.abandoned is not None, "session() never released"
        if session is not None:
            assert session in stand_in.abandoned, \
                "session registered after shutdown copied the map: leaked"
        for leftover in stand_in.abandoned:
            server._sessions[leftover.session_id] = leftover
        server.shutdown()
        assert db.stats.get("serve.sessions_opened") == \
            db.stats.get("serve.sessions_closed")
        assert server.state == "closed"

    def test_close_waits_for_the_latch_before_rolling_back(self):
        # Session close rolls back under db.latch: while a client thread
        # runs another session's engine work, the closing client must
        # block, and the transaction it abandons must stay ACTIVE until
        # the latch is free.
        db = make_db()
        with DatabaseServer(db) as server:
            a = server.session()
            a.begin()
            a.execute(lambda db, txn: db.insert(
                "docs", ("a", DOC.format(i=1)), txn_id=txn.txn_id))
            txn = a.txn
            started, release = threading.Event(), threading.Event()

            def hold_latch(db):
                started.set()
                release.wait(10)

            holder = threading.Thread(target=server.submit, args=(
                server.session(), hold_latch, "hold", None))
            holder.start()
            assert started.wait(10)
            closer = threading.Thread(target=a.close)
            closer.start()
            closer.join(0.3)
            try:
                assert closer.is_alive(), "close() returned under the latch"
                assert txn.state is TxnState.ACTIVE
            finally:
                release.set()
                holder.join(10)
                closer.join(10)
            assert not closer.is_alive()
            assert txn.state is TxnState.ABORTED
        assert db.tables["docs"].row_count == 0

    def test_static_inference_names_the_state_lock(self):
        # The guard the analyzer reads for each of the server's shared
        # fields is ``_state_lock``, and server.py holds it at every access.
        module = SourceModule(SERVER_PY, SERVER_PY.parents[2])
        cls = next(node for node in ast.walk(module.tree)
                   if isinstance(node, ast.ClassDef)
                   and node.name == "DatabaseServer")
        assert guarded_by(cls)[1] == {
            "_state_lock": ("_state", "_sessions", "_crashed", "_free",
                            "_waiting")}
        assert run_checkers([SharedStateRaceChecker()], [SERVER_PY],
                            root=SERVER_PY.parents[2]) == []


class _ShutdownOnFirstRelease:
    """A ``_state_lock`` stand-in whose first release lets a shutdown in.

    Right after the first release, it does what ``shutdown`` does under
    the lock: flip the state to ``draining`` and take (and clear) the
    session map.  That is the interleaving where a check-then-insert split
    over two regions leaks a session.
    """

    def __init__(self, server):
        self._lock = threading.Lock()
        self._server = server
        self.abandoned = None

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        if self.abandoned is None:
            with self._lock:
                self._server._state = "draining"
                self.abandoned = list(self._server._sessions.values())
                self._server._sessions.clear()
