"""Crash-point matrix, torn-tail WAL, and checksum-detection tests.

The matrix runs one insert workload to a crash at six distinct points of
the commit path — around WAL appends, mid page write, around the COMMIT
record, and after a checkpoint — and asserts restart recovery restores
*exactly* the committed prefix, with value and DocID indexes consistent.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.stats import StatsRegistry
from repro.errors import RecoveryError, StorageError
from repro.fault import (CrashHarness, FaultPlan, database_digest,
                         verify_value_indexes)
from repro.rdb.wal import LogManager, LogOp
from repro.xmlstore.node_index import index_key

CONFIG = EngineConfig(page_size=1024, buffer_pool_pages=64)

DOCS = [f"<a><b>{i}</b><c>text {i}</c></a>" for i in range(5)]


def setup_schema(db):
    db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
    db.create_xpath_index("ix_b", "t", "doc", "/a/b", "double")


def insert_one(db, i):
    txn = db.txns.begin()
    db.insert("t", (i, DOCS[i]), txn_id=txn.txn_id)
    txn.commit()


def abort_one(db, i):
    txn = db.txns.begin()
    db.insert("t", (i, DOCS[i]), txn_id=txn.txn_id)
    txn.abort()


def workload(db):
    """DDL + five single-insert transactions (3 WAL appends each)."""
    setup_schema(db)
    for i in range(len(DOCS)):
        insert_one(db, i)


def workload_with_manual_checkpoint(db):
    """Three commits, a checkpoint (flushes pages!), two more commits."""
    setup_schema(db)
    for i in range(3):
        insert_one(db, i)
    db.checkpoint()
    for i in range(3, len(DOCS)):
        insert_one(db, i)


def reference_database(n_docs):
    """What a database holding exactly the first ``n_docs`` looks like."""
    db = Database(CONFIG)
    setup_schema(db)
    for i in range(n_docs):
        insert_one(db, i)
    return db


# (crash point, hit number, docs expected after recovery, workload).
# WAL appends: 2 DDL records, then BEGIN/INSERT/COMMIT per transaction,
# so transaction i (1-based) appends records 3i, 3i+1, 3i+2.
MATRIX = [
    ("wal.append.pre", 9, 2, workload),    # txn 3's BEGIN never hardened
    ("wal.append.post", 10, 2, workload),  # txn 3 began, INSERT hardened,
                                           # no COMMIT -> loser
    ("disk.write.mid", 1, 3, workload_with_manual_checkpoint),
                                           # torn page mid checkpoint flush
    ("wal.commit.pre", 3, 2, workload),    # 3rd COMMIT never hardened
    ("wal.commit.post", 3, 3, workload),   # 3rd COMMIT hardened: durable
                                           # even though commit() never
                                           # returned to the caller
    ("wal.checkpoint.post", 1, 3, workload_with_manual_checkpoint),
]


class TestCrashPointMatrix:
    @pytest.mark.parametrize("point,hit,expected_docs,load",
                             MATRIX, ids=[m[0] for m in MATRIX])
    def test_recovery_restores_committed_prefix(self, tmp_path, point, hit,
                                                expected_docs, load):
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        outcome = harness.run(load, plan=[FaultPlan.crash_at(point, hit)])
        assert outcome.crashed and outcome.point == point
        recovered = harness.restart()
        assert database_digest(recovered) == \
            database_digest(reference_database(expected_docs))
        verify_value_indexes(recovered)
        hits = recovered.xpath("t", "doc", "/a/b")
        assert len(hits) == expected_docs

    def test_damaged_page_tally_fails_the_structural_check(self, tmp_path):
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        harness.run(workload, plan=[FaultPlan.crash_at("wal.commit.post", 3)])
        recovered = harness.restart()
        verify_value_indexes(recovered)
        space = recovered.xml_stores[("t", "doc")].space
        with recovered.pool.page(space.page_ids[0], write=True) as data:
            data[4] ^= 0x01  # live_bytes, the tally's first field
        with pytest.raises(StorageError, match="tally"):
            verify_value_indexes(recovered)

    def test_lost_root_entry_fails_the_document_list_check(self, tmp_path):
        """A document whose root entry is gone from the NodeID index would
        drop out of every full scan: the gate compares the index's
        documents with the store's."""
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        harness.run(workload, plan=[FaultPlan.crash_at("wal.commit.post", 3)])
        recovered = harness.restart()
        verify_value_indexes(recovered)
        store = recovered.xml_stores[("t", "doc")]
        docid = store.docids()[1]
        (root, rid), = store.node_index.entries_for_document(docid)
        store.node_index.tree.delete(index_key(docid, root), rid.to_bytes())
        with pytest.raises(AssertionError, match="NodeID index"):
            verify_value_indexes(recovered)

    def test_no_crash_when_plan_unused(self, tmp_path):
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        outcome = harness.run(workload,
                              plan=[FaultPlan.crash_at("never.fires", 1)])
        assert not outcome.crashed
        recovered = harness.restart()
        assert database_digest(recovered) == \
            database_digest(reference_database(len(DOCS)))

    def test_mid_write_crash_tears_device_image(self, tmp_path):
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        outcome = harness.run(workload_with_manual_checkpoint,
                              plan=[FaultPlan.crash_at("disk.write.mid", 1)])
        assert outcome.crashed
        # The torn page is caught by checksum verification on image load...
        from repro.errors import ChecksumError
        with pytest.raises(ChecksumError):
            harness.load_image(verify=True)
        # ...and recovery (WAL replay) is unaffected by the damaged image.
        recovered = harness.restart()
        verify_value_indexes(recovered)


class TestCheckpointRecovery:
    def test_analysis_starts_from_last_checkpoint(self, tmp_path):
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        outcome = harness.run(workload_with_manual_checkpoint,
                              plan=[FaultPlan.crash_at("wal.commit.pre", 5)])
        assert outcome.crashed
        log = LogManager.load(harness.wal_path)
        recovered = Database.replay(log, CONFIG)
        # Commits 1-3 predate the checkpoint, commit 4 follows it.
        assert database_digest(recovered) == \
            database_digest(reference_database(4))

    def test_automatic_checkpoints_by_commit_count(self, tmp_path):
        config = CONFIG.with_(checkpoint_interval=2)
        harness = CrashHarness(str(tmp_path), config=config)
        outcome = harness.run(workload, plan=())
        assert not outcome.crashed
        checkpoints = [r for r in outcome.db.log.records()
                       if r.op is LogOp.CHECKPOINT]
        assert len(checkpoints) == 2  # after commits 2 and 4
        assert outcome.db.stats.get("wal.checkpoints") == 2

    def test_in_flight_txn_at_checkpoint_is_loser(self, tmp_path):
        """A txn active at checkpoint time that never commits must not
        resurface."""
        def load(db):
            setup_schema(db)
            insert_one(db, 0)
            straggler = db.txns.begin()
            db.insert("t", (99, DOCS[1]), txn_id=straggler.txn_id)
            db.checkpoint()
            insert_one(db, 2)
            # straggler never commits: crash before it can.

        harness = CrashHarness(str(tmp_path), config=CONFIG)
        harness.run(load, plan=())
        recovered = harness.restart()
        rows = sorted(row[0] for _, row in recovered.tables["t"].scan_rids())
        assert rows == [0, 2]
        verify_value_indexes(recovered)

    @pytest.mark.parametrize("fate,expected", [
        ("commit", [0, 1, 2]), ("abort", [0, 2]), ("crash", [0, 2])])
    def test_in_flight_txn_at_checkpoint_by_fate(self, tmp_path, fate,
                                                  expected):
        """A txn that logged before a checkpoint and commits, aborts or is
        cut by a crash after it recovers by its COMMIT alone."""
        def load(db):
            setup_schema(db)
            insert_one(db, 0)
            straggler = db.txns.begin()
            db.insert("t", (1, DOCS[1]), txn_id=straggler.txn_id)
            db.checkpoint()
            insert_one(db, 2)
            if fate == "commit":
                straggler.commit()
            elif fate == "abort":
                straggler.abort()
            else:
                db.insert("t", (3, DOCS[3]), txn_id=straggler.txn_id)

        plan = [FaultPlan.crash_at("wal.append.post", 12)] \
            if fate == "crash" else []
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        outcome = harness.run(load, plan=plan)
        assert outcome.crashed == (fate == "crash")
        reference = Database(CONFIG)
        setup_schema(reference)
        for i in expected:
            insert_one(reference, i)
        recovered = harness.restart()
        assert database_digest(recovered) == database_digest(reference)
        verify_value_indexes(recovered)


class TestRestartedEngineKeepsItsHistory:
    def test_second_crash_recovers_both_generations(self, tmp_path):
        """Crash, restart, more work, crash, restart: the second restart
        sees the first generation's DDL and commits, and the first
        generation's cut transaction stays cut."""
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        harness.run(workload, plan=[FaultPlan.crash_at("wal.commit.pre", 4)])
        first = harness.restart()   # txns 1-3 committed, txn 4 cut
        abort_one(first, 4)
        insert_one(first, 3)
        insert_one(first, 4)
        straggler = first.txns.begin()
        first.insert("t", (0, DOCS[0]), txn_id=straggler.txn_id)
        # 11 appends since the restart: 3 (abort), 2 x 3 (commits), 2.
        assert first.stats.get("wal.records") == 11
        path = str(tmp_path / "second.wal")
        first.log.save(path)        # the second crash
        second = Database.replay(LogManager.load(path), CONFIG)
        assert database_digest(second) == \
            database_digest(reference_database(len(DOCS)))
        verify_value_indexes(second)


class TestReadOnlyWork:
    """A transaction that changes nothing writes nothing to the log."""

    @staticmethod
    def read(db, i):
        rows = db.run_in_txn(lambda eng, txn: eng.xpath(
            "t", "doc", f"/a[b = {i % len(DOCS)}]/c"))
        assert [row.match.item.value for row in rows] == \
            [f"text {i % len(DOCS)}"]

    def test_query_only_run_never_reaches_the_commit_point(self, tmp_path):
        def load(db):
            setup_schema(db)
            for i, doc in enumerate(DOCS):
                db.insert("t", (i, doc))   # auto-commit: no COMMIT record
            for i in range(20):
                self.read(db, i)

        harness = CrashHarness(str(tmp_path), config=CONFIG)
        outcome = harness.run(load,
                              plan=[FaultPlan.crash_at("wal.commit.pre")])
        assert not outcome.crashed
        assert outcome.db.stats.get("txn.begun") == 20
        assert LogOp.COMMIT not in {r.op for r in outcome.db.log.records()}

    def test_queries_count_towards_no_checkpoint(self):
        db = Database(CONFIG.with_(checkpoint_interval=256))
        setup_schema(db)
        for i, doc in enumerate(DOCS):
            db.insert("t", (i, doc))
        before = db.log.next_lsn
        for i in range(300):
            self.read(db, i)
        assert db.log.next_lsn == before    # no CHECKPOINT record either
        assert db.stats.get("wal.checkpoints") == 0


class TestTornTailWal:
    def run_and_save(self, tmp_path):
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        harness.run(workload, plan=())
        return harness

    def test_torn_tail_dropped_not_fatal(self, tmp_path):
        harness = self.run_and_save(tmp_path)
        full = harness.load_log()
        n_records = len(list(full.records()))
        harness.tear_log_tail(3)  # cut into the last record's body
        stats = StatsRegistry()
        torn = LogManager.load(harness.wal_path, stats=stats)
        assert len(list(torn.records())) == n_records - 1
        assert stats.get("recovery.torn_tail_dropped") == 1

    def test_torn_commit_record_loses_its_txn(self, tmp_path):
        harness = self.run_and_save(tmp_path)
        harness.tear_log_tail(3)  # final record is txn 5's COMMIT
        recovered = harness.restart()
        assert database_digest(recovered) == \
            database_digest(reference_database(4))
        verify_value_indexes(recovered)

    def test_torn_frame_header_dropped(self, tmp_path):
        harness = self.run_and_save(tmp_path)
        full_size = len(open(harness.wal_path, "rb").read())
        last_len = None
        # Cut so only part of the last record's 8-byte frame header remains.
        log = harness.load_log()
        last = list(log.records())[-1]
        last_len = len(last.encode())
        harness.tear_log_tail(last_len + 3)
        stats = StatsRegistry()
        torn = LogManager.load(harness.wal_path, stats=stats)
        assert stats.get("recovery.torn_tail_dropped") == 1
        assert len(list(torn.records())) == \
            len(list(log.records())) - 1
        assert full_size > last_len

    def test_loaded_log_reports_volume(self, tmp_path):
        """Satellite: a reloaded log must report its volume (E3 counters)."""
        harness = self.run_and_save(tmp_path)
        stats = StatsRegistry()
        loaded = LogManager.load(harness.wal_path, stats=stats)
        n_records = len(list(loaded.records()))
        assert n_records > 0
        assert stats.get("wal.records") == n_records
        assert stats.get("wal.bytes") == loaded.bytes_written > 0

    def test_mid_log_corruption_is_fatal(self, tmp_path):
        harness = self.run_and_save(tmp_path)
        with open(harness.wal_path, "r+b") as fh:
            fh.seek(10)  # inside the first record's body
            byte = fh.read(1)
            fh.seek(10)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(RecoveryError):
            LogManager.load(harness.wal_path)

    def test_aborted_txns_tracked_through_reload(self, tmp_path):
        def load(db):
            setup_schema(db)
            insert_one(db, 0)
            txn = db.txns.begin()
            db.insert("t", (9, DOCS[1]), txn_id=txn.txn_id)
            txn.abort()
            insert_one(db, 2)

        harness = CrashHarness(str(tmp_path), config=CONFIG)
        harness.run(load, plan=())
        reloaded = harness.load_log()
        recovered = Database.replay(reloaded, CONFIG)
        rows = sorted(row[0] for _, row in recovered.tables["t"].scan_rids())
        assert rows == [0, 2]
