"""Engine-level transaction and crash/restart tests."""

import datetime
from decimal import Decimal

import pytest

from repro.core.engine import Database
from repro.errors import ReproError
from repro.fault import database_digest
from repro.rdb.locks import LockMode
from repro.rdb.wal import LogManager, LogOp


class TestTransactionalInserts:
    def test_abort_undoes_insert(self):
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        db.insert("t", (1, "<a>keep</a>"))
        txn = db.txns.begin()
        db.insert("t", (2, "<a>rollback</a>"), txn_id=txn.txn_id)
        assert db.tables["t"].row_count == 2
        txn.abort()
        assert db.tables["t"].row_count == 1
        # The XML document and its index entries are gone too.
        assert len(db.xpath("t", "doc", "/a")) == 1

    def test_abort_undoes_value_index_entries(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.create_xpath_index("ix", "t", "doc", "/a/v", "double")
        txn = db.txns.begin()
        db.insert("t", ("<a><v>7</v></a>",), txn_id=txn.txn_id)
        txn.abort()
        assert db.value_indexes["ix"].entry_count == 0

    def test_commit_keeps_insert(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        txn = db.txns.begin()
        db.insert("t", ("<a/>",), txn_id=txn.txn_id)
        txn.commit()
        assert db.tables["t"].row_count == 1

    def test_read_then_insert_logs_begin_insert_commit(self):
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        db.create_xpath_index("ix", "t", "doc", "/a/v", "double")
        db.insert("t", (1, "<a><v>1</v></a>"))
        txn = db.txns.begin()
        assert [r.row[0] for r in db.xpath("t", "doc", "/a[v = 1]")] == [1]
        assert [r for r in db.log.records() if r.txn_id == txn.txn_id] == []
        db.insert("t", (2, "<a><v>2</v></a>"), txn_id=txn.txn_id)
        txn.commit()
        assert [r.op for r in db.log.records()
                if r.txn_id == txn.txn_id] == \
            [LogOp.BEGIN, LogOp.INSERT, LogOp.COMMIT]
        assert database_digest(Database.replay(db.log)) == \
            database_digest(db)

    def test_txn_locking_between_sessions(self):
        db = Database()
        writer = db.txns.begin()
        writer.lock(("doc", "doc", 1), LockMode.X)
        reader = db.txns.begin()
        assert not reader.try_lock(("doc", "doc", 1), LockMode.S)
        writer.commit()
        assert reader.try_lock(("doc", "doc", 1), LockMode.S)
        reader.commit()


class TestCrashRestart:
    def test_log_file_roundtrip_recovery(self, tmp_path):
        """Full crash simulation: harden the log to a file, rebuild from it."""
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        db.create_xpath_index("ix", "t", "doc", "/a/v", "double")
        for i in range(5):
            db.insert("t", (i, f"<a><v>{i * 10}</v></a>"))
        loser = db.txns.begin()
        db.insert("t", (99, "<a><v>5</v></a>"), txn_id=loser.txn_id)
        # Crash: the loser never commits; only the log file survives.
        log_path = str(tmp_path / "wal.log")
        db.log.save(log_path)

        recovered = Database.replay(LogManager.load(log_path))
        assert recovered.tables["t"].row_count == 5
        original = {(r.docid, r.node_id)
                    for r in db.xpath("t", "doc", "/a[v >= 20]")}
        replayed = {(r.docid, r.node_id)
                    for r in recovered.xpath("t", "doc", "/a[v >= 20]")}
        # DocIDs/NodeIDs reproduce exactly (deterministic placement), minus
        # nothing — the loser's row never matched the predicate anyway.
        assert replayed == original
        # DocID sequence continues past recovery without collisions.
        recovered.insert("t", (6, "<a><v>60</v></a>"))
        assert len(recovered.xpath("t", "doc", "/a[v = 60]")) == 1

    def test_docid_sequence_survives_deletes_and_recovery(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        rid = db.insert("t", ("<a>first</a>",))
        db.delete_row("t", rid)
        db.insert("t", ("<a>second</a>",))
        recovered = Database.replay(db.log)
        docs = recovered.xpath("t", "doc", "/a")
        assert len(docs) == 1
        assert recovered.get_document("t", "doc", docs[0].docid) \
            == "<a>second</a>"


#: One column of every SQL type, beside an XML column.
EVERY_TYPE = [("n", "bigint"), ("x", "double"), ("m", "decfloat"),
              ("s", "varchar"), ("b", "varbinary"), ("day", "date"),
              ("doc", "xml")]
TYPED_ROWS = [
    (1, 2.5, Decimal("1.10"), "plain", b"\x00\xff", datetime.date(2020, 2, 29),
     "<a>one</a>"),
    (2, None, None, None, None, None, "<a><b>two</b></a>"),
    (-3, -0.1, Decimal("-1E+5"), "ünïcode ✓", b"", datetime.date(1969, 12, 31),
     "<a v='3'/>"),
    (4, 7, "0.3", "", bytearray(b"ba"), "2001-01-01", "<a>four</a>"),
]
#: Rows the engine refuses before anything is logged.
REFUSED_ROWS = {
    "bool cell": (5, True, None, None, None, None, "<a/>"),
    "unencodable text": (5, None, None, "\ud800", None, None, "<a/>"),
    "wrong width": (5, 1.0, None, None, None, None),
}


class TestReplayRoundTrip:
    @pytest.mark.parametrize("refused", sorted(REFUSED_ROWS))
    def test_replay_round_trips_every_column_type(self, refused):
        db = Database()
        db.create_table("t", EVERY_TYPE)
        for row in TYPED_ROWS[:2]:
            db.insert("t", row)
        db.run_in_txn(lambda eng, txn: [
            eng.insert("t", row, txn_id=txn.txn_id) for row in TYPED_ROWS[2:]])
        logged = len(list(db.log.records()))
        with pytest.raises(ReproError):
            db.insert("t", REFUSED_ROWS[refused])
        txn = db.txns.begin()
        with pytest.raises(ReproError):
            db.insert("t", REFUSED_ROWS[refused], txn_id=txn.txn_id)
        txn.commit()
        assert len(list(db.log.records())) == logged
        recovered = Database.replay(db.log)
        assert sorted(map(repr, recovered.tables["t"].scan())) == \
            sorted(map(repr, db.tables["t"].scan()))
        assert database_digest(recovered) == database_digest(db)

