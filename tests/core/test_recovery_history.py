"""Recovery repeats history: the replay of a log equals the live engine.

``Database.replay`` re-runs every logged operation, aborts included,
through the engine's own entry points, then aborts the transactions the
log leaves open, newest BEGIN record first.  So after any history, the
replay of a saved copy of the log holds exactly what the live engine
holds: the same name table, the same rows at the same RIDs, and the same
NodeID, value-index and DocID-index entries.  With transactions open, it
holds what the live engine holds once it aborts them in that order.

The named scenarios each diverged under commit-only replay (or, for the
moved row, in the live engine itself).  The state machine interleaves
transactions over inserts, deletes, auto-commits, commits, aborts and
refused inserts.  Tier-1 runs a few derandomized examples; CI's long run
passes ``--hypothesis-profile=long`` (registered in ``tests/conftest.py``).
"""

import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.errors import CatalogError, XmlParseError
from repro.fault import (CrashHarness, FaultPlan, database_digest,
                         verify_value_indexes)
from repro.rdb.wal import LogManager, LogOp

CONFIG = EngineConfig(page_size=1024, buffer_pool_pages=64)


def fresh() -> Database:
    db = Database(CONFIG)
    db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
    db.create_xpath_index("ix_b", "t", "doc", "/a/b", "double")
    return db


def doc(key: int) -> str:
    """A document whose second element name depends on the key, so an
    insert may intern a name."""
    return f"<a><b>{key}</b><e{key % 5}>{key}</e{key % 5}></a>"


def replay(db: Database, workdir) -> Database:
    """Replay a saved and reloaded copy of ``db``'s log (replay appends
    the losers' ABORTs to the log it is given)."""
    path = os.path.join(str(workdir), "copy.wal")
    db.log.save(path)
    return Database.replay(LogManager.load(path), db.config)


def abort_open(db: Database) -> None:
    """Abort ``db``'s open transactions newest BEGIN record first, as
    replay aborts its losers (one that logged nothing changes nothing)."""
    begun = [record.txn_id for record in db.log.records()
             if record.op is LogOp.BEGIN]
    for txn in sorted(db.txns.active.values(), reverse=True,
                      key=lambda txn: begun.index(txn.txn_id)
                      if txn.logged else -1):
        txn.abort()


def names(db: Database) -> list[tuple[str, str]]:
    out = []
    while True:
        try:
            out.append(db.catalog.names.name(len(out)))
        except CatalogError:
            return out


def entries(tree) -> list[tuple[bytes, bytes]]:
    return [(bytes(key), bytes(value)) for key, value in tree.scan()]


def state(db: Database) -> dict:
    """Everything live and replay must agree on."""
    return {
        "names": names(db),
        "rows": sorted(db.tables["t"].scan_rids()),
        "nodeid": entries(db.xml_stores[("t", "doc")].node_index.tree),
        "values": {name: entries(index.tree)
                   for name, index in db.value_indexes.items()},
        "docids": entries(db.docid_indexes["t"]),
        "digest": database_digest(db),
    }


def assert_replay_matches(live: Database, workdir) -> Database:
    """Replay a copy of ``live``'s log, abort ``live``'s open transactions,
    and assert the two engines agree."""
    recovered = replay(live, workdir)
    abort_open(live)
    assert state(recovered) == state(live)
    verify_value_indexes(recovered)
    return recovered


def keys(db: Database) -> list[int]:
    return sorted(row[0] for _, row in db.tables["t"].scan_rids())


# -- named scenarios ---------------------------------------------------------

def test_aborted_insert_consumes_its_docid_in_replay(tmp_path):
    db = fresh()
    db.insert("t", (0, doc(0)))
    txn = db.txns.begin()
    db.insert("t", (1, doc(1)), txn_id=txn.txn_id)
    txn.abort()
    db.insert("t", (2, doc(2)))
    assert [row for _, row in sorted(db.tables["t"].scan_rids())] == \
        [(0, 1), (2, 3)]
    assert_replay_matches(db, tmp_path)


def test_aborted_insert_interns_its_names_in_replay(tmp_path):
    db = fresh()
    db.insert("t", (0, "<a/>"))
    txn = db.txns.begin()
    db.insert("t", (1, "<zzz_aborted/>"), txn_id=txn.txn_id)
    txn.abort()
    db.insert("t", (2, "<yyy/>"))
    recovered = assert_replay_matches(db, tmp_path)
    assert [local for local, _ in names(recovered)][-3:] == \
        ["a", "zzz_aborted", "yyy"]


def test_committed_delete_after_an_aborted_delete_removes_the_same_row(
        tmp_path):
    """The aborted deletes' undo re-inserts ``k4`` and then ``k1``, so
    ``k1`` comes back in ``k4``'s old slot; the committed delete of that
    RID removes ``k1`` live and must remove it in replay too."""
    db = fresh()
    rids = [db.insert("t", (k, doc(k))) for k in range(5)]
    txn = db.txns.begin()
    db.delete_row("t", rids[1], txn_id=txn.txn_id)
    db.delete_row("t", rids[4], txn_id=txn.txn_id)
    txn.abort()
    [moved] = [rid for rid, row in db.tables["t"].scan_rids() if row[0] == 1]
    db.delete_row("t", moved)
    assert keys(db) == [0, 2, 3, 4]
    recovered = assert_replay_matches(db, tmp_path)
    assert keys(recovered) == [0, 2, 3, 4]


def test_undo_of_an_insert_follows_its_row_moved_by_a_later_undo(tmp_path):
    """T inserts ``x`` and deletes it; an auto-commit insert of ``y`` takes
    ``x``'s freed slot.  T's abort re-inserts ``x`` elsewhere, and the
    insert's undo must then delete ``x`` there, not ``y`` in the old slot."""
    db = fresh()
    db.insert("t", (0, doc(0)))
    txn = db.txns.begin()
    x = db.insert("t", (1, doc(1)), txn_id=txn.txn_id)
    db.delete_row("t", x, txn_id=txn.txn_id)
    assert db.insert("t", (2, doc(2))) == x
    txn.abort()
    assert keys(db) == [0, 2]
    assert_replay_matches(db, tmp_path)


def test_losers_abort_newest_begin_record_first(tmp_path):
    """Two open transactions delete committed rows: the undo order decides
    which restored row gets which DocID and slot."""
    db = fresh()
    rids = [db.insert("t", (k, doc(k))) for k in range(4)]
    first, second = db.txns.begin(), db.txns.begin()
    db.delete_row("t", rids[1], txn_id=second.txn_id)  # BEGINs first
    db.delete_row("t", rids[2], txn_id=first.txn_id)
    recovered = assert_replay_matches(db, tmp_path)
    assert keys(recovered) == [0, 1, 2, 3]


def test_a_second_restart_recovers_the_same_state(tmp_path):
    """Replay appends one ABORT per loser under its logged txn id, so the
    recovered log replays to the recovered state."""
    db = fresh()
    db.insert("t", (0, doc(0)))
    loser = db.txns.begin()
    db.insert("t", (1, doc(1)), txn_id=loser.txn_id)
    first = replay(db, tmp_path)
    aborts = [record.txn_id for record in first.log.records()
              if record.op is LogOp.ABORT]
    assert aborts == [loser.txn_id]
    assert first.stats.get("wal.records") == 1  # just that ABORT
    first.insert("t", (2, doc(2)))
    second = replay(first, tmp_path)
    assert state(second) == state(first)
    assert keys(second) == [0, 2]


def test_txn_ids_stay_unique_across_restarts(tmp_path):
    """A transaction begun after a restart takes an id past every id in
    the log, so a COMMIT names one transaction across generations."""
    harness = CrashHarness(str(tmp_path), config=CONFIG)

    def load(db):
        db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
        for k in range(3):
            db.run_in_txn(lambda eng, txn, k=k: eng.insert(
                "t", (k, doc(k)), txn_id=txn.txn_id))

    harness.run(load, plan=[FaultPlan.crash_at("wal.commit.pre", 3)])
    recovered = harness.restart()
    recovered.run_in_txn(lambda eng, txn: eng.insert(
        "t", (3, doc(3)), txn_id=txn.txn_id))
    commits = [record.txn_id for record in recovered.log.records()
               if record.op is LogOp.COMMIT]
    assert len(commits) == len(set(commits)) == 3
    assert keys(replay(recovered, tmp_path)) == [0, 1, 3]


# -- the state machine --------------------------------------------------------

class RecoveryHistory(RuleBasedStateMachine):
    """Interleaved transactions over one table; after every step with no
    transaction open, live = replay of a saved copy of the log."""

    def __init__(self) -> None:
        super().__init__()
        self.workdir = tempfile.TemporaryDirectory()
        self.db = fresh()
        self.key = 0
        #: open txn id -> RIDs of the rows it inserted and still holds
        self.owned: dict[int, set] = {}

    def pick(self, who: int) -> int:
        """An open transaction's id, or -1 (auto-commit)."""
        open_ids = sorted(self.owned)
        return open_ids[who] if who < len(open_ids) else -1

    @precondition(lambda self: len(self.owned) < 3)
    @rule()
    def begin(self):
        self.owned[self.db.txns.begin().txn_id] = set()

    @rule(who=st.integers(0, 3))
    def insert(self, who):
        txn_id = self.pick(who)
        rid = self.db.insert("t", (self.key, doc(self.key)), txn_id=txn_id)
        self.owned.get(txn_id, set()).add(rid)
        self.key += 1

    @rule(who=st.integers(0, 3))
    def refused_insert(self, who):
        before = self.db.log.next_lsn
        with pytest.raises(XmlParseError):
            self.db.insert("t", (self.key, "<a><b>"), txn_id=self.pick(who))
        assert self.db.log.next_lsn == before

    @rule(who=st.integers(0, 3), data=st.data())
    def delete(self, who, data):
        """Delete a committed row or one of the transaction's own."""
        txn_id = self.pick(who)
        others = set().union(*(rids for owner, rids in self.owned.items()
                               if owner != txn_id))
        choices = sorted(rid for rid, _ in self.db.tables["t"].scan_rids()
                         if rid not in others)
        if choices:
            rid = data.draw(st.sampled_from(choices))
            self.db.delete_row("t", rid, txn_id=txn_id)
            self.owned.get(txn_id, set()).discard(rid)

    @precondition(lambda self: self.owned)
    @rule(who=st.integers(0, 2), commit=st.booleans())
    def finish(self, who, commit):
        txn_id = self.pick(who % len(self.owned))
        txn = self.db.txns.active[txn_id]
        if commit:
            txn.commit()
        else:
            txn.abort()
        del self.owned[txn_id]

    @precondition(lambda self: self.owned)
    @rule()
    def crash(self):
        """Replay with transactions open: the live engine then aborts them
        newest BEGIN record first, and the two must agree."""
        assert_replay_matches(self.db, self.workdir.name)
        self.owned.clear()

    @invariant()
    def replay_matches(self):
        if not self.owned:
            assert_replay_matches(self.db, self.workdir.name)

    def teardown(self):
        try:
            if self.owned:
                assert_replay_matches(self.db, self.workdir.name)
        finally:
            self.workdir.cleanup()


LONG = settings.get_profile("long")
TestRecoveryHistory = RecoveryHistory.TestCase
TestRecoveryHistory.settings = LONG if settings.default is LONG else \
    settings(LONG, max_examples=25, stateful_step_count=60)
