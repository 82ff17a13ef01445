"""Crashes at the COMMIT record: the log halts, and a live server keeps
**acknowledged ⊆ recovered ⊆ submitted**.

``wal.commit.pre`` fires before the COMMIT record is appended: that commit
never hardened and was never acknowledged.  ``wal.commit.post`` fires
after it hardened: the commit survives restart although its client never
saw the acknowledgement.  Either way the crash halts the log, so a
surviving worker's append re-raises instead of hardening post-mortem
state.
"""

import threading
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.errors import ReproError
from repro.fault import CrashHarness, FaultPlan, recovered_commit_txns
from repro.fault.injector import FaultInjector, SimulatedCrash
from repro.rdb.wal import LogManager, LogOp
from repro.serve import DatabaseServer

CONFIG = EngineConfig(page_size=1024, buffer_pool_pages=64,
                      checkpoint_interval=0)

DOC = "<Product><Name>item {i}</Name><Price>{i}</Price></Product>"


def insert_five(db):
    db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
    for i in range(5):
        db.run_in_txn(lambda eng, txn, i=i: eng.insert(
            "t", (i, DOC.format(i=i)), txn_id=txn.txn_id))


class TestLogHalt:
    def test_survivors_cannot_append_after_the_crash(self, tmp_path):
        harness = CrashHarness(str(tmp_path), config=CONFIG)
        outcome = harness.run(
            insert_five, plan=[FaultPlan.crash_at("wal.commit.pre", hit=3)])
        assert outcome.crashed
        # The crash halted the log: a surviving thread's append must
        # re-raise, not harden post-mortem state the crash already lost.
        with pytest.raises(SimulatedCrash):
            outcome.db.log.append(99, LogOp.BEGIN)
        assert recovered_commit_txns(harness.load_log()) == {1, 2}


class TestServerCommitCrash:
    """A COMMIT-record crash under a live multi-session server."""

    def _run(self, point, tmp_path, clients=8):
        config = CONFIG.with_(serve_workers=4, serve_queue_limit=256)
        injector = FaultInjector([FaultPlan.crash_at(point, hit=2)])
        db = Database(config, injector=injector)
        db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
        acked, submitted = [], []
        lock = threading.Lock()
        server = DatabaseServer(db).start()

        def client(index):
            key = f"c{index}"
            with lock:
                submitted.append(key)
            try:
                with server.session() as session:
                    session.insert("docs", (key, DOC.format(i=index)))
                with lock:
                    acked.append(key)
            except (SimulatedCrash, ReproError):
                pass  # killed by the crash, shed, or server draining

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        # Shut down once the crash stopped the server: requests still
        # queued behind the dead workers are failed by the shutdown.
        deadline = time.monotonic() + 30
        while server.crashed is None and time.monotonic() < deadline and \
                any(thread.is_alive() for thread in threads):
            time.sleep(0.005)
        with pytest.raises(SimulatedCrash):
            server.shutdown(drain=True)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        # Harden what a real crash left: the durable log prefix.
        injector.disarm()
        wal_path = str(tmp_path / "server-crash.wal")
        db.log.save(wal_path)
        recovered_db = Database.replay(LogManager.load(wal_path), config)
        stored = {row[0] for _, row in
                  recovered_db.tables["docs"].scan_rids()}
        return set(acked), set(submitted), stored

    def test_pre_commit_crash_loses_only_unacknowledged(self, tmp_path):
        acked, submitted, stored = self._run("wal.commit.pre", tmp_path)
        assert acked <= stored  # no acknowledged commit lost
        assert stored <= submitted  # no phantom commit manufactured

    def test_post_commit_crash_keeps_the_commit(self, tmp_path):
        acked, submitted, stored = self._run("wal.commit.post", tmp_path)
        assert acked <= stored
        assert stored <= submitted
        # The crashing commit hardened before the crash: it survives
        # although no client ever saw it acknowledged.
        assert stored
