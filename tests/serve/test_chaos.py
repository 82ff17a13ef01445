"""Chaos mode: injected mid-session faults under a live server.

A ``FaultPlan.fail_at("serve.request", ...)`` spec kills exactly one
session's transaction mid-flight with an ordinary
:class:`~repro.errors.FaultInjectionError` — the process (and every other
session) keeps serving, the dead transaction's work is rolled back, and
recovery replay of the committed log agrees with the surviving state.
"""

import threading
from dataclasses import replace

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.errors import FaultInjectionError
from repro.fault.harness import verify_value_indexes
from repro.fault.injector import FaultInjector, FaultPlan
from repro.serve import DatabaseServer

DOC = "<Product><Name>item {i}</Name><Price>{i}</Price></Product>"


def make_db(plan=(), **overrides):
    config = replace(DEFAULT_CONFIG, checkpoint_interval=0, **overrides)
    db = Database(config, injector=FaultInjector(plan) if plan else None)
    db.create_table("docs", [("key", "varchar"), ("doc", "xml")])
    db.create_xpath_index("ix_price", "docs", "doc", "/Product/Price",
                          "double")
    return db


class TestChaosMode:
    def test_one_request_dies_others_commit(self):
        # The 3rd request body to fire the point dies; everyone else runs.
        db = make_db(plan=[FaultPlan.fail_at("serve.request", hit=3)],
                     serve_workers=4, serve_queue_limit=256)
        outcomes = {}
        lock = threading.Lock()

        def client(index):
            try:
                with server.session() as session:
                    session.insert("docs", (f"c{index}",
                                            DOC.format(i=index)))
                with lock:
                    outcomes[index] = "committed"
            except FaultInjectionError:
                with lock:
                    outcomes[index] = "killed"

        with DatabaseServer(db) as server:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert sorted(outcomes.values()).count("killed") == 1
        assert sorted(outcomes.values()).count("committed") == 7
        assert db.stats.get("serve.chaos_faults") == 1
        assert db.stats.get("serve.failed") == 1
        # The killed session's insert was rolled back: exactly the seven
        # acknowledged rows exist, none duplicated.
        keys = sorted(row[0] for _, row in db.tables["docs"].scan_rids())
        expected = sorted(f"c{i}" for i, out in outcomes.items()
                          if out == "committed")
        assert keys == expected

    def test_mid_explicit_txn_fault_aborts_only_that_session(self):
        db = make_db(plan=[FaultPlan.fail_at("serve.request", hit=2)],
                     serve_workers=2)
        with DatabaseServer(db) as server:
            victim = server.session()
            survivor = server.session()
            victim.begin()
            survivor.begin()

            def insert(key):
                def body(database, txn):
                    return database.insert("docs", (key, DOC.format(i=0)),
                                           txn_id=txn.txn_id)
                return body

            # Request 1 fires the point (hit 1): survives.
            survivor.execute(insert("kept"))
            # Request 2 fires hit 2: the fault kills the victim's txn.
            try:
                victim.execute(insert("lost"))
                raise AssertionError("fault did not fire")
            except FaultInjectionError:
                pass
            assert victim.txn is None  # aborted and forgotten
            survivor.commit()  # undisturbed
        keys = [row[0] for _, row in db.tables["docs"].scan_rids()]
        assert keys == ["kept"]
        assert db.stats.get("txn.aborts") == 1

    def test_recovery_after_chaos_run(self):
        """Replay of the committed log matches the post-chaos engine."""
        db = make_db(plan=[FaultPlan.fail_at("serve.request", hit=2)],
                     serve_workers=2)
        committed = []
        with DatabaseServer(db) as server:
            for index in range(5):
                try:
                    with server.session() as session:
                        session.insert("docs",
                                       (f"c{index}", DOC.format(i=index)))
                    committed.append(f"c{index}")
                except FaultInjectionError:
                    pass
        assert len(committed) == 4
        # The existing crash-harness verifiers: value + DocID indexes of
        # the live engine are intact after the chaos fault...
        verify_value_indexes(db)
        # ... and archive recovery reproduces exactly the committed rows.
        db.injector.disarm()
        replayed = Database.replay(db.log, db.config)
        verify_value_indexes(replayed)
        live_keys = sorted(r[0] for _, r in db.tables["docs"].scan_rids())
        replay_keys = sorted(r[0]
                             for _, r in replayed.tables["docs"].scan_rids())
        assert live_keys == replay_keys == sorted(committed)
        live_docs = sorted(
            db.get_document("docs", "doc", docid)
            for docid in db.xml_stores[("docs", "doc")].docids())
        replay_docs = sorted(
            replayed.get_document("docs", "doc", docid)
            for docid in replayed.xml_stores[("docs", "doc")].docids())
        assert live_docs == replay_docs
