"""Group commit under a live server: batching and the commit invariant.

With concurrent committers and a collection window, at least one log
force must cover more than one COMMIT record — and every acknowledged
insert must be present exactly once afterwards (the load harness's
two-view verification).
"""

from repro.serve.loadgen import (LoadHarness, build_database,
                                 serving_config)
from repro.serve.server import DatabaseServer


class TestGroupCommitUnderLoad:
    def test_forces_batch_multiple_commits(self):
        config = serving_config(
            serve_workers=8, serve_queue_limit=256, txn_group_commit=True,
            txn_group_commit_window=0.05)
        db, hot_ids = build_database(config)
        server = DatabaseServer(db).start()
        harness = LoadHarness(db, server, hot_ids)
        report = harness.run(clients=16, ops_per_client=4, seed=11)
        assert report.verified, report.verify_errors or report.failures
        hist = db.stats.histogram("wal.group_size")
        assert hist is not None and hist.count > 0
        # Concurrent committers actually shared a force: fewer grouped
        # forces (hist.count) than commits hardened (hist.sum) is the
        # whole point of group commit.
        assert report.group_size_max >= 2
        assert hist.sum > hist.count
        db.close()

    def test_group_commit_off_forces_every_commit(self):
        config = serving_config(serve_workers=4, serve_queue_limit=256)
        db, hot_ids = build_database(config)
        server = DatabaseServer(db).start()
        harness = LoadHarness(db, server, hot_ids)
        report = harness.run(clients=8, ops_per_client=3, seed=5)
        assert report.verified, report.verify_errors or report.failures
        # auto_flush: every append hardens itself, no grouped forces.
        assert report.wal_group_commits == 0
        assert report.group_size_p50 == 0
        assert db.log.unflushed_count == 0
        db.close()
