"""Load-harness tests: the 100-client invariant run and induced overload."""

import threading
import time

from repro.core.events import EventTrace
from repro.rdb.wal import LogManager
from repro.serve.loadgen import (LoadHarness, build_database, load_ring_size,
                                 run_load, serving_config)
from repro.serve.server import DatabaseServer


class TestLoadHarness:
    def test_hundred_concurrent_clients_verified(self):
        """The acceptance run: >= 100 clients, mixed read/write workload,
        zero lost or duplicated committed transactions (checked against
        both the base table and the accounting records), latency report
        populated, clean drain."""
        report = run_load(clients=100, ops_per_client=3, seed=11,
                          workers=8, queue_limit=512, deadline=30.0)
        assert report.verified, report.verify_errors
        assert not report.failures
        assert report.committed_inserts > 0
        assert report.hot_commits + report.timed_out + \
            report.deadline_expired > 0
        assert report.p50_request_us > 0
        assert report.p99_request_us >= report.p50_request_us
        assert report.counters["serve.requests"] >= 300

    def test_overload_sheds_and_still_verifies(self):
        """A starved server (1 token, tiny queue) sheds load with
        ServerOverloadedError but never loses or duplicates a commit and
        still drains cleanly.  One request parks on the only token until
        a client is shed, so the shedding does not rest on how the client
        threads happen to overlap."""
        config = serving_config(serve_workers=1, serve_queue_limit=2)
        db, hot_ids = build_database(
            config, trace=EventTrace(load_ring_size(40, 3)))
        server = DatabaseServer(db).start()
        started, release = threading.Event(), threading.Event()

        def park(_db):
            started.set()
            release.wait(timeout=30)

        def release_after_a_shed():
            deadline = time.monotonic() + 30
            while server.stats.get("serve.shed_queue_full") == 0 and \
                    time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()

        parked = threading.Thread(target=server.submit,
                                  args=(None, park, "park", None))
        parked.start()
        assert started.wait(timeout=30)
        watcher = threading.Thread(target=release_after_a_shed)
        watcher.start()
        try:
            report = LoadHarness(db, server, hot_ids).run(
                clients=40, ops_per_client=3, seed=5, deadline=30.0)
        finally:
            release.set()
            watcher.join(timeout=30)
            parked.join(timeout=30)
            db.close()
        assert not watcher.is_alive() and not parked.is_alive()
        assert report.shed > 0
        assert report.counters.get("serve.shed_queue_full", 0) > 0
        assert report.verified, report.verify_errors
        assert not report.failures

    def test_deadlines_expire_under_pressure(self):
        """With millisecond deadlines some requests must run out of time —
        and expire with the typed error, not a generic failure."""
        report = run_load(clients=30, ops_per_client=3, seed=9,
                          workers=2, queue_limit=256, deadline=0.002)
        assert report.deadline_expired > 0
        assert not report.failures
        assert report.verified, report.verify_errors

    def test_every_commit_is_durable_under_load(self, tmp_path):
        """Each COMMIT record hardens as it is appended: after a concurrent
        run every acknowledged commit is verified, and a saved and reloaded
        log holds every appended record."""
        config = serving_config(serve_workers=4, serve_queue_limit=256)
        db, hot_ids = build_database(config)
        server = DatabaseServer(db).start()
        harness = LoadHarness(db, server, hot_ids)
        report = harness.run(clients=8, ops_per_client=3, seed=5)
        assert report.verified, report.verify_errors or report.failures
        assert report.committed_inserts > 0
        path = str(tmp_path / "load.wal")
        db.log.save(path)
        assert list(LogManager.load(path).records()) == \
            list(db.log.records())
        db.close()

    def test_report_flags_an_overcharged_request_clock(self):
        """The request clocks' waits flow through the global per-class
        counters: a ``serve.request`` record claiming more than the
        counter holds fails verification."""
        db, hot_ids = build_database(serving_config())
        harness = LoadHarness(db, None, hot_ids)
        db.stats.charge_wait("lock.wait", 10)
        db.stats.observe("waits.request_wait_us", 25)
        db.stats.events.emit("serve.request", request="c0-op0",
                             elapsed_us=50, outcome="ok",
                             waits={"lock.wait": 25})
        report = harness._report([], 0, 0.0, seeded_insert_txns=1)
        assert not report.verified
        assert report.verify_errors == [
            "request clocks over-charged wait counter waits.lock_wait_us: "
            "records sum to 25, global is 10"]
        db.close()

    def test_report_flags_waits_beyond_elapsed(self):
        """A request whose waits sum to more than its elapsed time had a
        suspension charged twice: verification names the request."""
        db, hot_ids = build_database(serving_config())
        harness = LoadHarness(db, None, hot_ids)
        db.stats.charge_wait("lock.wait", 80)
        db.stats.observe("waits.request_wait_us", 80)
        db.stats.events.emit("serve.request", request="c0-op0",
                             elapsed_us=50, outcome="ok",
                             waits={"lock.wait": 80})
        report = harness._report([], 0, 0.0, seeded_insert_txns=1)
        assert report.verify_errors == [
            "request c0-op0 charged 80us of waits into 50us elapsed: "
            "[('lock.wait', 80)]"]
        db.close()

    def test_report_flags_a_second_wait_observation(self):
        """One served request has one wait clock: a second observation of
        its total wait (a clock nested inside the request's) fails
        verification."""
        db, hot_ids = build_database(serving_config())
        harness = LoadHarness(db, None, hot_ids)
        db.stats.charge_wait("lock.wait", 30)
        db.stats.observe("waits.request_wait_us", 30)
        db.stats.observe("waits.request_wait_us", 30)
        db.stats.events.emit("serve.request", request="c0-op0",
                             elapsed_us=50, outcome="ok",
                             waits={"lock.wait": 30})
        report = harness._report([], 0, 0.0, seeded_insert_txns=1)
        assert report.verify_errors == [
            "waits.request_wait_us holds 2 observations for 1 served "
            "requests that waited"]
        db.close()

    def test_report_round_trips_to_json(self):
        import json
        report = run_load(clients=8, ops_per_client=2, seed=1, workers=2)
        rendered = json.loads(json.dumps(report.to_dict()))
        assert rendered["clients"] == 8
        assert "latency_us" in rendered
        waits = rendered["waits"]
        assert waits["total_us"] == sum(waits["by_class"].values())

    def test_traced_load_reconciles(self):
        """A traced run: Σ waits ≤ elapsed on every served request (a
        double-charged wait fails ``_report``'s verification), the
        per-request wait breakdown is populated, and the trace retains
        records for served requests."""
        from repro.core.events import EventTrace
        from repro.core.stats import WAITS
        from repro.serve.loadgen import load_ring_size

        trace = EventTrace(load_ring_size(12, 3))
        report = run_load(clients=12, ops_per_client=3, seed=3,
                          workers=4, deadline=30.0, trace=trace)
        assert report.verified, report.verify_errors
        assert set(report.waits_by_class) <= set(WAITS)
        served = [r for r in trace.records() if r.name == "serve.request"]
        assert served and all(r.request for r in served)
        assert all(sum(r.payload["waits"].values()) <= r.payload["elapsed_us"]
                   for r in served)
        assert any(r.payload["waits"] for r in served)
