"""The event ring, the interval collector, and the profiler."""

import subprocess
import sys

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.stats import StatsRegistry
from repro.fault.harness import CrashHarness
from repro.core.events import ALL_CLASSES, EventClass, EventTrace
from repro.fault.injector import FaultInjector, FaultPlan
from repro.obs.events import StatsCollector, read_jsonl
from repro.obs.perf import profile_records, render_profile


@pytest.fixture
def stats():
    return StatsRegistry()


class TestEventTrace:
    def test_emit_and_drain_in_timestamp_order(self):
        trace = EventTrace(classes=ALL_CLASSES)
        trace.accounting("txn.accounting", txn_id=1, outcome="committed")
        trace.performance("wait.lock_wait", us=20)
        records = trace.records()
        assert [r.name for r in records] == ["txn.accounting",
                                             "wait.lock_wait"]
        assert records[0].event_class == "accounting"
        assert records[1].event_class == "performance"
        assert records[0].txn_id == 1

    def test_disabled_class_is_not_recorded(self):
        trace = EventTrace(classes={EventClass.ACCOUNTING})
        assert trace.performance("wait.lock_wait", us=5) is None
        assert trace.accounting("serve.request") is not None
        assert [r.name for r in trace.records()] == ["serve.request"]

    def test_fully_disabled_trace_records_nothing(self):
        trace = EventTrace(classes=())
        assert trace.accounting("serve.request") is None
        assert trace.records() == []

    def test_ring_wraps_and_counts_drops(self):
        trace = EventTrace(ring_size=4, classes=ALL_CLASSES)
        for i in range(10):
            trace.performance("wait.latch_wait", us=i)
        records = trace.records()
        assert len(records) == 4
        assert trace.dropped == 6
        # Newest survive the wrap.
        assert [r.payload["us"] for r in records] == [6, 7, 8, 9]

    def test_context_stamps_and_nests(self):
        trace = EventTrace(classes=ALL_CLASSES)
        with trace.context(request="c1-op2"):
            trace.performance("wait.lock_wait", us=1)
            with trace.context(txn_id=9):
                trace.performance("wait.wal_force", us=2)
        trace.performance("wait.latch_wait", us=3)
        by_name = {r.name: r for r in trace.records()}
        assert by_name["wait.lock_wait"].request == "c1-op2"
        assert by_name["wait.lock_wait"].txn_id is None
        # The inner txn context inherits the outer request label.
        assert by_name["wait.wal_force"].request == "c1-op2"
        assert by_name["wait.wal_force"].txn_id == 9
        # Outside any context, no stamp.
        assert by_name["wait.latch_wait"].request is None

    def test_every_registry_carries_an_accounting_ring(self, stats):
        ring = stats.events
        assert isinstance(ring, EventTrace)
        assert ring.enabled == {EventClass.ACCOUNTING}
        assert ring.ring_size == 256

    def test_install_gates_stats_emission(self, stats):
        default = stats.events
        stats.charge_wait("lock.wait", 10)  # PERFORMANCE off by default
        trace = EventTrace(classes=ALL_CLASSES)
        with trace.installed(stats):
            stats.charge_wait("lock.wait", 25)
        stats.charge_wait("lock.wait", 40)  # the default ring again
        records = trace.records()
        assert [r.payload["us"] for r in records] == [25]
        assert records[0].name == "wait.lock.wait"
        assert stats.events is default
        assert default.records() == []

    def test_installed_restores_the_previous_ring(self, stats):
        mine, other = EventTrace(), EventTrace()
        mine.install(stats)
        with other.installed(stats):
            assert stats.events is other
        assert stats.events is mine

    def test_jsonl_round_trip(self, tmp_path):
        trace = EventTrace()
        with trace.context(request="c0-op0"):
            trace.accounting("serve.request", elapsed_us=120,
                             waits={"lock.wait": 30})
        path = str(tmp_path / "trace.jsonl")
        assert trace.write_jsonl(path) == 1
        loaded = read_jsonl(path)
        assert loaded[0]["name"] == "serve.request"
        assert loaded[0]["request"] == "c0-op0"
        assert loaded[0]["payload"]["waits"] == {"lock.wait": 30}

    def test_jsonl_export_of_engine_records_is_json_safe(self, tmp_path):
        # Accounting records carry tuples, slow-query records a span tree:
        # the export renders both as plain JSON.
        db = Database(EngineConfig(slow_query_events=1))
        db.create_table("t", [("id", "bigint"), ("doc", "xml")])
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", (1, "<a><b>x</b></a>"), txn_id=txn.txn_id))
        db.xpath("t", "doc", "/a/b")
        path = str(tmp_path / "engine.jsonl")
        assert db.stats.events.write_jsonl(path) == 2
        txn, slow = read_jsonl(path)
        assert txn["name"] == "txn.accounting"
        assert txn["payload"]["victim_attempts"] == []
        assert slow["name"] == "db.slow_query"
        assert slow["payload"]["root"]["name"] == "slow_query"
        assert slow["payload"]["exceeded"]["xscan.events"][1] == 1


class TestStatsCollector:
    def test_interval_deltas(self, stats):
        trace = EventTrace(classes=ALL_CLASSES)
        collector = StatsCollector(stats, trace, interval=0.01)
        with collector.running():
            stats.add("buffer.hits", 3)
        records = [r for r in trace.records() if r.name == "stats.interval"]
        assert records, "stop() must emit a final interval record"
        merged: dict[str, int] = {}
        for record in records:
            for name, delta in record.payload["counters"].items():
                merged[name] = merged.get(name, 0) + delta
        assert merged.get("buffer.hits") == 3

    def test_rejects_nonpositive_interval(self, stats):
        with pytest.raises(ValueError):
            StatsCollector(stats, EventTrace(), interval=0)


class TestFaultEvents:
    def test_injected_fault_emits_performance_event(self, stats):
        trace = EventTrace(classes=ALL_CLASSES).install(stats)
        injector = FaultInjector([FaultPlan.fail_nth_write(1)], stats=stats)
        outcome = injector.on_write(0, b"\x00" * 8)
        assert outcome.fail
        faults = [r for r in trace.records()
                  if r.name.startswith("fault.")]
        assert len(faults) == 1 and faults[0].event_class == "performance"

    def test_crash_harness_flight_recorder(self, tmp_path):
        def load(db):
            db.create_table("t", [("id", "bigint"), ("doc", "xml")])
            for i in range(3):
                db.run_in_txn(lambda eng, txn, i=i: eng.insert(
                    "t", (i, f"<a><b>{i}</b></a>"), txn_id=txn.txn_id))

        harness = CrashHarness(str(tmp_path), config=EngineConfig(),
                               trace=EventTrace(classes=ALL_CLASSES))
        outcome = harness.run(
            load, plan=[FaultPlan.crash_at("wal.commit.pre", 3)])
        assert outcome.crashed
        post = harness.post_mortem(8)
        assert post and post[-1]["name"] == "fault.crash"
        harness.restart()
        dumped = read_jsonl(harness.events_path)
        assert any(r["name"] == "fault.crash" for r in dumped)
        assert any(r["name"] == "txn.accounting" for r in dumped)


class TestPerfProfiler:
    def _traced_engine_records(self):
        stats = StatsRegistry()
        trace = EventTrace(classes=ALL_CLASSES).install(stats)
        db = Database(EngineConfig(), stats=stats)
        db.create_table("t", [("id", "bigint"), ("doc", "xml")])
        with trace.context(request="c0-op0"):
            db.run_in_txn(lambda eng, txn: eng.insert(
                "t", (1, "<a><b>x</b></a>"), txn_id=txn.txn_id))
            trace.accounting("serve.request", request="c0-op0",
                             elapsed_us=500, outcome="ok",
                             waits={"lock.wait": 10})
        db.close()
        return [r.to_dict() for r in trace.records()]

    def test_profile_pairs_waits_to_requests(self):
        profile = profile_records(self._traced_engine_records())
        assert profile.requests and \
            profile.requests[0].label == "c0-op0"
        assert profile.records_by_class.get("accounting", 0) >= 2
        text = render_profile(profile)
        assert "WAIT-CLASS PROFILE" in text
        assert "SLOWEST REQUEST" in text

    def test_cli_renders_a_jsonl_trace(self, tmp_path):
        import json
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(
            json.dumps(record) for record in self._traced_engine_records()))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.perf", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "WAIT-CLASS PROFILE" in proc.stdout
        assert "TRACE SUMMARY" in proc.stdout
