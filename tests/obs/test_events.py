"""The event ring and the profiler."""

import subprocess
import sys
from collections import Counter

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.events import EventTrace
from repro.core.stats import StatsRegistry
from repro.fault.harness import CrashHarness
from repro.fault.injector import FaultInjector, FaultPlan
from repro.obs.report import profile_records, read_jsonl, render_profile
from repro.serve.loadgen import load_ring_size, run_load


@pytest.fixture
def stats():
    return StatsRegistry()


class TestEventTrace:
    def test_emit_and_drain_in_timestamp_order(self):
        trace = EventTrace()
        trace.emit("txn.accounting", txn_id=1, outcome="committed")
        trace.emit("serve.request", elapsed_us=20)
        records = trace.records()
        assert [r.name for r in records] == ["txn.accounting",
                                             "serve.request"]
        assert records[0].ts_ns <= records[1].ts_ns
        assert records[0].txn_id == 1
        assert "class" not in records[0].to_dict()

    def test_ring_wraps_and_counts_drops(self):
        trace = EventTrace(ring_size=4)
        for i in range(10):
            trace.emit("serve.request", elapsed_us=i)
        records = trace.records()
        assert len(records) == 4
        assert trace.dropped == 6
        # Newest survive the wrap.
        assert [r.payload["elapsed_us"] for r in records] == [6, 7, 8, 9]

    def test_context_stamps_and_nests(self):
        trace = EventTrace()
        with trace.context("c1-op2"):
            trace.emit("serve.request", elapsed_us=1)
            trace.emit("txn.accounting", txn_id=9, outcome="committed")
            with trace.context("c1-op3"):
                trace.emit("fault.crash", detail="inner")
            trace.emit("db.slow_query", rows=1)
        trace.emit("db.slow_query", rows=3)
        records = trace.records()
        assert [(r.name, r.request) for r in records] == [
            ("serve.request", "c1-op2"), ("txn.accounting", "c1-op2"),
            ("fault.crash", "c1-op3"), ("db.slow_query", "c1-op2"),
            # Outside any context, no stamp.
            ("db.slow_query", None)]
        # The txn id is the emit's own argument; the context adds none.
        assert [r.txn_id for r in records] == [None, 9, None, None, None]

    def test_every_registry_carries_an_accounting_ring(self, stats):
        ring = stats.events
        assert isinstance(ring, EventTrace)
        assert ring.ring_size == 256

    def test_installed_restores_the_previous_ring(self, stats):
        mine, other = EventTrace(), EventTrace()
        mine.install(stats)
        with other.installed(stats):
            assert stats.events is other
        assert stats.events is mine

    def test_jsonl_round_trip(self, tmp_path):
        trace = EventTrace()
        with trace.context("c0-op0"):
            trace.emit("serve.request", elapsed_us=120,
                       waits={"lock.wait": 30})
        path = str(tmp_path / "trace.jsonl")
        assert trace.write_jsonl(path) == 1
        loaded = read_jsonl(path)
        assert loaded[0]["name"] == "serve.request"
        assert loaded[0]["request"] == "c0-op0"
        assert loaded[0]["payload"]["waits"] == {"lock.wait": 30}

    def test_jsonl_export_of_engine_records_is_json_safe(self, tmp_path):
        # Accounting records carry tuples, slow-query records a captured
        # query: the export renders both as plain JSON.
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
        query = slow["payload"]["query"]
        assert query["trace"]["name"] == "slow_query"
        assert query["exceeded"]["xscan.events"][1] == 1
        assert "matches" not in query


class TestFaultEvents:
    def test_injected_fault_emits_performance_event(self, stats):
        injector = FaultInjector([FaultPlan.fail_nth_write(1)], stats=stats)
        outcome = injector.on_write(0, b"\x00" * 8)
        assert outcome.fail
        # Faults are recorded in the registry's default ring.
        faults = [r for r in stats.events.records()
                  if r.name.startswith("fault.")]
        assert len(faults) == 1
        assert faults[0].payload["detail"]

    def test_crash_harness_flight_recorder(self, tmp_path):
        def load(db):
            db.create_table("t", [("id", "bigint"), ("doc", "xml")])
            for i in range(3):
                db.run_in_txn(lambda eng, txn, i=i: eng.insert(
                    "t", (i, f"<a><b>{i}</b></a>"), txn_id=txn.txn_id))

        harness = CrashHarness(str(tmp_path), config=EngineConfig(),
                               trace=EventTrace())
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
    def _load_records(self):
        trace = EventTrace(load_ring_size(6, 3))
        report = run_load(clients=6, ops_per_client=3, seed=1, trace=trace)
        assert report.verified, report.verify_errors
        return [r.to_dict() for r in trace.records()]

    def test_profile_pairs_waits_to_requests(self):
        records = self._load_records()
        served = [r for r in records if r["name"] == "serve.request"]
        request_clocks: Counter = Counter()
        for record in served:
            request_clocks.update(record["payload"]["waits"])
        profile = profile_records(records)
        # The profile's totals are exactly the request clocks, class by
        # class.
        assert request_clocks
        assert dict(profile.class_totals) == dict(request_clocks)
        assert len(profile.requests) == len(served)
        text = render_profile(profile)
        assert "WAIT-CLASS PROFILE" in text
        slowest = text.split("== SLOWEST REQUEST ==")[1]
        assert "cpuish+other" in slowest.split("== TRACE SUMMARY ==")[0]

    def test_cli_renders_a_jsonl_trace(self, tmp_path):
        import json
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(
            json.dumps(record) for record in self._load_records()))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "WAIT-CLASS PROFILE" in proc.stdout
        assert "requests, elapsed" in proc.stdout
        assert "cpuish+other" in proc.stdout.split("== SLOWEST REQUEST ==")[1]
        assert "TRACE SUMMARY" in proc.stdout
