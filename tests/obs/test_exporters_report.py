"""JSON metric artifacts, captured slow queries, and the report CLI."""

import json
import subprocess
import sys

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.events import EventTrace
from repro.core.stats import StatsRegistry
from repro.obs import Tracer
from repro.obs.report import (main as report_main, metrics_to_dict,
                              render_artifact, wait_profile,
                              write_metrics_json)


def sample_stats() -> StatsRegistry:
    stats = StatsRegistry()
    stats.add("disk.page_reads", 7)
    stats.set_high_water("xscan.peak_units", 5)
    for value in (1, 3, 90):
        stats.observe("btree.search_entries", value)
    return stats


class TestJsonArtifacts:
    def test_metrics_to_dict_shape(self):
        data = metrics_to_dict(sample_stats())
        assert data["counters"] == {"disk.page_reads": 7}
        assert data["gauges"] == {"xscan.peak_units": 5}
        hist = data["histograms"]["btree.search_entries"]
        assert hist["count"] == 3 and hist["max"] == 90
        assert hist["buckets"] == [[1, 1], [4, 1], [128, 1]]

    def test_write_metrics_json_round_trips(self, tmp_path):
        artifact = metrics_to_dict(sample_stats())
        path = tmp_path / "run.metrics.json"
        write_metrics_json(artifact, str(path))
        assert json.loads(path.read_text()) == artifact


class TestSlowQueryLog:
    def make_db(self, **thresholds) -> Database:
        db = Database(EngineConfig(**thresholds))
        db.create_table("t", [("doc", "xml")])
        for i in range(3):
            db.insert("t", (f"<a><b n='{i}'>x</b></a>",))
        return db

    def test_offender_is_captured_with_plan_and_trace(self):
        db = self.make_db(slow_query_events=1)
        db.xpath("t", "doc", "/a/b")
        assert len(db.slow_queries) == 1
        record = db.slow_queries[0]
        assert record.query.attrs["path"] == "/a/b"
        assert record.query.attrs["table"] == "t"
        assert record.query.attrs["column"] == "doc"
        assert record.row_count == 3
        assert record.matches == []  # the ring holds no result rows
        assert "xscan.events" in record.exceeded
        value, limit = record.exceeded["xscan.events"]
        assert value > limit == 1
        assert record.counters["xscan.events"] == value
        # The span tree captured the whole query.
        assert record.root.find("db.xpath") is not None
        assert db.stats.get("obs.slow_queries") == 1
        text = record.format()
        assert text.startswith("SLOW QUERY '/a/b' on t.doc [")
        assert "  exceeded xscan.events: " in text
        assert record.plan.explain().splitlines()[0] in text
        assert "db.xpath" in text.split("trace:")[1]
        json.dumps(record.to_dict())

    def test_under_threshold_query_leaves_no_trace(self):
        db = self.make_db(slow_query_events=10_000)
        db.xpath("t", "doc", "/a/b")
        assert len(db.slow_queries) == 0
        assert db.stats.get("obs.slow_queries") == 0

    def test_no_thresholds_means_no_per_query_tracer(self):
        db = self.make_db()
        assert db.stats.tracer is None
        db.xpath("t", "doc", "/a/b")
        assert db.stats.tracer is None
        assert len(db.slow_queries) == 0

    def test_slow_query_tracer_nests_under_user_tracer(self):
        # The per-query tracer must restore an already-installed tracer —
        # the engine's capture cannot eat the user's trace session.
        db = self.make_db(slow_query_events=1)
        mine = Tracer(db.stats, name="mine")
        with mine.install():
            db.xpath("t", "doc", "/a/b")
            assert db.stats.tracer is mine
        assert db.stats.tracer is None
        assert len(db.slow_queries) == 1

    def test_ring_is_bounded(self):
        db = self.make_db(slow_query_events=1)
        EventTrace(ring_size=2).install(db.stats)
        for _ in range(4):
            db.xpath("t", "doc", "/a/b")
        assert len(db.slow_queries) == 2
        assert db.stats.get("obs.slow_queries") == 4


class TestReportCli:
    def test_render_artifact_sections(self):
        db = Database(EngineConfig())
        db.create_table("t", [("doc", "xml")])
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", ("<a><b>x</b></a>",), txn_id=txn.txn_id))
        db.xpath("t", "doc", "/a/b")
        artifact = {**metrics_to_dict(db.stats),
                    "waits": wait_profile(db.stats)}
        text = render_artifact(artifact, title="unit")
        assert "ENGINE REPORT: unit" in text
        for section in ("== COUNTERS ==", "== HISTOGRAMS ==",
                        "== WAITS (class-3 suspensions) =="):
            assert section in text
        assert "wal.records" in text
        assert "wal.record_bytes" in text

    def test_main_reads_artifact_files(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_metrics_json(metrics_to_dict(sample_stats()), str(path))
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        assert "btree.search_entries" in out

    def test_main_rejects_unreadable_artifact(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert report_main([str(missing)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_module_entrypoint_demo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "ENGINE REPORT" in proc.stdout
        assert "== HISTOGRAMS ==" in proc.stdout
        assert "== WAITS (class-3 suspensions) ==" in proc.stdout
        # The demo's own served requests feed the event-ring view.
        assert "6 requests, elapsed" in proc.stdout
        assert "== SLOWEST REQUEST ==" in proc.stdout
