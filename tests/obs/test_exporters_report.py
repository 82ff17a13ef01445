"""Exporters (Prometheus text + JSON), slow-query records, and the report CLI."""

import json
import subprocess
import sys

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.events import EventTrace
from repro.core.stats import StatsRegistry
from repro.obs import (Tracer, engine_metrics, metrics_to_dict,
                       render_prometheus, write_metrics_json,
                       write_prometheus)
from repro.obs.report import main as report_main, render_artifact


def sample_stats() -> StatsRegistry:
    stats = StatsRegistry()
    stats.add("disk.page_reads", 7)
    stats.set_high_water("xscan.peak_units", 5)
    for value in (1, 3, 90):
        stats.observe("btree.search_entries", value)
    return stats


class TestPrometheus:
    def test_counters_gauges_histograms(self):
        text = render_prometheus(sample_stats())
        assert "# TYPE repro_disk_page_reads_total counter" in text
        assert "repro_disk_page_reads_total 7" in text
        assert "# TYPE repro_xscan_peak_units gauge" in text
        assert "repro_xscan_peak_units 5" in text
        assert "# TYPE repro_btree_search_entries histogram" in text
        # Cumulative le-buckets: 1 obs <= 1, 2 obs <= 4, all 3 <= 128.
        assert 'repro_btree_search_entries_bucket{le="1"} 1' in text
        assert 'repro_btree_search_entries_bucket{le="4"} 2' in text
        assert 'repro_btree_search_entries_bucket{le="128"} 3' in text
        assert 'repro_btree_search_entries_bucket{le="+Inf"} 3' in text
        assert "repro_btree_search_entries_sum 94" in text
        assert "repro_btree_search_entries_count 3" in text

    def test_write_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(sample_stats(), str(path))
        assert "repro_disk_page_reads_total 7" in path.read_text()

    def test_golden_exposition(self):
        # The full exposition, literally: HELP precedes TYPE for every
        # family, bucket counts are cumulative, +Inf closes each histogram.
        assert render_prometheus(sample_stats()) == (
            "# HELP repro_disk_page_reads_total Engine counter "
            "disk.page_reads (see repro.core.stats registries)\n"
            "# TYPE repro_disk_page_reads_total counter\n"
            "repro_disk_page_reads_total 7\n"
            "# HELP repro_xscan_peak_units Engine gauge xscan.peak_units "
            "(see repro.core.stats registries)\n"
            "# TYPE repro_xscan_peak_units gauge\n"
            "repro_xscan_peak_units 5\n"
            "# HELP repro_btree_search_entries Engine histogram "
            "btree.search_entries (see repro.core.stats registries)\n"
            "# TYPE repro_btree_search_entries histogram\n"
            'repro_btree_search_entries_bucket{le="1"} 1\n'
            'repro_btree_search_entries_bucket{le="4"} 2\n'
            'repro_btree_search_entries_bucket{le="128"} 3\n'
            'repro_btree_search_entries_bucket{le="+Inf"} 3\n'
            "repro_btree_search_entries_sum 94\n"
            "repro_btree_search_entries_count 3\n")

    def test_curated_help_overrides(self):
        stats = StatsRegistry()
        stats.observe("serve.request_us", 42)
        text = render_prometheus(stats)
        assert ("# HELP repro_serve_request_us End-to-end request latency "
                "in microseconds (submit to finish, queue wait included)"
                in text)

    def test_help_and_label_escaping(self):
        from repro.obs.exporters import _escape_help, _escape_label
        assert _escape_help("a\\b\nc") == "a\\\\b\\nc"
        assert _escape_label('say "hi"\\\n') == 'say \\"hi\\"\\\\\\n'

    def test_bucket_counts_are_cumulative_and_end_at_count(self):
        stats = StatsRegistry()
        for value in (1, 1, 2, 500, 10_000_000):
            stats.observe("serve.request_us", value)
        text = render_prometheus(stats)
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("repro_serve_request_us_bucket")]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 5, "+Inf bucket must equal the sample count"


class TestJsonArtifacts:
    def test_metrics_to_dict_shape(self):
        data = metrics_to_dict(sample_stats())
        assert data["counters"] == {"disk.page_reads": 7}
        assert data["gauges"] == {"xscan.peak_units": 5}
        hist = data["histograms"]["btree.search_entries"]
        assert hist["count"] == 3 and hist["max"] == 90
        assert hist["buckets"] == [[1, 1], [4, 1], [128, 1]]

    def test_engine_metrics_includes_accounting_and_snapshot(self, tmp_path):
        db = Database(EngineConfig(slow_query_events=1))
        db.create_table("t", [("doc", "xml")])
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", ("<a><b>x</b></a>",), txn_id=txn.txn_id))
        db.xpath("t", "doc", "/a/b")  # trips the events threshold
        artifact = engine_metrics(db)
        assert artifact["accounting"][0]["outcome"] == "committed"
        assert artifact["slow_queries"][0]["path"] == "/a/b"
        assert artifact["snapshot"]["buffer_pool"]["capacity"] == \
            db.config.buffer_pool_pages
        path = tmp_path / "run.metrics.json"
        write_metrics_json(artifact, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(artifact))


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
        assert record.path == "/a/b"
        assert record.table == "t" and record.column == "doc"
        assert "xscan.events" in record.exceeded
        value, limit = record.exceeded["xscan.events"]
        assert value > limit == 1
        assert record.plan_text  # the planner's explanation came along
        # The span tree captured the whole query.
        assert record.root.find("db.xpath") is not None
        assert db.stats.get("obs.slow_queries") == 1
        assert "SLOW QUERY" in record.format()
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
        db = Database(EngineConfig(slow_query_events=1))
        db.create_table("t", [("doc", "xml")])
        db.run_in_txn(lambda eng, txn: eng.insert(
            "t", ("<a><b>x</b></a>",), txn_id=txn.txn_id))
        db.xpath("t", "doc", "/a/b")
        text = render_artifact(engine_metrics(db), title="unit")
        assert "ENGINE REPORT: unit" in text
        for section in ("== COUNTERS ==", "== HISTOGRAMS ==",
                        "== ACCOUNTING ==", "== SLOW QUERIES =="):
            assert section in text
        assert "wal.records" in text
        assert "wal.record_bytes" in text
        assert "1 transactions (1 committed, 0 aborted" in text
        assert "'/a/b' on t.doc" in text

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
