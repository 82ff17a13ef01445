"""Unit tests for engine configuration and the stats registry."""

import pytest

from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.stats import GLOBAL_STATS, StatsRegistry


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.page_size == 4096
        assert DEFAULT_CONFIG.record_size_limit == 1024

    def test_with_returns_copy(self):
        tweaked = DEFAULT_CONFIG.with_(record_size_limit=64)
        assert tweaked.record_size_limit == 64
        assert DEFAULT_CONFIG.record_size_limit == 1024
        assert tweaked.page_size == DEFAULT_CONFIG.page_size

    def test_frozen(self):
        with pytest.raises((AttributeError, TypeError)):
            DEFAULT_CONFIG.page_size = 1  # type: ignore[misc]

    def test_config_drives_engine(self):
        from repro.core.engine import Database
        db = Database(EngineConfig(page_size=2048, record_size_limit=64))
        assert db.disk.page_size == 2048
        db.create_table("t", [("doc", "xml")])
        assert db.xml_stores[("t", "doc")].record_limit == 64

    @pytest.mark.parametrize("field", ["txn_group_commit", "ckpt_background"])
    def test_removed_features_accept_only_false(self, field):
        assert getattr(EngineConfig(**{field: False}), field) is False
        with pytest.raises(ValueError, match="removed"):
            EngineConfig(**{field: True})


class TestStats:
    def test_counters(self):
        stats = StatsRegistry()
        stats.add("x")
        stats.add("x", 4)
        assert stats.get("x") == 5
        assert stats.get("missing") == 0

    def test_gauges_high_water(self):
        stats = StatsRegistry()
        stats.set_high_water("peak", 10)
        stats.set_high_water("peak", 3)
        stats.set_high_water("peak", 12)
        assert stats.gauge("peak") == 12

    def test_delta_context(self):
        stats = StatsRegistry()
        stats.add("io", 5)
        with stats.delta() as delta:
            stats.add("io", 3)
            stats.add("new", 1)
        assert delta == {"io": 3, "new": 1}
        assert stats.get("io") == 8

    def test_delta_ignores_zero_changes(self):
        stats = StatsRegistry()
        stats.add("io")
        with stats.delta() as delta:
            pass
        assert delta == {}

    def test_reset(self):
        stats = StatsRegistry()
        stats.add("a")
        stats.set_high_water("b", 2)
        stats.reset()
        assert stats.get("a") == 0
        assert stats.gauge("b") == 0

    def test_snapshot_namespaces_gauges(self):
        stats = StatsRegistry()
        stats.add("a", 2)
        stats.set_high_water("b", 7)
        snap = stats.snapshot()
        assert snap == {"a": 2, "gauge:b": 7}

    def test_snapshot_gauge_never_clobbers_counter(self):
        # Regression: a gauge sharing a counter's name used to silently
        # overwrite the counter in snapshot().
        stats = StatsRegistry()
        stats.add("xscan.peak_units", 100)
        stats.set_high_water("xscan.peak_units", 3)
        snap = stats.snapshot()
        assert snap["xscan.peak_units"] == 100
        assert snap["gauge:xscan.peak_units"] == 3
        # Both round-trip independently of insertion order.
        stats2 = StatsRegistry()
        stats2.set_high_water("x", 9)
        stats2.add("x", 1)
        assert stats2.snapshot() == {"x": 1, "gauge:x": 9}

    def test_counters_excludes_gauges(self):
        stats = StatsRegistry()
        stats.add("a", 2)
        stats.set_high_water("b", 7)
        assert stats.counters() == {"a": 2}

    def test_global_registry_exists(self):
        assert isinstance(GLOBAL_STATS, StatsRegistry)

    def test_engines_have_isolated_stats(self):
        from repro.core.engine import Database
        a, b = Database(), Database()
        a.create_table("t", [("doc", "xml")])
        a.insert("t", ("<x/>",))
        assert b.stats.get("disk.page_writes") == 0
