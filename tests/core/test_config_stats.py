"""Unit tests for engine configuration and the stats registry."""

from collections import Counter

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
        # A block's own work is measured by a charge sink.
        stats = StatsRegistry()
        stats.add("io", 5)
        with stats.charge(delta := Counter()):
            stats.add("io", 3)
            stats.add("new", 1)
        assert delta == {"io": 3, "new": 1}
        assert stats.get("io") == 8

    def test_delta_ignores_zero_changes(self):
        stats = StatsRegistry()
        stats.add("io")
        with stats.charge(delta := Counter()):
            pass
        assert delta == {}

    def test_reset(self):
        stats = StatsRegistry()
        stats.add("a")
        stats.set_high_water("b", 2)
        stats.reset()
        assert stats.get("a") == 0
        assert stats.gauge("b") == 0

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
