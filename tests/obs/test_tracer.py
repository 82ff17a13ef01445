"""Unit tests for the tracing substrate (spans, deltas, export)."""

import json
import threading

from repro.core.stats import StatsRegistry
from repro.obs import Tracer


class TestNullPath:
    def test_trace_without_tracer_yields_none(self):
        stats = StatsRegistry()
        with stats.trace("anything", attr=1) as span:
            assert span is None

    def test_null_trace_is_reusable_and_reentrant(self):
        stats = StatsRegistry()
        with stats.trace("a"):
            with stats.trace("b"):
                pass
        with stats.trace("c"):
            pass

    def test_null_trace_propagates_exceptions(self):
        stats = StatsRegistry()
        try:
            with stats.trace("x"):
                raise ValueError("boom")
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("exception was swallowed")


class TestSpans:
    def test_span_captures_its_counters(self):
        stats = StatsRegistry()
        stats.add("io", 5)
        tracer = Tracer(stats)
        with tracer.install():
            with stats.trace("work") as span:
                stats.add("io", 3)
                stats.add("new", 1)
        assert span.counters == {"io": 3, "new": 1}
        assert span.counter("io") == 3
        assert span.counter("missing") == 0

    def test_spans_nest_by_call_order(self):
        stats = StatsRegistry()
        tracer = Tracer(stats)
        with tracer.install():
            with stats.trace("outer"):
                stats.add("a")
                with stats.trace("inner") as inner:
                    stats.add("b")
        outer = tracer.root.find("outer")
        assert [c.name for c in outer.children] == ["inner"]
        # Outer deltas are inclusive of the inner span's work.
        assert outer.counters == {"a": 1, "b": 1}
        assert inner.counters == {"b": 1}

    def test_attrs_and_set(self):
        stats = StatsRegistry()
        tracer = Tracer(stats)
        with tracer.install():
            with stats.trace("op", key="v") as span:
                span.set("rows", 7)
        assert tracer.root.find("op").attrs == {"key": "v", "rows": 7}

    def test_install_restores_previous_tracer(self):
        stats = StatsRegistry()
        outer, inner = Tracer(stats), Tracer(stats)
        with outer.install():
            with inner.install():
                assert stats.tracer is inner
            assert stats.tracer is outer
        assert stats.tracer is None

    def test_root_counters_cover_install_window(self):
        stats = StatsRegistry()
        tracer = Tracer(stats)
        with tracer.install():
            stats.add("x", 2)
        assert tracer.root.counters == {"x": 2}

    def test_find_all(self):
        stats = StatsRegistry()
        tracer = Tracer(stats)
        with tracer.install():
            for _ in range(3):
                with stats.trace("leaf"):
                    pass
        assert len(tracer.root.find_all("leaf")) == 3

    def test_format_renders_tree(self):
        stats = StatsRegistry()
        tracer = Tracer(stats)
        with tracer.install():
            with stats.trace("parent", n=1):
                stats.add("io")
                with stats.trace("child"):
                    pass
        text = tracer.root.format()
        assert "parent" in text and "child" in text and "io=1" in text


class TestThreads:
    def test_a_span_counts_only_its_own_threads_work(self):
        # Thread A opens a span; thread B then counts and opens a span of
        # its own while A's is still open.  A's span sees only A's adds,
        # and B's span is not added to A's tree.
        stats = StatsRegistry()
        tracer = Tracer(stats)
        a_open, b_done = threading.Event(), threading.Event()

        def thread_b():
            a_open.wait()
            stats.add("serve.requests")
            with stats.trace("other.span"):
                stats.add("buffer.hits")
            b_done.set()

        other = threading.Thread(target=thread_b)
        other.start()
        with tracer.install():
            with stats.trace("work") as span:
                stats.add("btree.searches")
                a_open.set()
                b_done.wait()
        other.join()
        assert span.counters == {"btree.searches": 1}
        assert tracer.root.counters == {"btree.searches": 1}
        assert [child.name for child in tracer.root.children] == ["work"]
        assert span.children == []
        assert stats.counters() == {"btree.searches": 1,
                                    "serve.requests": 1, "buffer.hits": 1}


class TestExport:
    def test_span_to_dict_roundtrips_json(self):
        stats = StatsRegistry()
        tracer = Tracer(stats)
        with tracer.install():
            with stats.trace("op", blob=b"\x01\x02", tag="t") as span:
                stats.add("io", 2)
                span.set("rid", (1, 2))
        data = json.loads(json.dumps(tracer.root.to_dict()))
        op = data["children"][0]
        assert op["name"] == "op"
        assert op["counters"] == {"io": 2}
        assert op["attrs"]["blob"] == "0102"       # bytes hex-encoded
        assert op["attrs"]["rid"] == [1, 2]        # tuples to lists
