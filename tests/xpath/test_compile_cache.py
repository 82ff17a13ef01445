"""Tests for the engine's query cache (``Database.compile_xpath``).

One LRU per :class:`Database`, keyed on (path text, sorted namespace
bindings), holding the parsed location path and its compiled query tree.
"""

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import QUERY_CACHE_SIZE, Database
from repro.lang.parser import parse_xpath
from repro.query.sqlxml import SqlSession


class TestCachedParse:
    def test_hit_and_miss_counters(self):
        db = Database()
        first = db.compile_xpath("/a/b")
        again = db.compile_xpath("/a/b")
        assert again is first                  # shared (path, tree) pair
        assert db.stats.get("xpath.parse_misses") == 1
        assert db.stats.get("xpath.parse_hits") == 1

    def test_namespaces_participate_in_key(self):
        db = Database()
        plain = db.compile_xpath("/x:a", {"x": "urn:one"})
        other = db.compile_xpath("/x:a", {"x": "urn:two"})
        assert plain is not other
        assert plain[0].steps[0].test.uri == "urn:one"
        assert other[0].steps[0].test.uri == "urn:two"
        assert db.stats.get("xpath.parse_misses") == 2
        # Binding order does not matter.
        a = db.compile_xpath("/x:a", {"x": "u1", "y": "u2"})
        b = db.compile_xpath("/x:a", {"y": "u2", "x": "u1"})
        assert a is b
        # No bindings and empty bindings are one key.
        assert db.compile_xpath("/a", None) is db.compile_xpath("/a", {})

    def test_parse_result_matches_uncached(self):
        path, _query = Database().compile_xpath("/a//b[@c > 3]")
        assert repr(path) == repr(parse_xpath("/a//b[@c > 3]"))


class TestCachedCompile:
    def test_hit_and_miss_counters(self):
        db = Database()
        _path, query = db.compile_xpath("/a/b[c]")
        _again, query_again = db.compile_xpath("/a/b[c]")
        assert query_again is query            # compiled once, then reused
        assert db.stats.get("xpath.parse_misses") == 1
        assert db.stats.get("xpath.parse_hits") == 1
        assert "xpath.compile_hits" not in db.stats.snapshot()


class TestLruBehaviour:
    def test_eviction_at_capacity(self):
        db = Database()
        for i in range(QUERY_CACHE_SIZE + 10):
            db.compile_xpath(f"/a/e{i}")
        assert len(db._queries) == QUERY_CACHE_SIZE
        # The oldest entries were evicted: re-asking misses again.
        before = db.stats.get("xpath.parse_misses")
        db.compile_xpath("/a/e0")
        assert db.stats.get("xpath.parse_misses") == before + 1
        # The newest entry is still there.
        hits = db.stats.get("xpath.parse_hits")
        db.compile_xpath(f"/a/e{QUERY_CACHE_SIZE + 9}")
        assert db.stats.get("xpath.parse_hits") == hits + 1

    def test_recent_use_protects_against_eviction(self):
        db = Database()
        db.compile_xpath("/keep/me")
        for i in range(QUERY_CACHE_SIZE - 1):
            db.compile_xpath(f"/fill/e{i}")
            db.compile_xpath("/keep/me")   # refresh recency
        db.compile_xpath("/one/more")      # evicts the LRU entry
        before = db.stats.get("xpath.parse_hits")
        db.compile_xpath("/keep/me")
        assert db.stats.get("xpath.parse_hits") == before + 1


class TestEngineIntegration:
    def test_repeated_xpath_hits_cache_with_identical_results(self):
        db = Database(DEFAULT_CONFIG.with_(record_size_limit=128))
        db.create_table("t", [("doc", "xml")])
        for i in range(4):
            db.insert("t", (f"<r><v>{i}</v></r>",))
        first = db.xpath("t", "doc", "/r/v")
        assert db.stats.get("xpath.parse_misses") == 1
        second = db.xpath("t", "doc", "/r/v")
        assert db.stats.get("xpath.parse_hits") == 1
        assert db.stats.get("xpath.parse_misses") == 1
        assert [(m.docid, m.match.item.value) for m in first] == \
            [(m.docid, m.match.item.value) for m in second]

    def test_engines_share_no_entries(self):
        a = Database()
        b = Database()
        for db in (a, b):
            db.create_table("t", [("doc", "xml")])
            db.insert("t", ("<r><v>1</v></r>",))
        a.xpath("t", "doc", "/r/v")
        b.xpath("t", "doc", "/r/v")
        assert a.stats.get("xpath.parse_misses") == 1
        assert b.stats.get("xpath.parse_misses") == 1
        assert b.stats.get("xpath.parse_hits") == 0
        assert a.compile_xpath("/r/v") is not b.compile_xpath("/r/v")

    def test_sql_statement_compiles_its_path_once(self):
        db = Database()
        db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
        for i in range(5):
            db.insert("t", (i, f"<r><v>{i}</v></r>"))
        rows = SqlSession(db).execute(
            "SELECT id, XMLQUERY('/r/v' PASSING doc) AS v FROM t")
        assert [row["v"] for row in rows] == \
            [f"<v>{i}</v>" for i in range(5)]
        # One parse and compile; every later row is a cache hit.
        assert db.stats.get("xpath.parse_misses") == 1
        assert db.stats.get("xpath.parse_hits") == 4
