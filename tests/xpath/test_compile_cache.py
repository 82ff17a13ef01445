"""Tests for the engine's query cache (``Database.compile_xpath``).

One LRU per :class:`Database`, keyed on the statement's shape: the text
with its string and number literals lifted out (the segments between them
and the literals' kinds) plus the sorted namespace bindings.  An entry
holds the parsed template, its query tree, the planner's source groups
per index set and the QuickXScan over the tree; each call binds its own
literals.  A text whose lift does
not parse back to the same literals is keyed on its whole text.
"""

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import QUERY_CACHE_SIZE, Database
from repro.errors import XPathSyntaxError
from repro.lang.parser import lift_literals, parse_xpath
from repro.query.plan import AccessMethod
from repro.query.sqlxml import SqlSession
from repro.xpath.quickxscan import QuickXScan

PRODUCT = "/Catalog/Categories/Product"


def catalog_db(docs: int = 20) -> Database:
    db = Database()
    db.create_table("t", [("doc", "xml")])
    for key in range(docs):
        db.insert("t", (
            f"<Catalog><Categories><Product id='p{key}'>"
            f"<RegPrice>{100 + key % 7}</RegPrice></Product>"
            f"</Categories></Catalog>",))
    db.create_xpath_index("ix_price", "t", "doc", f"{PRODUCT}/RegPrice",
                          "double")
    db.create_xpath_index("ix_id", "t", "doc", f"{PRODUCT}/@id", "varchar")
    return db


def docids(db: Database, text: str) -> list[int]:
    return [row.docid for row in db.xpath("t", "doc", text)]


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

    def test_sql_statement_builds_one_scanner_per_path(self, monkeypatch):
        db = Database()
        db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
        for i in range(8):
            db.insert("t", (i, f"<r><v>{i}</v></r>"))
        built = []
        original = QuickXScan.__init__

        def counted(scan, *args, **kwargs):
            built.append(scan)
            original(scan, *args, **kwargs)
        monkeypatch.setattr(QuickXScan, "__init__", counted)
        rows = SqlSession(db).execute(
            "SELECT id, XMLQUERY('/r/v' PASSING doc) AS v FROM t "
            "WHERE id > 1 AND XMLEXISTS('/r[v < 5]' PASSING doc)")
        assert [row["v"] for row in rows] == \
            [f"<v>{i}</v>" for i in range(2, 5)]
        assert len(built) == 2  # one per path, not one per row


class TestShapes:
    def test_point_queries_cost_one_miss_per_shape(self):
        db = catalog_db()
        for i in range(1000):
            key = i % 20
            if i % 4 == 3:
                price = 100 + key % 7
                text = f"{PRODUCT}[RegPrice = {price}]"
                expected = [k + 1 for k in range(20) if k % 7 == key % 7]
            else:
                text = f'{PRODUCT}[@id = "p{key}"]'
                expected = [key + 1]
            assert docids(db, text) == expected, text
        assert db.stats.get("xpath.parse_misses") == 2
        assert db.stats.get("xpath.parse_hits") == 998
        assert len(db._queries) == 2

    def test_point_queries_build_one_scanner_per_shape(self, monkeypatch):
        """Each entry holds its shape's QuickXScan: 1 000 point-query
        texts of two shapes build two, and a hit builds none."""
        built = []
        original = QuickXScan.__init__

        def counted(scan, *args, **kwargs):
            built.append(scan)
            original(scan, *args, **kwargs)
        monkeypatch.setattr(QuickXScan, "__init__", counted)
        db = catalog_db()
        built.clear()  # index key generation runs scanners of its own
        for i in range(1000):
            key = i % 20
            if i % 4 == 3:
                text = f"{PRODUCT}[RegPrice = {100 + key % 7}]"
            else:
                text = f'{PRODUCT}[@id = "p{key}"]'
            assert docids(db, text)
        assert len(built) == 2
        assert {id(scan) for *_, scan in db._queries.values()} == \
            {id(scan) for scan in built}
        assert docids(db, f'{PRODUCT}[@id = "p7"]') == [8]
        assert len(built) == 2

    def test_a_string_and_a_number_at_one_place_are_two_entries(self):
        db = catalog_db()
        number = db.plan_xpath("t", "doc", f"{PRODUCT}[@id = 7]")
        string = db.plan_xpath("t", "doc", f'{PRODUCT}[@id = "7"]')
        assert db.stats.get("xpath.parse_misses") == 2
        # A number is no probe of a VARCHAR key; the string is.
        assert number.method is AccessMethod.FULL_SCAN
        assert string.method is AccessMethod.DOCID_LIST
        assert str(number.path).endswith("[(@id = 7.0)]")
        assert str(string.path).endswith('[(@id = "7")]')

    def test_a_processing_instruction_target_is_not_lifted(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.insert("t", ("<a><?t one?><?u two?></a>",))
        for target, value in (("t", "one"), ("u", "two"), ("t", "one")):
            text = f'/a/processing-instruction("{target}")'
            assert lift_literals(text).kinds == ("STRING",)
            (row,) = db.xpath("t", "doc", text)
            assert row.match.item.value == value
        # Each target is its own entry, keyed on the whole text.
        assert db.stats.get("xpath.parse_misses") == 2
        assert db.stats.get("xpath.parse_hits") == 1
        path, _query = db.compile_xpath('/a/processing-instruction("u")')
        assert path.steps[1].test.target == "u"

    def test_a_target_beside_a_lifted_literal_keeps_its_whole_text(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.insert("t", ("<a><?t one?><?u two?><?t three?></a>",))
        for target, value in (("t", "one"), ("u", "two"), ("t", "three")):
            text = f"/a/processing-instruction('{target}')[. = '{value}']"
            (row,) = db.xpath("t", "doc", text)
            assert (row.match.item.local, row.match.item.value) == \
                (target, value)
        assert db.stats.get("xpath.parse_misses") == 3

    def test_a_number_the_lexer_reads_further_is_not_lifted(self):
        """``5٣`` is one number to the lexer (53) but ``5`` to the lift:
        the values disagree, so each text keeps its own literal."""
        db = Database()
        db.create_table("t", [("doc", "xml")])
        for value in (53, 73):
            db.insert("t", (f"<a><b>{value}</b></a>",))
        for digit, docid in (("5", 1), ("7", 2)):
            rows = db.xpath("t", "doc", f"/a[b = {digit}\u0663]")
            assert [row.docid for row in rows] == [docid]
        assert db.stats.get("xpath.parse_misses") == 2

    def test_digits_inside_names_are_not_lifted(self):
        assert lift_literals("/a1/b-2").kinds == ()
        assert lift_literals("/a[b.5 = 1]").kinds == ("NUMBER",)
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.insert("t", ("<a1><b-2>x</b-2><b-3>y</b-3></a1>",))
        assert [r.match.item.value for r in db.xpath("t", "doc", "/a1/b-2")] \
            == ["x"]
        assert [r.match.item.value for r in db.xpath("t", "doc", "/a1/b-3")] \
            == ["y"]
        assert db.stats.get("xpath.parse_misses") == 2

    def test_a_number_after_a_minus_keeps_its_whole_text(self):
        """``-5`` lexes as a minus and a number the lift leaves in place:
        the lift does not hold, so each text is its own entry."""
        db = catalog_db()
        first = db.compile_xpath(f"{PRODUCT}[RegPrice > -5]")
        second = db.compile_xpath(f"{PRODUCT}[RegPrice > -6]")
        assert db.stats.get("xpath.parse_misses") == 2
        assert "5.0" in str(first[0]) and "6.0" in str(second[0])
        assert db.compile_xpath(f"{PRODUCT}[RegPrice > -5]") is first

    def test_a_literal_free_text_spelling_a_skeleton_misses(self):
        """The key keeps the segments apart, so no text without literals
        finds a lifted entry, however it spells the gaps."""
        db = catalog_db()
        lifted = f'{PRODUCT}[@id = "p1"]'
        assert docids(db, lifted) == [2]
        segments = lift_literals(lifted).segments
        for gap in ("", "?", "$1", "\x00", '""'[:1]):
            misses = db.stats.get("xpath.parse_misses")
            with pytest.raises(XPathSyntaxError):
                db.compile_xpath(gap.join(segments))
            assert db.stats.get("xpath.parse_misses") == misses + 1
        # A path with no literal is never a lifted entry either.
        assert lift_literals(f"{PRODUCT}/@id").kinds == ()
        assert len(db.xpath("t", "doc", f"{PRODUCT}/@id")) == 20
        assert db.stats.get("xpath.parse_hits") == 0

    def test_a_hit_translates_nothing(self, monkeypatch):
        """After a warm-up, a hit runs no lexer, parse, rewrite, query-tree
        compile or containment test."""
        import repro.core.engine as engine
        import repro.lang.parser as parser
        import repro.query.planner as planner

        db = catalog_db()
        docids(db, f'{PRODUCT}[@id = "p1"]')
        docids(db, f"{PRODUCT}[RegPrice = 101]")
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(parser, "tokenize")
        counted(parser, "normalize")
        counted(engine, "parse_xpath")
        counted(engine, "compile_query")
        counted(planner, "relate")
        for key in range(20):
            assert docids(db, f'{PRODUCT}[@id = "p{key}"]') == [key + 1]
            assert docids(db, f"{PRODUCT}[RegPrice = {100 + key % 7}]")
        assert calls == []
        # A new index is a new index set: matched at once, once.
        db.create_xpath_index("ix_id2", "t", "doc", "//Product/@id",
                              "varchar")
        calls.clear()
        docids(db, f'{PRODUCT}[@id = "p3"]')
        docids(db, f'{PRODUCT}[@id = "p4"]')
        assert calls == ["relate", "relate"]  # one per VARCHAR index

    @pytest.mark.parametrize("text", [
        f'{PRODUCT}[@id = "p3"]', f"{PRODUCT}[RegPrice >= 103.5]",
        "/a[b = 'x' or c > 2 and d = \"\"]", "/a[.5 < b]"])
    def test_a_bound_text_equals_its_cold_parse(self, text):
        db = catalog_db()
        lift = lift_literals(text)
        other = "".join(segment + ("0" if kind == "NUMBER" else "'w'")
                        for segment, kind in zip(lift.segments, lift.kinds))
        db.compile_xpath(other + lift.segments[-1])
        path, _query = db.compile_xpath(text)
        assert db.stats.get("xpath.parse_hits") == 1
        assert repr(path) == repr(parse_xpath(text))
        assert str(path) == str(parse_xpath(text))
