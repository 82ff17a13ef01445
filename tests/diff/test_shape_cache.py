"""Differential test: no literal leaks between the texts of one shape.

The query cache keys a statement on its shape (its text with the literals
lifted out), so texts that differ only in their literals share one parsed
template, one query tree and one set of planner source groups, each call
binding its own literals.  Every path text of the scan-equivalence,
planner/executor and property-equivalence tests and the benchmark's scan
texts (copied here) runs with several literal variants, interleaved in one
engine; each variant's plan text, ``explain()`` and ordered answer must be
those of a fresh engine that compiles the text cold.  A served version
alternates two sessions over variants of one shape, and one shape's
scanner serves two tables, SQL/XML's per-row scans and two engines' name
tables.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.lang.parser import lift_literals
from repro.query.sqlxml import SqlSession
from repro.serve import DatabaseServer

PRODUCT = "/Catalog/Categories/Product"

PATHS = (
    # tests/query/test_planner_executor.py
    f"{PRODUCT}[RegPrice > 100]",
    f"{PRODUCT}[Discount > 0.1]",
    f"{PRODUCT}[RegPrice > 100 and Discount > 0.1]",
    f"{PRODUCT}[RegPrice > 180 or Discount > 0.28]",
    f"{PRODUCT}[RegPrice > 180 or contains(ProductName, 'Item')]",
    f"{PRODUCT}[RegPrice > 100 and contains(ProductName, 'Item')]",
    f"{PRODUCT}[100 < RegPrice]",
    f"{PRODUCT}[RegPrice > 100 or Discount > 0.2]",
    f"{PRODUCT}[RegPrice = 120.5]",
    f"{PRODUCT}[RegPrice > 1000]",
    f"{PRODUCT}[RegPrice = 200]",
    "//Product/@id",
    # tests/diff/test_scan_equivalence.py and
    # tests/xpath/test_property_equivalence.py (their predicate alphabets)
    "/a[. = 'x']//b",
    "/a/b[. = 'XML']",
    "//b[@w > 250]",
    "/*//c[@w > 42]/text()",
    "//a[b]/c[. = '7']",
    "/a[count(b) = 1]/c",
    "//*[@w > 100][.//c]/@w",
    "/a//b[text()][@w > 7]",
    # the benchmark's scan texts, its ad-hoc scan and its point queries
    "//Product[Discount > 0.4]/ProductName",
    f"{PRODUCT}[RegPrice > 450]/Description",
    "//a//a//a",
    f"{PRODUCT}[Discount < 0.1 and RegPrice > 100]/ProductName",
    '//Product[contains(Description, "zulu")]/@id',
    f"{PRODUCT}[RegPrice > 450 or Discount > 0.45]/Description",
    "//a/a[a]",
    "//Categories/Product[Discount > 0.3][RegPrice < 200]/ProductName",
    "//Product[Discount > 0.400001]/ProductName",
    f'{PRODUCT}[@id = "p3"]',
    f"{PRODUCT}[RegPrice = 150]",
)
NUMBERS = ("0", "7", "42", "100", "120.5", "150", "250", "0.1", "450",
           "0.28", "1000", "200")
STRINGS = ("x", "XML", "7", "Item", "zulu", "p3", "Item4", "", "p0")
VARIANTS = 3


def variants(text: str) -> list[str]:
    """``text`` and other texts of its shape, its literals replaced."""
    lift = lift_literals(text)
    out = [text]
    for v in range(1, VARIANTS):
        parts = []
        for i, (segment, kind, start) in enumerate(
                zip(lift.segments, lift.kinds, lift.starts)):
            if kind == "NUMBER":
                literal = NUMBERS[(7 * v + i) % len(NUMBERS)]
            else:
                quote = text[start]
                literal = quote + STRINGS[(5 * v + i) % len(STRINGS)] + quote
            parts.append(segment + literal)
        out.append("".join(parts) + lift.segments[-1])
    return out


def catalog_doc(i: int) -> str:
    price = (50, 80, 120.5, 150, 200, 95, 130, 450, 1000)[i % 9]
    discount = (0.05, 0.2, 0.15, 0.3, 0.02, 0.12, 0.25, 0.45, 0.1)[i % 9]
    words = ("zulu alpha", "beta", "zulu", "")[i % 4]
    return (f"<Catalog><Categories><Product id='p{i}'>"
            f"<ProductName>Item{i}</ProductName>"
            f"<RegPrice>{price}</RegPrice><Discount>{discount}</Discount>"
            f"<Description>{words}</Description></Product>"
            f"<Product id='q{i}'><RegPrice>{price + 100}</RegPrice>"
            f"<Discount>{discount}</Discount></Product>"
            f"</Categories></Catalog>")


ABC_DOCS = (
    "<a w='7'>x<b w='250'>XML</b><c w='43'>7</c><b><c>x</c></b></a>",
    "<a><b w='300'>x</b><c>7</c><a><a><a>x</a></a></a></a>",
    "<a w='101'><c w='500'>XML<c>42</c></c><b w='8'>7</b></a>",
    "<a>x<b/><c w='0'>7</c></a>",
)


def make_db() -> Database:
    db = Database(DEFAULT_CONFIG.with_(record_size_limit=200))
    db.create_table("t", [("id", "bigint"), ("doc", "xml")])
    for i in range(9):
        db.insert("t", (i, catalog_doc(i)))
    for i, doc in enumerate(ABC_DOCS):
        db.insert("t", (100 + i, doc))
    db.create_xpath_index("ix_price", "t", "doc", f"{PRODUCT}/RegPrice",
                          "double")
    db.create_xpath_index("ix_discount", "t", "doc", "//Discount", "double")
    db.create_xpath_index("ix_id", "t", "doc", f"{PRODUCT}/@id", "varchar")
    db.create_xpath_index("ix_w", "t", "doc", "//b/@w", "double")
    return db


def observe(db: Database, text: str) -> tuple:
    plan = db.plan_xpath("t", "doc", text)
    rows = db.xpath("t", "doc", text)
    return (str(plan.path), plan.explain(),
            [(r.docid, r.match.item.node_id, r.match.item.value)
             for r in rows])


def test_variants_interleaved_in_one_engine_answer_as_cold():
    shared = make_db()
    texts = [text for path in PATHS for text in variants(path)]
    assert len(set(texts)) > 2 * len(PATHS)
    seen = {}
    for round_ in range(VARIANTS):
        for path in PATHS:
            text = variants(path)[round_]
            seen[text] = observe(shared, text)
    shapes = {lift_literals(path)[:2] for path in PATHS}
    assert shared.stats.get("xpath.parse_misses") == len(shapes)
    for text, got in seen.items():
        cold = make_db()
        assert observe(cold, text) == got, text
        assert cold.stats.get("xpath.parse_misses") == 1


def test_a_variant_reads_its_own_literals_after_another_ran():
    """A plan's path and probes keep their literals after the same shape
    is planned with others."""
    db = make_db()
    first = db.plan_xpath("t", "doc", f'{PRODUCT}[@id = "p1"]')
    second = db.plan_xpath("t", "doc", f'{PRODUCT}[@id = "p2"]')
    assert [r.docid for r in db.execute_plan("t", "doc", first)] == [2]
    assert [r.docid for r in db.execute_plan("t", "doc", second)] == [3]
    assert "'p1'" in first.explain() and "'p2'" in second.explain()
    assert '"p1"' in str(first.path) and '"p2"' in str(second.path)


def test_served_sessions_alternating_one_shape_get_their_own_answers():
    db = Database(replace(DEFAULT_CONFIG, serve_workers=2))
    db.create_table("t", [("id", "bigint"), ("doc", "xml")])
    for i in range(9):
        db.insert("t", (i, catalog_doc(i)))
    db.create_xpath_index("ix_id", "t", "doc", f"{PRODUCT}/@id", "varchar")
    failures = []
    barrier = threading.Barrier(2)

    def client(session, keys):
        barrier.wait()
        for _ in range(40):
            for key in keys:
                rows = session.query("t", "doc",
                                     f'{PRODUCT}[@id = "p{key}"]')
                if [r.row[0] for r in rows] != [key]:
                    failures.append((key, [r.row[0] for r in rows]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-bind included
    try:
        with DatabaseServer(db) as server:
            sessions = [server.session(), server.session()]
            threads = [threading.Thread(target=client, args=(s, keys))
                       for s, keys in zip(sessions, ((1, 3, 5), (2, 4, 6)))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            for session in sessions:
                session.close()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert db.stats.get("xpath.parse_misses") == 1
    assert db.stats.get("xpath.parse_hits") == 2 * 40 * 3 - 1


@pytest.mark.parametrize("path", PATHS)
def test_variants_share_a_shape(path):
    shapes = {lift_literals(text)[:2] for text in variants(path)}
    assert len(shapes) == 1


def two_table_db() -> Database:
    """Catalog documents in two tables, only ``t`` indexed on ``@id``."""
    db = Database(DEFAULT_CONFIG.with_(record_size_limit=200))
    for table in ("t", "u"):
        db.create_table(table, [("id", "bigint"), ("doc", "xml")])
    for i in range(9):
        db.insert("t", (i, catalog_doc(i)))
        db.insert("u", (10 + i, catalog_doc(8 - i)))
    db.create_xpath_index("ix_id", "t", "doc", f"{PRODUCT}/@id", "varchar")
    return db


def observe_tables(db: Database, key: int) -> tuple:
    """One shape's answers over both tables, by XPath and by SQL/XML."""
    text = f'{PRODUCT}[@id = "p{key}"]'
    sql = SqlSession(db)
    return (
        [(table, db.plan_xpath(table, "doc", text).method,
          [(r.docid, r.match.item.node_id) for r in
           db.xpath(table, "doc", text)]) for table in ("t", "u")],
        sql.execute(f"SELECT id FROM u WHERE XMLEXISTS('{text}' "
                    f"PASSING doc)"),
        sql.execute(f"SELECT id, XMLQUERY('{text}/@id' PASSING doc) AS p "
                    f"FROM t WHERE id > 1 AND XMLEXISTS('{text}' "
                    f"PASSING doc)"))


def test_one_shape_over_two_tables_answers_as_cold():
    """The shape's one scanner serves both tables, their plans (an index
    probe on ``t``, a full scan on ``u``) and SQL/XML's per-row scans."""
    shared = two_table_db()
    seen = {key: observe_tables(shared, key) for key in (3, 0, 8, 3, 5, 99)}
    assert len(shared._queries) == 2  # the path and its ``/@id`` form
    for key, got in seen.items():
        assert observe_tables(two_table_db(), key) == got, key
    assert all(rows for _table, _method, rows in seen[3][0])
    assert seen[3][1] and seen[3][2] and not seen[99][1]


def test_one_scanner_over_two_name_tables():
    """Name-id dispatch is kept per name table: one scanner run over two
    engines' stores, which number the same names differently, answers as
    each engine's own."""
    first, second = Database(), Database()
    second.create_table("w", [("doc", "xml")])
    second.insert("w", ("<Product id='x'><Catalog/><Categories/></Product>",))
    for db in (first, second):
        db.create_table("t", [("id", "bigint"), ("doc", "xml")])
        for i in range(4):
            db.insert("t", (i, catalog_doc(i)))
    assert first.catalog.names.lookup_name("Product") != \
        second.catalog.names.lookup_name("Product")
    text = f'{PRODUCT}[@id = "p2"]'
    plan = first.plan_xpath("t", "doc", text)
    for _round in range(2):
        for db in (first, second, first):
            store = db.xml_stores[("t", "doc")]
            got = [(docid, [(item.node_id, item.local) for item in
                            plan.scan.run(store.document(docid).source(),
                                          plan.query.binds)])
                   for docid in store.docids()]
            own = [(docid, [(item.node_id, item.local) for item in
                            db.scan_document(text,
                                             store.document(docid).source())])
                   for docid in store.docids()]
            assert got == own
            assert [hits for _docid, hits in got if hits]
