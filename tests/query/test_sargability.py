"""Differential test: an index probe never changes a query's answer.

A value index may over-fetch (the candidates are re-evaluated) but must
never miss a match or fail where a scan answers.  For every key type, both
literal kinds and the five sargable operators, the planned answer (and the
answer of every forced access method) equals the full scan's, over
documents whose ``b`` values disagree between XPath's comparisons and the
key types' conversions.
"""

import pytest

from repro.core.engine import Database
from repro.errors import TypeError_
from repro.query.plan import AccessMethod
from repro.query.planner import sargable
from repro.rdb.values import SqlType

VALUES = ("1", "x", "1.0", "20", "9", " 7", "-5", "0.10000000000000001",
          "0.1", "1e3", "2020-01-01", "")
KEY_TYPES = ("double", "decfloat", "varchar", "string", "date", "bigint")
#: Key types XPath cannot probe soundly (a BIGINT key skips ``7.5``; XPath
#: 1.0 has no dates): creating an index on them is refused.
REFUSED = TypeError_("index key type")
OPS = ("=", "<", "<=", ">", ">=")
LITERALS = ("7", "3", "10", "1", "0.1", "9", '"x"', '"1"', '" 7"',
            '"2020-01-01"', '"20"')
#: Predicates that combine probes (groups ORed and ANDed).
COMBINED = ('b = "x" or b = 9', "b = 9 or b < 0", 'b > 3 and b = "20"',
            "b >= 1 and b <= 9", '"x" = b', "10 > b")


def refused(key_type: str) -> bool:
    """Whether creating a ``key_type`` index raises the typed error."""
    if key_type not in ("date", "bigint"):
        return False
    with pytest.raises(type(REFUSED), match=str(REFUSED)):
        make_db(key_type)
    return True


def make_db(key_type: str) -> Database:
    db = Database()
    db.create_table("t", [("doc", "xml")])
    for value in VALUES:
        db.insert("t", (f"<a><b>{value}</b></a>",))
    db.create_xpath_index("ix", "t", "doc", "/a/b", key_type)
    return db


def answer(db: Database, text: str, method=None) -> list[int]:
    return [row.docid for row in db.xpath("t", "doc", text, method=method)]


def predicates():
    for op in OPS:
        for literal in LITERALS:
            yield f"b {op} {literal}"
    yield from COMBINED


@pytest.mark.parametrize("key_type", KEY_TYPES)
def test_index_plans_answer_as_the_scan_does(key_type):
    if refused(key_type):
        return
    db = make_db(key_type)
    checked = 0
    for predicate in predicates():
        text = f"/a[{predicate}]"
        expected = answer(db, text, AccessMethod.FULL_SCAN)
        for method in (None, AccessMethod.DOCID_LIST,
                       AccessMethod.NODEID_LIST):
            assert answer(db, text, method) == expected, \
                (key_type, text, method, db.plan_xpath("t", "doc", text,
                                                       method=method)
                 .explain())
            checked += 1
    assert checked == 3 * (len(OPS) * len(LITERALS) + len(COMBINED))


@pytest.mark.parametrize("key_type, text, expected", [
    ("varchar", "/a[b = 7]", [6]),
    ("varchar", "/a[b > 3]", [4, 5, 6, 10]),
    ("varchar", "/a[b < 10]", [1, 3, 5, 6, 7, 8, 9]),
    ("double", '/a[b = "x"]', [2]),
    ("double", '/a[b = "x" or b = 9]', [2, 5]),
    ("date", "/a[b = 3]", REFUSED),
    ("date", '/a[b = "x"]', REFUSED),
    ("bigint", '/a[b = "x"]', REFUSED),
    ("decfloat", "/a[b = 0.1]", [8, 9]),
])
def test_answers_that_a_probe_got_wrong(key_type, text, expected):
    """Probes that missed matches or raised where the scan answers."""
    if expected is REFUSED:
        assert refused(key_type)
        return
    db = make_db(key_type)
    assert answer(db, text, AccessMethod.FULL_SCAN) == expected
    assert answer(db, text) == expected


@pytest.mark.parametrize("key_type, sql_type", [
    ("varchar", SqlType.VARCHAR), ("double", SqlType.DOUBLE)])
def test_the_benchmark_shapes_stay_probes(key_type, sql_type):
    """A string under ``=`` on a VARCHAR key and a number under any
    operator on a DOUBLE key are the probes that keep their index."""
    db = make_db(key_type)
    texts = ['/a[b = "20"]'] if key_type == "varchar" else \
        [f"/a[b {op} 9]" for op in OPS]
    for text in texts:
        plan = db.plan_xpath("t", "doc", text)
        assert plan.method is AccessMethod.DOCID_LIST, text
    assert sargable("=", "x", sql_type) is (sql_type is SqlType.VARCHAR)
    assert sargable("<", 1.0, sql_type) is (sql_type is SqlType.DOUBLE)


def test_the_rule_reads_operator_kind_and_key_type_only():
    for sql_type in SqlType:
        for op in OPS:
            assert sargable(op, "a", sql_type) == sargable(op, "b", sql_type)
            assert sargable(op, 1.0, sql_type) == sargable(op, 2.5, sql_type)
    assert not sargable("<", "x", SqlType.VARCHAR)
    assert not sargable("=", 1.0, SqlType.DECFLOAT)
