"""Hostile SQL/XML statements: every rejection is a typed error.

The SQL half of the hostile-input corpus (the XML half is
``test_hostile.py``).  Each bad statement must raise an error from
:mod:`repro.errors` — never a bare ``KeyError`` or ``OverflowError``, and
never silently produce ill-formed XML or a corrupted value — and the
statement after it must succeed against an intact table.
"""

import pytest

from repro.core.engine import Database
from repro.errors import (CatalogError, QueryError, ReproError,
                          SqlSyntaxError, TypeError_, XmlParseError)
from repro.query.sqlxml import SqlSession

BIGINT_MAX = 2**63 - 1

BAD_STATEMENTS = {
    "XMLQUERY passing an unknown column":
        ("SELECT XMLQUERY('/a/b' PASSING nocol) FROM t", SqlSyntaxError),
    "XMLEXISTS passing an unknown column":
        ("SELECT id FROM t WHERE XMLEXISTS('/a' PASSING nocol) OR id = 1",
         SqlSyntaxError),
    "element name with markup":
        ('SELECT XMLELEMENT(NAME "a><x", id) FROM t', QueryError),
    "empty element name":
        ('SELECT XMLELEMENT(NAME "", id) FROM t', QueryError),
    "element name starting with a digit":
        ('SELECT XMLELEMENT(NAME "1a", id) FROM t', QueryError),
    "element name with two colons":
        ('SELECT XMLELEMENT(NAME "a:b:c", id) FROM t', QueryError),
    "attribute name with a space":
        ('SELECT XMLELEMENT(NAME "a", XMLATTRIBUTES(id AS "b c")) FROM t',
         QueryError),
    "forest item name with a quote":
        ("SELECT XMLFOREST(id AS \"x'y\") FROM t", QueryError),
    "BIGINT literal beyond 64 bits":
        ("INSERT INTO t VALUES (99999999999999999999999999, '<a/>')",
         TypeError_),
    "BIGINT literal one past the maximum":
        (f"INSERT INTO t VALUES ({BIGINT_MAX + 1}, '<a/>')", TypeError_),
    "wrong number of values":
        ("INSERT INTO t VALUES (5)", QueryError),
    "unknown table":
        ("SELECT * FROM nope", CatalogError),
    "unknown column in WHERE":
        ("SELECT id FROM t WHERE nocol = 1", SqlSyntaxError),
    "unterminated string":
        ("SELECT 'abc FROM t", SqlSyntaxError),
    "statement cut short":
        ("SELECT id FROM t WHERE", SqlSyntaxError),
    "malformed XPath":
        ("SELECT XMLQUERY('/a[' PASSING doc) FROM t", QueryError),
    # Every statement ends where its text does: a trailing word is not
    # dropped (a misspelt WHERE used to delete every row).
    "DELETE with a misspelt WHERE":
        ("DELETE FROM t WEHRE id = 1", SqlSyntaxError),
    "INSERT with a trailing word":
        ("INSERT INTO t VALUES (2, '<a/>') junk", SqlSyntaxError),
    "CREATE INDEX with a trailing word":
        ("CREATE INDEX ix ON t(doc) GENERATE KEY USING XMLPATTERN '/a/b' "
         "AS SQL DOUBLE junk", SqlSyntaxError),
    # Nesting past MAX_NESTING is refused when parsed, not by the stack.
    "3 000 NOTs":
        ("SELECT id FROM t WHERE " + "NOT " * 3000 + "id = 1",
         SqlSyntaxError),
    "3 000-term OR chain":
        ("SELECT id FROM t WHERE " + " OR ".join(["id = 1"] * 3000),
         SqlSyntaxError),
    "3 000 nested XMLELEMENTs":
        ("SELECT " + 'XMLELEMENT(NAME "a", ' * 3000 + "id" + ")" * 3000
         + " FROM t", SqlSyntaxError),
}


@pytest.fixture
def session():
    session = SqlSession(Database())
    session.execute("CREATE TABLE t (id BIGINT, doc XML)")
    session.execute("INSERT INTO t VALUES (1, '<a><b>x</b></a>')")
    return session


def _rows(session):
    return session.execute("SELECT id, XMLQUERY('/a/b' PASSING doc) FROM t")


@pytest.mark.parametrize("case", sorted(BAD_STATEMENTS))
def test_bad_statement_is_rejected_and_the_next_one_runs(session, case):
    statement, error = BAD_STATEMENTS[case]
    before = _rows(session)
    wal_records = session.db.stats.get("wal.records")
    with pytest.raises(error) as caught:
        session.execute(statement)
    assert isinstance(caught.value, ReproError)
    # Nothing was logged or stored for the rejected statement ...
    assert session.db.stats.get("wal.records") == wal_records
    assert _rows(session) == before
    # ... and the session still serves the next statement.
    session.execute("INSERT INTO t VALUES (2, '<a><b>y</b></a>')")
    assert [row["id"] for row in _rows(session)] == [1, 2]


def test_unknown_xmlquery_column_fails_like_unknown_where_column(session):
    errors = []
    for statement in ("SELECT XMLQUERY('/a/b' PASSING nocol) FROM t",
                      "SELECT id FROM t WHERE nocol = 1"):
        with pytest.raises(ReproError) as caught:
            session.execute(statement)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


def test_bigint_limits_round_trip_exactly(session):
    session.execute(f"INSERT INTO t VALUES ({BIGINT_MAX}, '<a/>')")
    # The SQL tokenizer has no negative literals: the engine API it is.
    session.db.insert("t", (-BIGINT_MAX - 1, "<a/>"))
    ids = [row["id"] for row in session.execute("SELECT id FROM t")]
    assert ids == [1, BIGINT_MAX, -BIGINT_MAX - 1]


def test_out_of_range_bigint_is_refused_before_the_log(session):
    db = session.db
    wal_bytes = db.log.bytes_written
    with pytest.raises(TypeError_):
        db.insert("t", (2**70, "<a/>"))
    assert db.log.bytes_written == wal_bytes
    assert [row[0] for row in db.tables["t"].scan()] == [1]


def test_malformed_document_is_refused_before_the_log(session):
    """An auto-commit INSERT whose XML does not parse logs nothing and
    consumes no DocID, so replay rebuilds the same store."""
    db = session.db
    wal_records = db.stats.get("wal.records")
    with pytest.raises(XmlParseError):
        session.execute("INSERT INTO t VALUES (2, '<a><b>y</a>')")
    assert db.stats.get("wal.records") == wal_records
    session.execute("INSERT INTO t VALUES (3, '<a><b>z</b></a>')")
    live = {row[0]: row[1] for row in db.tables["t"].scan()}
    assert live == {1: 1, 3: 2}

    replayed = Database.replay(db.log)
    assert {row[0]: row[1] for row in replayed.tables["t"].scan()} == live
    for docid in live.values():
        assert replayed.get_document("t", "doc", docid) == \
            db.get_document("t", "doc", docid)
    assert replayed.xpath("t", "doc", "/a/b") == db.xpath("t", "doc", "/a/b")


def test_qualified_names_are_still_accepted(session):
    rows = session.execute(
        'SELECT XMLELEMENT(NAME "p:item", XMLATTRIBUTES(id AS "n-1"), '
        'XMLFOREST(id AS "_v.2")) FROM t')
    assert rows == [{"col1": '<p:item n-1="1"><_v.2>1</_v.2></p:item>'}]
