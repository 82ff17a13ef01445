"""A query result serializes the same way at both entry points.

``Database.serialize_result`` (one XPath result row) and SQL/XML's
``XMLQUERY`` (the result sequence, concatenated) both read the stored
document through ``StoredDocument.serialize``: a document node gives the
whole document, an element its subtree, an attribute its value, and text,
comments and processing instructions their XML form.
"""

import pytest

from repro.core.engine import Database
from repro.query.sqlxml import SqlSession

DOC = ('<r><e k="v &amp; w">a &amp; b<i>x</i></e><!--c--><?t d?></r>')

CASES = {
    "/": DOC,
    "/r/e": '<e k="v &amp; w">a &amp; b<i>x</i></e>',
    "/r/e/@k": "v & w",
    "/r/e/text()": "a &amp; b",
    "//comment()": "<!--c-->",
    "//processing-instruction()": "<?t d?>",
}


@pytest.fixture(scope="module")
def session():
    session = SqlSession(Database())
    session.execute("CREATE TABLE t (id BIGINT, doc XML)")
    session.execute(f"INSERT INTO t VALUES (1, '{DOC}')")
    return session


@pytest.mark.parametrize("path", list(CASES))
def test_serialize_result(session, path):
    results = session.db.xpath("t", "doc", path)
    assert len(results) == 1
    assert session.db.serialize_result("t", "doc", results[0]) == CASES[path]


@pytest.mark.parametrize("path", list(CASES))
def test_xmlquery(session, path):
    rows = session.execute(
        f"SELECT XMLQUERY('{path}' PASSING doc) AS out FROM t WHERE id = 1")
    assert rows == [{"out": CASES[path]}]


def test_document_node_is_the_stored_document(session):
    assert session.db.get_document("t", "doc", 1) == DOC
