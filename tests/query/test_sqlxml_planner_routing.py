"""Tests that a lone XMLEXISTS WHERE clause uses the access-path machinery."""

from collections import Counter

import pytest

from repro.core.engine import Database
from repro.query.sqlxml import SqlSession


@pytest.fixture
def session():
    s = SqlSession(Database())
    s.execute("CREATE TABLE c (n BIGINT, doc XML)")
    for i, price in enumerate([50, 150, 250, 90, 500]):
        s.execute(f"INSERT INTO c VALUES ({i}, "
                  f"'<item><price>{price}</price></item>')")
    s.execute("CREATE INDEX ixp ON c(doc) GENERATE KEY USING "
              "XMLPATTERN '/item/price' AS SQL DOUBLE")
    return s


class TestXmlExistsRouting:
    def test_results_correct(self, session):
        rows = session.execute(
            "SELECT n FROM c WHERE "
            "XMLEXISTS('/item[price > 100]' PASSING doc)")
        assert sorted(r["n"] for r in rows) == [1, 2, 4]

    def test_uses_index_not_per_row_scan(self, session):
        stats = session.db.stats
        with stats.charge(delta := Counter()):
            session.execute(
                "SELECT n FROM c WHERE "
                "XMLEXISTS('/item[price > 400]' PASSING doc)")
        # The planner's DocID-list path evaluates only matching documents.
        assert delta.get("exec.index_probes", 0) >= 1
        assert delta.get("exec.docs_evaluated", 0) <= 1

    def test_compound_where_falls_back(self, session):
        rows = session.execute(
            "SELECT n FROM c WHERE n < 3 AND "
            "XMLEXISTS('/item[price > 100]' PASSING doc)")
        assert sorted(r["n"] for r in rows) == [1, 2]

    def test_null_xml_rows_excluded(self, session):
        session.execute("INSERT INTO c VALUES (9, NULL)")
        rows = session.execute(
            "SELECT n FROM c WHERE XMLEXISTS('/item' PASSING doc)")
        assert 9 not in {r["n"] for r in rows}
