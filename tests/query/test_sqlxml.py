"""Tests for the SQL/XML subset."""

import pytest

from repro.core.engine import Database
from repro.errors import SqlSyntaxError
from repro.query.sqlxml import MAX_NESTING, SqlSession, parse_statement


@pytest.fixture
def session():
    return SqlSession(Database())


@pytest.fixture
def emp(session):
    session.execute(
        "CREATE TABLE emp (id BIGINT, fname VARCHAR(20), lname VARCHAR(20), "
        "hire DATE, dept VARCHAR(10), salary DOUBLE)")
    rows = [
        (1234, "John", "Doe", "1998-02-01", "Accting", 50000.0),
        (1235, "Jane", "Roe", "2001-05-05", "Eng", 70000.0),
        (1236, "Jim", "Poe", "1999-09-09", "Eng", 60000.0),
    ]
    for row in rows:
        values = ", ".join(
            f"'{v}'" if isinstance(v, str) else str(v) for v in row)
        session.execute(f"INSERT INTO emp VALUES ({values})")
    return session


@pytest.fixture
def catalog(session):
    session.execute("CREATE TABLE catalog (id BIGINT, doc XML)")
    docs = [
        (1, '<Catalog><Categories><Product id="a">'
            "<RegPrice>150</RegPrice><Discount>0.2</Discount>"
            "</Product></Categories></Catalog>"),
        (2, '<Catalog><Categories><Product id="b">'
            "<RegPrice>80</RegPrice><Discount>0.05</Discount>"
            "</Product></Categories></Catalog>"),
    ]
    for rid, doc in docs:
        session.execute(f"INSERT INTO catalog VALUES ({rid}, '{doc}')")
    return session


class TestDdlDml:
    def test_create_insert_select(self, emp):
        rows = emp.execute("SELECT id, fname FROM emp WHERE salary > 55000")
        assert sorted(r["id"] for r in rows) == [1235, 1236]

    def test_select_star(self, emp):
        rows = emp.execute("SELECT * FROM emp WHERE id = 1234")
        assert rows[0]["lname"] == "Doe"
        # A literal '*' named "*" is a value, not the star.
        rows = emp.execute("SELECT '*' AS \"*\" FROM emp WHERE id = 1234")
        assert rows == [{"*": "*"}]

    def test_where_and_or_not(self, emp):
        rows = emp.execute(
            "SELECT id FROM emp WHERE dept = 'Eng' AND salary >= 70000")
        assert [r["id"] for r in rows] == [1235]
        rows = emp.execute(
            "SELECT id FROM emp WHERE dept = 'Accting' OR salary = 60000")
        assert sorted(r["id"] for r in rows) == [1234, 1236]
        rows = emp.execute("SELECT id FROM emp WHERE NOT dept = 'Eng'")
        assert [r["id"] for r in rows] == [1234]

    def test_delete(self, emp):
        result = emp.execute("DELETE FROM emp WHERE dept = 'Eng'")
        assert result == [{"deleted": 2}]
        assert len(emp.execute("SELECT id FROM emp")) == 1

    def test_string_escaping(self, session):
        session.execute("CREATE TABLE t (v VARCHAR(30))")
        session.execute("INSERT INTO t VALUES ('it''s quoted')")
        rows = session.execute("SELECT v FROM t")
        assert rows[0]["v"] == "it's quoted"

    def test_concat(self, emp):
        rows = emp.execute(
            "SELECT fname || ' ' || lname AS name FROM emp WHERE id = 1234")
        assert rows[0]["name"] == "John Doe"

    def test_syntax_errors(self, session):
        for bad in ["SELEC x FROM t", "CREATE TABLE", "INSERT t VALUES (1)",
                    "SELECT a FROM t WHERE", "SELECT 'unterminated FROM t",
                    "SELECT key FROM t"]:  # a keyword is no column name
            with pytest.raises(SqlSyntaxError):
                session.execute(bad)

    def test_nesting_up_to_the_bound_runs(self, emp):
        """Parentheses add no nesting; NOTs and constructors do, and a
        statement at MAX_NESTING still evaluates."""
        where = "(" * 3000 + "id = 1234" + ")" * 3000
        assert emp.execute(f"SELECT id FROM emp WHERE {where}") == \
            [{"id": 1234}]
        nots = MAX_NESTING - 1  # and the comparison: MAX_NESTING levels
        rows = emp.execute(f"SELECT id FROM emp WHERE {'NOT ' * nots}"
                           "id = 1234")
        assert [row["id"] for row in rows] == \
            ([1234] if nots % 2 == 0 else [1235, 1236])
        with pytest.raises(SqlSyntaxError):
            emp.execute(f"SELECT id FROM emp WHERE {'NOT ' * (nots + 1)}"
                        "id = 1234")
        elements = 'XMLELEMENT(NAME "e", ' * MAX_NESTING
        rows = emp.execute(f"SELECT {elements}id{')' * MAX_NESTING} AS x "
                           "FROM emp WHERE id = 1234")
        assert rows == [{"x": "<e>" * MAX_NESTING + "1234"
                         + "</e>" * MAX_NESTING}]


class TestXmlPredicates:
    def test_xmlexists(self, catalog):
        rows = catalog.execute(
            "SELECT id FROM catalog WHERE XMLEXISTS("
            "'/Catalog/Categories/Product[RegPrice > 100]' PASSING doc)")
        assert [r["id"] for r in rows] == [1]

    def test_xmlquery(self, catalog):
        rows = catalog.execute(
            "SELECT id, XMLQUERY('//Product' PASSING doc) AS p FROM catalog "
            "WHERE id = 2")
        assert rows[0]["p"].startswith("<Product id=\"b\">")

    def test_xmlquery_scalar_values(self, catalog):
        rows = catalog.execute(
            "SELECT XMLQUERY('//Product/@id' PASSING doc) AS pid "
            "FROM catalog WHERE id = 1")
        assert rows[0]["pid"] == "a"

    def test_create_xml_index_and_query(self, catalog):
        catalog.execute(
            "CREATE INDEX ix_price ON catalog(doc) GENERATE KEY USING "
            "XMLPATTERN '/Catalog/Categories/Product/RegPrice' AS SQL DOUBLE")
        plan = catalog.db.plan_xpath(
            "catalog", "doc", "/Catalog/Categories/Product[RegPrice > 100]")
        from repro.query.plan import AccessMethod
        assert plan.method is not AccessMethod.FULL_SCAN
        rows = catalog.execute(
            "SELECT id FROM catalog WHERE XMLEXISTS("
            "'/Catalog/Categories/Product[RegPrice > 100]' PASSING doc)")
        assert [r["id"] for r in rows] == [1]


class TestConstructors:
    def test_paper_figure5_statement(self, emp):
        rows = emp.execute(
            'SELECT XMLELEMENT(NAME "Emp", '
            'XMLATTRIBUTES(id AS "id", fname || \' \' || lname AS "name"), '
            'XMLFOREST(hire AS HIRE, dept AS department)) AS x '
            "FROM emp WHERE id = 1234")
        assert rows[0]["x"] == (
            '<Emp id="1234" name="John Doe"><HIRE>1998-02-01</HIRE>'
            "<department>Accting</department></Emp>")

    def test_nested_elements(self, emp):
        rows = emp.execute(
            'SELECT XMLELEMENT(NAME "e", XMLELEMENT(NAME "n", fname)) AS x '
            "FROM emp WHERE id = 1235")
        assert rows[0]["x"] == "<e><n>Jane</n></e>"

    def test_xmlconcat(self, emp):
        rows = emp.execute(
            'SELECT XMLCONCAT(XMLELEMENT(NAME "a", id), '
            'XMLELEMENT(NAME "b", dept)) AS x FROM emp WHERE id = 1236')
        assert rows[0]["x"] == "<a>1236</a><b>Eng</b>"

    def test_xmlagg_order_by(self, emp):
        rows = emp.execute(
            'SELECT XMLAGG(XMLELEMENT(NAME "e", fname) ORDER BY salary DESC) '
            "AS roster FROM emp")
        assert rows[0]["roster"] == "<e>Jane</e><e>Jim</e><e>John</e>"

    def test_xmlagg_group_by(self, emp):
        rows = emp.execute(
            'SELECT dept, XMLAGG(XMLELEMENT(NAME "e", id) ORDER BY id) AS x '
            "FROM emp GROUP BY dept")
        by_dept = {r["dept"]: r["x"] for r in rows}
        assert by_dept["Eng"] == "<e>1235</e><e>1236</e>"
        assert by_dept["Accting"] == "<e>1234</e>"

    def test_keywords_as_names(self, emp):
        rows = emp.execute("SELECT XMLELEMENT(NAME from, XMLATTRIBUTES("
                           "id AS select), XMLFOREST(dept AS where)) AS x "
                           "FROM emp WHERE id = 1234")
        assert rows == [{"x": '<from select="1234"><where>Accting</where>'
                              "</from>"}]

    def test_template_compiled_once(self, emp):
        statement = parse_statement(
            'SELECT XMLELEMENT(NAME "e", fname) AS x FROM emp')
        constructor = statement.items[0][0]
        assert constructor.template.op_count == 3  # open, slot, close


class TestEndToEndScenario:
    def test_full_lifecycle(self, session):
        session.execute("CREATE TABLE store (sku BIGINT, info XML)")
        session.execute(
            "INSERT INTO store VALUES (1, '<item><price>9</price></item>')")
        session.execute(
            "INSERT INTO store VALUES (2, '<item><price>99</price></item>')")
        session.execute(
            "CREATE INDEX ix ON store(info) GENERATE KEY USING "
            "XMLPATTERN '/item/price' AS SQL DOUBLE")
        rows = session.execute(
            "SELECT sku FROM store WHERE "
            "XMLEXISTS('/item[price > 50]' PASSING info)")
        assert [r["sku"] for r in rows] == [2]
        session.execute("DELETE FROM store WHERE sku = 2")
        rows = session.execute(
            "SELECT sku FROM store WHERE "
            "XMLEXISTS('/item[price > 50]' PASSING info)")
        assert rows == []
