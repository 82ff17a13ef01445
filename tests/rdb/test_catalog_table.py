"""Tests for the catalog and relational base tables."""

import pytest

from repro.core.stats import StatsRegistry
from repro.errors import CatalogError
from repro.rdb.buffer import BufferPool
from repro.rdb.catalog import Catalog, ColumnDef, IndexDef, TableDef
from repro.rdb.storage import Disk
from repro.rdb.table import Table
from repro.rdb.values import SqlType


def emp_def():
    return TableDef("emp", [
        ColumnDef("id", SqlType.BIGINT),
        ColumnDef("fname", SqlType.VARCHAR),
        ColumnDef("lname", SqlType.VARCHAR),
        ColumnDef("salary", SqlType.DOUBLE),
    ])


def xml_def():
    return TableDef("docs", [
        ColumnDef("id", SqlType.BIGINT),
        ColumnDef("body", SqlType.XML),
    ])


class TestCatalog:
    def test_add_and_lookup_table(self):
        cat = Catalog()
        cat.add_table(emp_def())
        assert cat.table("emp").name == "emp"
        with pytest.raises(CatalogError):
            cat.table("missing")

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.add_table(emp_def())
        with pytest.raises(CatalogError):
            cat.add_table(emp_def())

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableDef("t", [ColumnDef("a", SqlType.BIGINT),
                           ColumnDef("a", SqlType.VARCHAR)])

    def test_xml_columns_and_docids(self):
        cat = Catalog()
        cat.add_table(xml_def())
        assert [c.name for c in cat.table("docs").xml_columns] == ["body"]
        assert cat.next_docid("docs") == 1
        assert cat.next_docid("docs") == 2

    def test_docid_requires_xml_column(self):
        cat = Catalog()
        cat.add_table(emp_def())
        with pytest.raises(CatalogError):
            cat.next_docid("emp")

    def test_indexes(self):
        cat = Catalog()
        cat.add_table(xml_def())
        cat.add_index(IndexDef("ix1", "docs", "xpath",
                               {"path": "//Discount", "type": "double",
                                "column": "body"}))
        assert cat.index("ix1").spec["path"] == "//Discount"
        assert len(cat.indexes_on("docs", kind="xpath")) == 1
        assert cat.indexes_on("docs", kind="column") == []
        with pytest.raises(CatalogError):
            cat.index("ix2")

    def test_index_requires_table(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.add_index(IndexDef("ix", "nope", "column", {"column": "a"}))

    def test_schema_registration(self):
        cat = Catalog()
        cat.register_schema("order.xsd", b"\x01compiled")
        assert cat.schema("order.xsd") == b"\x01compiled"
        with pytest.raises(CatalogError):
            cat.register_schema("order.xsd", b"again")
        with pytest.raises(CatalogError):
            cat.schema("other.xsd")


class TestTable:
    @pytest.fixture
    def table(self):
        pool = BufferPool(Disk(page_size=1024, stats=StatsRegistry()), capacity=32)
        return Table(emp_def(), pool)

    def test_insert_fetch(self, table):
        rid = table.insert((1, "John", "Doe", 50000.0))
        assert table.fetch(rid) == (1, "John", "Doe", 50000.0)

    def test_scan(self, table):
        for i in range(20):
            table.insert((i, f"F{i}", f"L{i}", float(i)))
        rows = list(table.scan())
        assert len(rows) == 20
        assert rows[0][0] == 0

    def test_scan_with_predicate(self, table):
        for i in range(10):
            table.insert((i, "f", "l", float(i)))
        rows = list(table.scan(lambda r: r[3] > 7.0))
        assert [r[0] for r in rows] == [8, 9]

    def test_update_and_delete(self, table):
        rid = table.insert((1, "Jane", "Doe", 2.0))
        old = table.delete(rid)
        assert old[1] == "Jane"
        assert table.row_count == 0

    def test_xml_column_stores_docid(self):
        pool = BufferPool(Disk(page_size=1024, stats=StatsRegistry()), capacity=32)
        table = Table(xml_def(), pool)
        rid = table.insert((1, 42))  # 42 is the DocID
        assert table.fetch(rid) == (1, 42)
