"""Catalog and directory: definitions of tables, columns, indexes, schemas.

The paper reuses the relational catalog with minor enhancement (§2): XML adds
registered schemas (compiled to a binary format at registration time, Fig. 4)
and the database-wide name table (§3.1).  The catalog here is a plain object
registry; recovery rebuilds it by replaying the logged DDL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError
from repro.rdb.values import SqlType
from repro.xdm.names import NameTable


@dataclass(frozen=True)
class ColumnDef:
    """One column of a base table."""

    name: str
    sql_type: SqlType
    #: For XML columns: name of the registered schema to validate against.
    schema_name: str | None = None


@dataclass
class TableDef:
    """A base table definition.

    A table with at least one XML column carries an implicit ``DocID`` column
    shared by all its XML columns (§3.1); the storage layer materializes it,
    the SQL surface hides it.
    """

    name: str
    columns: list[ColumnDef]

    def __post_init__(self) -> None:
        seen = set()
        for col in self.columns:
            if col.name in seen:
                raise CatalogError(f"duplicate column {col.name!r} in {self.name!r}")
            seen.add(col.name)

    @property
    def xml_columns(self) -> list[ColumnDef]:
        return [c for c in self.columns if c.sql_type is SqlType.XML]

    @property
    def has_xml(self) -> bool:
        return any(c.sql_type is SqlType.XML for c in self.columns)

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]


@dataclass
class IndexDef:
    """A generic index definition.

    ``kind`` distinguishes relational column indexes (``"column"``) from
    XPath value indexes (``"xpath"``); ``spec`` carries kind-specific fields
    (column name, or XPath pattern + key type).
    """

    name: str
    table: str
    kind: str
    spec: dict[str, str] = field(default_factory=dict)
    unique: bool = False


class Catalog:
    """In-memory catalog of tables, indexes, schemas and XML names."""

    def __init__(self) -> None:
        self.names = NameTable()
        self._tables: dict[str, TableDef] = {}
        self._indexes: dict[str, IndexDef] = {}
        self._schemas: dict[str, bytes] = {}
        self._next_docid: dict[str, int] = {}

    # -- tables ---------------------------------------------------------------

    def add_table(self, table: TableDef) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        if table.has_xml:
            self._next_docid[table.name] = 1

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def tables(self) -> list[TableDef]:
        return list(self._tables.values())

    def peek_docid(self, table: str) -> int:
        """The DocID :meth:`next_docid` will allocate next for ``table``."""
        if table not in self._next_docid:
            raise CatalogError(f"table {table!r} has no XML columns")
        return self._next_docid[table]

    def next_docid(self, table: str) -> int:
        """Allocate the next DocID for ``table`` (monotonic, never reused)."""
        docid = self.peek_docid(table)
        self._next_docid[table] = docid + 1
        return docid

    # -- indexes -----------------------------------------------------------------

    def add_index(self, index: IndexDef) -> None:
        if index.name in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        self.table(index.table)  # must exist
        self._indexes[index.name] = index

    def index(self, name: str) -> IndexDef:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def indexes_on(self, table: str, kind: str | None = None) -> list[IndexDef]:
        return [
            ix for ix in self._indexes.values()
            if ix.table == table and (kind is None or ix.kind == kind)
        ]

    # -- registered schemas --------------------------------------------------------

    def register_schema(self, name: str, compiled: bytes) -> None:
        """Store a compiled (binary) XML schema under ``name`` (Fig. 4)."""
        if name in self._schemas:
            raise CatalogError(f"schema {name!r} already registered")
        self._schemas[name] = compiled

    def schema(self, name: str) -> bytes:
        try:
            return self._schemas[name]
        except KeyError:
            raise CatalogError(f"schema {name!r} is not registered") from None
