"""Catalog and directory: definitions of tables, columns, indexes, schemas.

The paper reuses the relational catalog with minor enhancement (§2): XML adds
registered schemas (compiled to a binary format at registration time, Fig. 4)
and the database-wide name table (§3.1).  The catalog here is a plain object
registry with a binary persistence form so archive recovery can restore DDL
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError
from repro.rdb import codec
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
    """In-memory catalog with binary persistence."""

    def __init__(self) -> None:
        self.names = NameTable()
        self._tables: dict[str, TableDef] = {}
        self._indexes: dict[str, IndexDef] = {}
        self._schemas: dict[str, bytes] = {}
        self._next_docid: dict[str, int] = {}
        #: Bumped by every add or drop of a table or index, so anything
        #: derived from the catalog (a cached access plan) can tell it is
        #: stale.
        self.version = 0

    # -- tables ---------------------------------------------------------------

    def add_table(self, table: TableDef) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self.version += 1
        if table.has_xml:
            self._next_docid[table.name] = 1

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def tables(self) -> list[TableDef]:
        return list(self._tables.values())

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]
        self.version += 1
        self._next_docid.pop(name, None)
        for ix_name in [n for n, ix in self._indexes.items() if ix.table == name]:
            del self._indexes[ix_name]

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
        self.version += 1

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

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self._indexes[name]
        self.version += 1

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

    # -- persistence --------------------------------------------------------------

    def encode(self) -> bytes:
        out = bytearray()
        codec.write_bytes(out, self.names.encode())
        codec.write_uvarint(out, len(self._tables))
        for table in self._tables.values():
            codec.write_str(out, table.name)
            codec.write_uvarint(out, len(table.columns))
            for col in table.columns:
                codec.write_str(out, col.name)
                codec.write_str(out, col.sql_type.value)
                codec.write_str(out, col.schema_name or "")
            codec.write_uvarint(out, self._next_docid.get(table.name, 0))
        codec.write_uvarint(out, len(self._indexes))
        for index in self._indexes.values():
            codec.write_str(out, index.name)
            codec.write_str(out, index.table)
            codec.write_str(out, index.kind)
            out.append(1 if index.unique else 0)
            codec.write_uvarint(out, len(index.spec))
            for key, value in index.spec.items():
                codec.write_str(out, key)
                codec.write_str(out, value)
        codec.write_uvarint(out, len(self._schemas))
        for name, blob in self._schemas.items():
            codec.write_str(out, name)
            codec.write_bytes(out, blob)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes | memoryview) -> "Catalog":
        catalog = cls()
        pos = 0
        names_blob, pos = codec.read_bytes(data, pos)
        catalog.names = NameTable.decode(names_blob)
        n_tables, pos = codec.read_uvarint(data, pos)
        for _ in range(n_tables):
            t_name, pos = codec.read_str(data, pos)
            n_cols, pos = codec.read_uvarint(data, pos)
            cols = []
            for _ in range(n_cols):
                c_name, pos = codec.read_str(data, pos)
                c_type, pos = codec.read_str(data, pos)
                c_schema, pos = codec.read_str(data, pos)
                cols.append(ColumnDef(c_name, SqlType(c_type), c_schema or None))
            next_docid, pos = codec.read_uvarint(data, pos)
            table = TableDef(t_name, cols)
            catalog._tables[t_name] = table
            if next_docid:
                catalog._next_docid[t_name] = next_docid
        n_indexes, pos = codec.read_uvarint(data, pos)
        for _ in range(n_indexes):
            i_name, pos = codec.read_str(data, pos)
            i_table, pos = codec.read_str(data, pos)
            i_kind, pos = codec.read_str(data, pos)
            unique = bool(data[pos])
            pos += 1
            n_spec, pos = codec.read_uvarint(data, pos)
            spec = {}
            for _ in range(n_spec):
                key, pos = codec.read_str(data, pos)
                value, pos = codec.read_str(data, pos)
                spec[key] = value
            catalog._indexes[i_name] = IndexDef(i_name, i_table, i_kind, spec, unique)
        n_schemas, pos = codec.read_uvarint(data, pos)
        for _ in range(n_schemas):
            s_name, pos = codec.read_str(data, pos)
            blob, pos = codec.read_bytes(data, pos)
            catalog._schemas[s_name] = blob
        return catalog
