"""Relational base tables: typed rows on a table space, with column indexes.

Base tables are the anchor of the paper's storage scheme (Fig. 2): a table
with XML columns stores, per row, its relational values plus the implicit
``DocID``; the XML data itself lives in internal XML tables managed by
:mod:`repro.xmlstore`.  At this layer an XML column therefore holds the
document's DocID (a BIGINT) — the engine facade translates.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import CatalogError, RecordNotFoundError
from repro.rdb.btree import BTree
from repro.rdb.buffer import BufferPool
from repro.rdb.catalog import TableDef
from repro.rdb.tablespace import Rid, TableSpace
from repro.rdb.values import SqlType, decode_row, encode_row, key_encode


class Table:
    """Storage-facing view of one base table."""

    def __init__(self, definition: TableDef, pool: BufferPool) -> None:
        self.definition = definition
        self.pool = pool
        self.space = TableSpace(pool, name=f"ts.{definition.name}")
        # XML columns store the DocID at this layer.
        self._storage_types = [
            SqlType.BIGINT if c.sql_type is SqlType.XML else c.sql_type
            for c in definition.columns
        ]
        self._column_indexes: dict[str, BTree] = {}
        self._rids: dict[Rid, None] = {}

    # -- indexes --------------------------------------------------------------

    def create_column_index(self, column: str, unique: bool = False) -> BTree:
        """Create (and backfill) a B+tree index on ``column``."""
        if column in self._column_indexes:
            raise CatalogError(f"column {column!r} is already indexed")
        col_no = self.definition.column_index(column)
        sql_type = self._storage_types[col_no]
        tree = BTree(self.pool, name=f"ix.{self.definition.name}.{column}",
                     unique=unique)
        for rid, row in self.scan_rids():
            tree.insert(key_encode(sql_type, row[col_no]), rid.to_bytes())
        self._column_indexes[column] = tree
        return tree

    def column_index(self, column: str) -> BTree | None:
        return self._column_indexes.get(column)

    # -- DML ----------------------------------------------------------------------

    def insert(self, row: tuple) -> Rid:
        """Insert ``row`` (values in column order); returns its RID."""
        encoded = encode_row(self._storage_types, row)
        rid = self.space.insert(encoded)
        self._rids[rid] = None
        for column, tree in self._column_indexes.items():
            col_no = self.definition.column_index(column)
            tree.insert(key_encode(self._storage_types[col_no], row[col_no]),
                        rid.to_bytes())
        return rid

    def fetch(self, rid: Rid) -> tuple:
        """Row stored at ``rid``."""
        return decode_row(self._storage_types, self.space.read(rid))

    def update(self, rid: Rid, row: tuple) -> Rid:
        """Replace the row at ``rid``; returns the (possibly moved) RID."""
        old_row = self.fetch(rid)
        new_rid = self.space.update(rid, encode_row(self._storage_types, row))
        if new_rid != rid:
            del self._rids[rid]
            self._rids[new_rid] = None
        for column, tree in self._column_indexes.items():
            col_no = self.definition.column_index(column)
            sql_type = self._storage_types[col_no]
            tree.delete(key_encode(sql_type, old_row[col_no]), rid.to_bytes())
            tree.insert(key_encode(sql_type, row[col_no]), new_rid.to_bytes())
        return new_rid

    def delete(self, rid: Rid) -> tuple:
        """Delete the row at ``rid``; returns the old row."""
        old_row = self.fetch(rid)
        self.space.delete(rid)
        self._rids.pop(rid, None)
        for column, tree in self._column_indexes.items():
            col_no = self.definition.column_index(column)
            tree.delete(key_encode(self._storage_types[col_no], old_row[col_no]),
                        rid.to_bytes())
        return old_row

    # -- queries --------------------------------------------------------------------

    def scan_rids(self) -> Iterator[tuple[Rid, tuple]]:
        """Full scan yielding ``(rid, row)``."""
        for rid, payload in self.space.scan():
            yield rid, decode_row(self._storage_types, payload)

    def scan(self, predicate: Callable[[tuple], bool] | None = None
             ) -> Iterator[tuple]:
        """Full scan of rows, optionally filtered."""
        for _, row in self.scan_rids():
            if predicate is None or predicate(row):
                yield row

    def lookup(self, column: str, value: object) -> Iterator[tuple[Rid, tuple]]:
        """Equality lookup via the column index (falls back to a scan)."""
        col_no = self.definition.column_index(column)
        sql_type = self._storage_types[col_no]
        tree = self._column_indexes.get(column)
        if tree is None:
            for rid, row in self.scan_rids():
                if row[col_no] == value:
                    yield rid, row
            return
        for rid_bytes in tree.search(key_encode(sql_type, value)):
            rid = Rid.from_bytes(rid_bytes)
            try:
                yield rid, self.fetch(rid)
            except RecordNotFoundError:  # pragma: no cover - index/table skew
                continue

    @property
    def row_count(self) -> int:
        return self.space.record_count
