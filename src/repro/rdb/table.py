"""Relational base tables: typed rows on a table space.

Base tables are the anchor of the paper's storage scheme (Fig. 2): a table
with XML columns stores, per row, its relational values plus the implicit
``DocID``; the XML data itself lives in internal XML tables managed by
:mod:`repro.xmlstore`.  At this layer an XML column therefore holds the
document's DocID (a BIGINT) — the engine facade translates.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.rdb.buffer import BufferPool
from repro.rdb.catalog import TableDef
from repro.rdb.tablespace import Rid, TableSpace
from repro.rdb.values import SqlType, decode_row, encode_row


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

    # -- DML ----------------------------------------------------------------------

    def insert(self, row: tuple) -> Rid:
        """Insert ``row`` (values in column order); returns its RID."""
        return self.space.insert(encode_row(self._storage_types, row))

    def fetch(self, rid: Rid) -> tuple:
        """Row stored at ``rid``."""
        return decode_row(self._storage_types, self.space.read(rid))

    def delete(self, rid: Rid) -> tuple:
        """Delete the row at ``rid``; returns the old row."""
        old_row = self.fetch(rid)
        self.space.delete(rid)
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

    @property
    def row_count(self) -> int:
        return self.space.record_count
