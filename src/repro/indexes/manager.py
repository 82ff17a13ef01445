"""XPath value index manager (§3.3).

"Initial XPath index support in System R/X uses and extends the same B+tree
infrastructure for relational indexes" — each value index is one B+tree whose
entries are ``(keyval, DocID, NodeID, RID)``.  Unlike relational indexes
"there may be zero, one or more index entries per record"; the manager plugs
into the XML store as a :class:`~repro.xmlstore.store.RecordObserver` so keys
are generated per record at insert/update/delete time.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Iterator

from repro.errors import DuplicateKeyError
from repro.rdb.btree import BTree
from repro.rdb.buffer import BufferPool
from repro.rdb.tablespace import Rid
from repro.rdb.values import key_encode
from repro.xdm.names import NameTable
from repro.xmlstore.store import XmlStore

from repro.indexes.definition import (IndexHit, XPathIndexDefinition,
                                      decode_entry_value, encode_entry_value)
from repro.indexes.keygen import generate_keys


class XPathValueIndex:
    """One XPath value index attached to an :class:`XmlStore`."""

    def __init__(self, definition: XPathIndexDefinition, pool: BufferPool,
                 names: NameTable) -> None:
        self.definition = definition
        self.names = names
        self.tree = BTree(pool, name=f"vix.{definition.name}", unique=False)
        #: The engine's registry (the pool's, as for the tree): key
        #: generation is charged where the rest of the insert is.
        self.stats = pool.stats
        self.keys_generated = 0

    # -- RecordObserver protocol --------------------------------------------

    def record_added(self, docid: int, record: bytes, rid: Rid) -> None:
        for key, item in generate_keys(self.definition, record, self.names,
                                       self.stats):
            assert item.node_id is not None
            try:
                self.tree.insert(
                    key, encode_entry_value(docid, item.node_id, rid))
            except DuplicateKeyError:  # pragma: no cover - ids are unique
                pass
            self.keys_generated += 1

    def record_removed(self, docid: int, record: bytes, rid: Rid) -> None:
        for key, item in generate_keys(self.definition, record, self.names,
                                       self.stats):
            assert item.node_id is not None
            self.tree.delete(
                key, encode_entry_value(docid, item.node_id, rid))

    # -- attach / backfill -------------------------------------------------------

    def attach(self, store: XmlStore) -> "XPathValueIndex":
        """Register for maintenance and backfill from existing records."""
        for docid in store.docids():
            for rid in store.node_index.record_rids(docid):
                self.record_added(docid, store.read_record(rid), rid)
        store.observers.append(self)
        return self

    # -- search -----------------------------------------------------------------

    def _encode_probe(self, value: object) -> bytes:
        return key_encode(self.definition.key_type, self._coerce(value))

    def _coerce(self, value: object) -> object:
        if isinstance(value, (str, bytes, int, float, Decimal)):
            return value
        return str(value)

    def lookup_eq(self, value: object) -> Iterator[IndexHit]:
        """All entries with key == value, in (DocID, NodeID) order."""
        key = self._encode_probe(value)
        for _key, payload in self.tree.scan(low=key, high=key,
                                            high_inclusive=True):
            yield decode_entry_value(payload)

    def lookup_range(self, low: object | None = None,
                     high: object | None = None,
                     low_inclusive: bool = True,
                     high_inclusive: bool = True) -> Iterator[IndexHit]:
        """Range scan by key value."""
        low_key = self._encode_probe(low) if low is not None else None
        high_key = self._encode_probe(high) if high is not None else None
        for _key, payload in self.tree.scan(low=low_key, high=high_key,
                                            low_inclusive=low_inclusive,
                                            high_inclusive=high_inclusive):
            yield decode_entry_value(payload)

    def lookup_op(self, op: str, value: object) -> Iterator[IndexHit]:
        """Entries satisfying ``key op value`` for a comparison operator."""
        if op == "=":
            return self.lookup_eq(value)
        if op == "<":
            return self.lookup_range(high=value, high_inclusive=False)
        if op == "<=":
            return self.lookup_range(high=value, high_inclusive=True)
        if op == ">":
            return self.lookup_range(low=value, low_inclusive=False)
        if op == ">=":
            return self.lookup_range(low=value, low_inclusive=True)
        raise ValueError(f"operator {op!r} is not index-sargable")

    # -- introspection ---------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return self.tree.entry_count

    def size_stats(self) -> dict[str, int]:
        return {
            "entries": self.tree.entry_count,
            "pages": self.tree.page_count,
            "height": self.tree.height(),
        }
