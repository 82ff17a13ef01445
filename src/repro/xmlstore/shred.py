"""Baseline storage: one node per row ([28], the §3.1 comparison point).

The paper's storage analysis compares tree packing against "the relational
representation of one row per node (or edge)": each XDM node becomes one
relational record ``(DocID, NodeID, kind, nameID, value)``, with a node-ID
index entry per node (``k`` entries instead of ``≈ 2k/p``).  Traversal then
needs one index lookup + record fetch per node — the "one relational join
for each node" term ``(k-1)·t`` of the analysis.

Experiments E1-E3 run both stores over identical documents and report the
measured ratios against the paper's formulas.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import DocumentNotFoundError, XmlError
from repro.rdb import codec
from repro.rdb.btree import BTree
from repro.rdb.buffer import BufferPool
from repro.rdb.tablespace import Rid, TableSpace
from repro.xdm import nodeid
from repro.xdm.events import EventKind, SaxEvent, assign_node_ids
from repro.xdm.names import NameTable

_KIND_OF_EVENT = {
    EventKind.ELEM_START: 1,
    EventKind.TEXT: 2,
    EventKind.ATTR: 3,
    EventKind.NS: 4,
    EventKind.COMMENT: 5,
    EventKind.PI: 6,
}
_EVENT_OF_KIND = {v: k for k, v in _KIND_OF_EVENT.items()}


def _encode_row(node_id: bytes, kind: int, name_id: int, value: str) -> bytes:
    out = bytearray([kind])
    codec.write_bytes(out, node_id)
    codec.write_uvarint(out, name_id)
    codec.write_str(out, value)
    return bytes(out)


def _decode_row(row: bytes) -> tuple[int, bytes, int, str]:
    kind = row[0]
    node_id, pos = codec.read_bytes(row, 1)
    name_id, pos = codec.read_uvarint(row, pos)
    value, pos = codec.read_str(row, pos)
    return kind, node_id, name_id, value


class ShreddedStore:
    """One-node-per-row XML storage (the Tian-et-al.-style baseline)."""

    def __init__(self, pool: BufferPool, names: NameTable,
                 name: str = "shred") -> None:
        self.pool = pool
        self.names = names
        self.name = name
        self.space = TableSpace(pool, name=f"shredts.{name}")
        self.node_index = BTree(pool, name=f"shredix.{name}", unique=True)
        self._doc_count = 0

    @property
    def document_count(self) -> int:
        return self._doc_count

    @staticmethod
    def _key(docid: int, node_id: bytes) -> bytes:
        return docid.to_bytes(8, "big") + node_id

    # -- insertion -----------------------------------------------------------

    def insert_document_events(self, docid: int,
                               events: Iterable[SaxEvent]) -> int:
        """Store a raw event stream; returns the number of node rows."""
        rows = 0
        for event in assign_node_ids(events):
            if event.kind in (EventKind.DOC_START, EventKind.DOC_END,
                              EventKind.ELEM_END):
                continue
            kind = _KIND_OF_EVENT[event.kind]
            if event.kind in (EventKind.ELEM_START, EventKind.ATTR):
                name_id = self.names.intern_name(event.local, event.uri)
            elif event.kind in (EventKind.NS, EventKind.PI):
                name_id = self.names.intern_name(event.local)
            else:
                name_id = 0
            assert event.node_id is not None
            row = _encode_row(event.node_id, kind, name_id, event.value)
            rid = self.space.insert(row)
            self.node_index.insert(self._key(docid, event.node_id),
                                   rid.to_bytes())
            rows += 1
        self._doc_count += 1
        return rows

    # -- traversal ("one join per node", §3.1) ----------------------------------

    def document_events(self, docid: int) -> Iterator[SaxEvent]:
        """Document-order events; every node costs an index probe + fetch."""
        prefix = docid.to_bytes(8, "big")
        open_elems: list[tuple[bytes, str, str]] = []  # (id, local, uri)
        emitted_any = False
        for key, rid_bytes in self.node_index.scan_prefix(prefix):
            node_id = key[8:]
            # The per-node "join": one record fetch per node row.
            row = self.space.read(Rid.from_bytes(rid_bytes))
            kind, stored_id, name_id, value = _decode_row(row)
            if not emitted_any:
                yield SaxEvent(EventKind.DOC_START, node_id=nodeid.ROOT_ID)
                emitted_any = True
            while open_elems and not nodeid.is_ancestor(open_elems[-1][0],
                                                        node_id):
                _id, local, uri = open_elems.pop()
                yield SaxEvent(EventKind.ELEM_END, local=local, uri=uri)
            event_kind = _EVENT_OF_KIND[kind]
            if event_kind is EventKind.ELEM_START:
                local, uri = self.names.name(name_id)
                yield SaxEvent(event_kind, local=local, uri=uri,
                               node_id=stored_id)
                open_elems.append((stored_id, local, uri))
            elif event_kind is EventKind.ATTR:
                local, uri = self.names.name(name_id)
                yield SaxEvent(event_kind, local=local, uri=uri, value=value,
                               node_id=stored_id)
            elif event_kind in (EventKind.NS, EventKind.PI):
                local, _ = self.names.name(name_id)
                yield SaxEvent(event_kind, local=local, value=value,
                               node_id=stored_id)
            else:
                yield SaxEvent(event_kind, value=value, node_id=stored_id)
        if not emitted_any:
            raise DocumentNotFoundError(f"no document with DocID {docid}")
        while open_elems:
            _id, local, uri = open_elems.pop()
            yield SaxEvent(EventKind.ELEM_END, local=local, uri=uri)
        yield SaxEvent(EventKind.DOC_END)

    # -- point update (the §3.1 update-cost comparison) ----------------------------

    def replace_text(self, docid: int, node_id: bytes, new_text: str) -> None:
        """Update one node's value; touches exactly one small record."""
        rid_bytes = self.node_index.search_one(self._key(docid, node_id))
        if rid_bytes is None:
            raise XmlError(f"node {nodeid.format_id(node_id)} not found")
        rid = Rid.from_bytes(rid_bytes)
        kind, stored_id, name_id, _old = _decode_row(self.space.read(rid))
        new_rid = self.space.update(
            rid, _encode_row(stored_id, kind, name_id, new_text))
        if new_rid != rid:
            self.node_index.delete(self._key(docid, node_id), rid.to_bytes())
            self.node_index.insert(self._key(docid, node_id),
                                   new_rid.to_bytes())

    # -- introspection ----------------------------------------------------------------

    def storage_footprint(self) -> dict[str, int]:
        return {
            "data_pages": self.space.page_count,
            "data_bytes": self.space.live_bytes(),
            "record_count": self.space.record_count,
            "nodeid_index_entries": self.node_index.entry_count,
            "nodeid_index_pages": self.node_index.page_count,
        }
