"""The NodeID index (§3.1, §3.4).

Maps logical node IDs to physical record IDs: "for each contiguous interval
of node IDs for nodes within a record in document order, only one entry is in
the node ID index, which is the upper end point of the node ID interval."
A probe for any (DocID, NodeID) therefore does a B+tree ``seek >=`` and lands
on the record containing that node — "the successful search ... is attributed
to the arrangement for the NodeID index keys by using the upper end points".

Keys are ``8-byte big-endian DocID || node-ID bytes`` so byte order equals
(DocID, document order).  A reader of a whole document therefore needs no
probe: the document's entries are one contiguous key range
(:meth:`NodeIdIndex.entries_for_document`), and a full scan reads the whole
index once, grouped by DocID (:meth:`NodeIdIndex.documents`) — ZML's
"read the (DocID, NodeID) range once".  The record driver resolves the
document's proxies from that range
(:meth:`~repro.xmlstore.traversal.RecordScan.of_document`).
"""

from __future__ import annotations

from typing import Iterator

from repro.rdb.btree import BTree
from repro.rdb.tablespace import Rid
from repro.xmlstore import format as fmt

_DOCID_WIDTH = 8


def index_key(docid: int, node_id: bytes) -> bytes:
    """Encode a (DocID, NodeID) probe/entry key."""
    return docid.to_bytes(_DOCID_WIDTH, "big") + node_id


def split_key(key: bytes) -> tuple[int, bytes]:
    """Decode an index key back into (DocID, NodeID)."""
    return int.from_bytes(key[:_DOCID_WIDTH], "big"), key[_DOCID_WIDTH:]


class NodeIdIndex:
    """Interval-endpoint index over one XML table."""

    def __init__(self, tree: BTree) -> None:
        self.tree = tree

    @property
    def entry_count(self) -> int:
        return self.tree.entry_count

    def add_record(self, docid: int, intervals: list[tuple[bytes, bytes]],
                   rid: Rid) -> int:
        """Index the node-ID ``intervals`` of the record stored at ``rid``;
        returns entries added.

        A freshly packed record brings the intervals the packer noted
        (:attr:`~repro.xmlstore.packing.PackedRecord.intervals`); a record
        a subdocument update spliced brings :func:`fmt.record_intervals` of
        its new bytes (:meth:`~repro.xmlstore.store.XmlStore.replace_record`).
        """
        rid_bytes = rid.to_bytes()
        for _low, high in intervals:
            self.tree.insert(index_key(docid, high), rid_bytes)
        return len(intervals)

    def remove_record(self, docid: int, record: bytes, rid: Rid) -> int:
        """Drop the interval entries of ``record``; returns entries removed."""
        removed = 0
        for _low, high in fmt.record_intervals(record):
            if self.tree.delete(index_key(docid, high), rid.to_bytes()):
                removed += 1
        return removed

    def probe(self, docid: int, node_id: bytes) -> Rid | None:
        """RID of the record containing ``node_id`` (§3.4 probe)."""
        entry = self.tree.seek_ge(index_key(docid, node_id))
        if entry is None:
            return None
        key, rid_bytes = entry
        found_docid, _ = split_key(key)
        if found_docid != docid:
            return None
        return Rid.from_bytes(rid_bytes)

    def entries_for_document(self, docid: int) -> Iterator[tuple[bytes, Rid]]:
        """All (upper-endpoint NodeID, RID) entries of one document, in key
        order: one range read, no point probe."""
        for key, rid_bytes in self.tree.scan(
                docid.to_bytes(_DOCID_WIDTH, "big"),
                (docid + 1).to_bytes(_DOCID_WIDTH, "big")):
            yield key[_DOCID_WIDTH:], Rid.from_bytes(rid_bytes)

    def documents(self) -> Iterator[tuple[int, list[tuple[bytes, Rid]]]]:
        """Every indexed document's entries, as :meth:`entries_for_document`
        gives them, in DocID order, from one read of the whole index."""
        prefix, entries = None, []
        for key, rid_bytes in self.tree.scan():
            if key[:_DOCID_WIDTH] != prefix:
                if entries:
                    yield int.from_bytes(prefix, "big"), entries
                prefix, entries = key[:_DOCID_WIDTH], []
            entries.append((key[_DOCID_WIDTH:], Rid.from_bytes(rid_bytes)))
        if entries:
            yield int.from_bytes(prefix, "big"), entries

    def record_rids(self, docid: int) -> list[Rid]:
        """Distinct RIDs of a document's records, in clustering order."""
        seen: dict[Rid, None] = {}
        for _node_id, rid in self.entries_for_document(docid):
            seen.setdefault(rid, None)
        return list(seen)
