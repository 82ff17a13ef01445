"""XmlStore: the internal XML table of one XML column (Fig. 2).

Each XML column owns an internal table ``(DocID, minNodeID, XMLData)`` in its
own table space, clustered by ``(DocID, minNodeID)``, plus a NodeID index.
Insertion is the paper's streaming pipeline (§3.2), in two phases:

* *prepare* (:meth:`XmlStore.prepare_text`) is one pass over the text: the
  parser's events, collected through
  :meth:`~repro.xdm.parser.XmlParser.parse_sax`, go straight into the
  bottom-up tree packer, which numbers each node as it packs it and returns
  the records with their NodeID-index intervals.  One event per node, no
  token stream, and no record is decoded again.  A validated document comes
  in as the schema VM's events (:meth:`XmlStore.prepare_events`); the
  buffered token stream stays on that path and in experiment E4.
  Everything that can refuse a document runs here, in
  :func:`prepare_document`, before the engine logs it.  The versioned store
  of :mod:`repro.cc.mvcc` prepares its versions with the same function;
* *apply* (:meth:`XmlStore.insert_packed`) writes the records and the
  "index keys for the node ID index and XPath value indexes ... generated
  per record".

XPath value indexes hook in as *key generators*: callables invoked once per
record at insert/delete time — the paper's point that per-record key
generation "fits existing infrastructure very well".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

from repro.core.stats import StatsRegistry
from repro.errors import DocumentNotFoundError, PageFullError
from repro.rdb.btree import BTree
from repro.rdb.buffer import BufferPool
from repro.rdb.tablespace import Rid, TableSpace
from repro.xdm.events import SaxEvent
from repro.xdm.names import NameTable
from repro.xdm.parser import XmlParser
from repro.xmlstore import format as fmt
from repro.xmlstore.node_index import NodeIdIndex
from repro.xmlstore.packing import PackedRecord, TreePacker
from repro.xmlstore.traversal import RecordScan, StoredDocument


class RecordObserver(Protocol):
    """Maintenance hook invoked per stored record (value indexes, §3.3)."""

    def record_added(self, docid: int, record: bytes, rid: Rid) -> None: ...

    def record_removed(self, docid: int, record: bytes, rid: Rid) -> None: ...


@dataclass(frozen=True)
class PreparedDocument:
    """A parsed and packed document, not stored yet.

    ``records`` are in ``(DocID, minNodeID)`` order and each fits a page.
    """

    docid: int
    records: list[PackedRecord]
    node_count: int


@dataclass(frozen=True)
class DocumentInfo:
    """Result of a document insertion."""

    docid: int
    node_count: int
    record_count: int
    index_entries: int
    data_bytes: int


def prepare_document(docid: int, events: Iterable[SaxEvent],
                     names: NameTable, record_limit: int,
                     max_record: int) -> PreparedDocument:
    """The prepare step of both XML stores: pack ``events`` and refuse a
    document with a record longer than ``max_record`` bytes.

    All or nothing: a record that cannot be stored fails the document
    before any of its records or index entries is written.
    """
    packer = TreePacker(docid, names, record_limit)
    records = packer.feed(events).finish()
    longest = max(len(record.data) for record in records)
    if longest > max_record:
        raise PageFullError(
            f"DocID {docid} packs into a {longest}-byte record; at most "
            f"{max_record} bytes can be stored")
    return PreparedDocument(docid, records, packer.node_count)


class XmlStore:
    """Native XML storage for one XML column."""

    def __init__(self, pool: BufferPool, names: NameTable,
                 record_limit: int = 1024, name: str = "xmlcol") -> None:
        self.pool = pool
        self.names = names
        self.record_limit = record_limit
        self.name = name
        self.space = TableSpace(pool, name=f"xmlts.{name}")
        self.node_index = NodeIdIndex(
            BTree(pool, name=f"nix.{name}", unique=False))
        self.observers: list[RecordObserver] = []
        self._doc_count = 0
        self._docids: dict[int, int] = {}  # docid -> node count

    @property
    def stats(self) -> StatsRegistry:
        return self.pool.stats

    @property
    def document_count(self) -> int:
        return self._doc_count

    # -- insertion -----------------------------------------------------------

    def insert_document_text(self, docid: int, text: str,
                             strip_whitespace: bool = False) -> DocumentInfo:
        """Parse and store an XML string under ``docid``."""
        return self.insert_packed(
            self.prepare_text(docid, text, strip_whitespace))

    def insert_document_events(self, docid: int,
                               events: Iterable[SaxEvent]) -> DocumentInfo:
        """Store an event stream under ``docid`` (the packer numbers its
        nodes; IDs already on the events are ignored)."""
        return self.insert_packed(self.prepare_events(docid, events))

    def prepare_text(self, docid: int, text: str,
                     strip_whitespace: bool = False) -> PreparedDocument:
        """Parse and pack an XML string for ``docid`` without storing it."""
        events: list[SaxEvent] = []
        XmlParser(strip_whitespace).parse_sax(text, events.append)
        return self.prepare_events(docid, events)

    def prepare_events(self, docid: int,
                       events: Iterable[SaxEvent]) -> PreparedDocument:
        """Pack an event stream for ``docid`` without storing it."""
        return prepare_document(docid, events, self.names, self.record_limit,
                                self.space.max_record)

    def insert_packed(self, document: PreparedDocument) -> DocumentInfo:
        """Store a prepared document: records, NodeID index, observers."""
        docid = document.docid
        if self.node_index.probe(docid, b"") is not None:
            raise DocumentNotFoundError(
                f"DocID {docid} already exists in {self.name!r}")
        index_entries = 0
        data_bytes = 0
        for _min_id, record, intervals in document.records:
            rid = self.space.insert(record)
            index_entries += self.node_index.add_record(docid, intervals, rid)
            data_bytes += len(record)
            for observer in self.observers:
                observer.record_added(docid, record, rid)
        self._doc_count += 1
        self._docids[docid] = document.node_count
        return DocumentInfo(docid, document.node_count, len(document.records),
                            index_entries, data_bytes)

    # -- reads --------------------------------------------------------------------

    def read_record(self, rid: Rid) -> bytes:
        return self.space.read(rid)

    def document(self, docid: int) -> StoredDocument:
        """Read-side handle on a stored document."""
        return StoredDocument(self, docid)

    def scan_documents(self) -> Iterator[tuple[int, RecordScan]]:
        """Every stored document as the record driver's source, in DocID
        order: one read of the NodeID index, grouped by DocID, and no
        probe (a full scan's input)."""
        for docid, entries in self.node_index.documents():
            yield docid, RecordScan.of_document(self.names, docid, entries,
                                                self.read_record)

    def document_exists(self, docid: int) -> bool:
        return self.node_index.probe(docid, b"") is not None

    def docids(self) -> list[int]:
        """All stored DocIDs in ascending order."""
        return sorted(self._docids)

    def average_nodes_per_document(self) -> float:
        """Mean node count per stored document (planner heuristic input)."""
        if not self._docids:
            return 0.0
        return sum(self._docids.values()) / len(self._docids)

    # -- deletion -----------------------------------------------------------------

    def delete_document(self, docid: int) -> int:
        """Remove a document; returns the number of records dropped."""
        rids = self.node_index.record_rids(docid)
        if not rids:
            raise DocumentNotFoundError(f"no document with DocID {docid}")
        for rid in rids:
            self.drop_record(docid, rid)
        self._doc_count -= 1
        self._docids.pop(docid, None)
        return len(rids)

    def drop_record(self, docid: int, rid: Rid) -> None:
        """Remove one record: observers, NodeID-index entries, then bytes."""
        record = self.space.read(rid)
        for observer in self.observers:
            observer.record_removed(docid, record, rid)
        self.node_index.remove_record(docid, record, rid)
        self.space.delete(rid)

    # -- record replacement (used by subdocument updates) ---------------------------

    def replace_record(self, docid: int, rid: Rid, new_record: bytes) -> Rid:
        """Swap a record's contents, repointing index entries if it moves."""
        old_record = self.space.read(rid)
        for observer in self.observers:
            observer.record_removed(docid, old_record, rid)
        self.node_index.remove_record(docid, old_record, rid)
        new_rid = self.space.update(rid, new_record)
        self.node_index.add_record(docid, fmt.record_intervals(new_record),
                                   new_rid)
        for observer in self.observers:
            observer.record_added(docid, new_record, new_rid)
        return new_rid

    # -- introspection ---------------------------------------------------------------

    def storage_footprint(self) -> dict[str, int]:
        """Sizes the experiments report (E1)."""
        return {
            "data_pages": self.space.page_count,
            "data_bytes": self.space.live_bytes(),
            "record_count": self.space.record_count,
            "nodeid_index_entries": self.node_index.entry_count,
            "nodeid_index_pages": self.node_index.tree.page_count,
        }


def record_observer(on_added: Callable[[int, bytes, Rid], None],
                    on_removed: Callable[[int, bytes, Rid], None]
                    ) -> RecordObserver:
    """Build an observer from two plain callables."""

    class _Observer:
        def record_added(self, docid: int, record: bytes, rid: Rid) -> None:
            on_added(docid, record, rid)

        def record_removed(self, docid: int, record: bytes, rid: Rid) -> None:
            on_removed(docid, record, rid)

    return _Observer()
