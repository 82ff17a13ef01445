"""Document-level multiversioning (§5.1).

"Alternatively, multiversioning can be applied to avoid locking by readers,
which is more efficient for mostly read workload.  To support multiversioning
at document level, one scheme is to keep most up-to-date data for XPath value
indexes, but keep versions for XML data and the NodeID index ...  with
versioning, the entries will also include a version number, i.e.
(DocID, ver#, NodeID, RID), with ver# in descending order.  This will
guarantee a reader's deferred access to be successful."

The versioned NodeID index keys are ``DocID(8) || ~ver(4) || NodeID`` — the
complemented version makes newer versions sort first, exactly the paper's
descending arrangement.  A snapshot reader resolves its visible version once,
then reads or probes within that version's contiguous key range; old
versions are garbage-collected beyond a retention bound.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import DocumentNotFoundError
from repro.rdb.btree import BTree
from repro.rdb.buffer import BufferPool
from repro.rdb.tablespace import Rid, TableSpace
from repro.xdm.events import SaxEvent
from repro.xdm.names import NameTable
from repro.xdm.parser import parse_sax
from repro.xmlstore.store import prepare_document
from repro.xmlstore.traversal import StoredDocument

_MAX_VER = (1 << 32) - 1


def version_key(docid: int, version: int, node_id: bytes) -> bytes:
    """Key with ver# descending: newer versions sort before older ones."""
    return (docid.to_bytes(8, "big")
            + (_MAX_VER - version).to_bytes(4, "big")
            + node_id)


def split_version_key(key: bytes) -> tuple[int, int, bytes]:
    docid = int.from_bytes(key[:8], "big")
    version = _MAX_VER - int.from_bytes(key[8:12], "big")
    return docid, version, key[12:]


class _SnapshotNodeIndex:
    """NodeID-index facade bound to one visible version."""

    def __init__(self, store: "VersionedXmlStore", docid: int,
                 version: int) -> None:
        self._store = store
        self._docid = docid
        self._version = version

    def probe(self, docid: int, node_id: bytes) -> Rid | None:
        return self._store._probe_version(docid, self._version, node_id)

    def entries_for_document(self, docid: int) -> Iterator[tuple[bytes, Rid]]:
        """The visible version's (upper endpoint, RID) entries: one range
        read over its ``(DocID, ver#)`` prefix."""
        prefix = version_key(docid, self._version, b"")
        for key, rid_bytes in self._store.index.scan_prefix(prefix):
            yield key[len(prefix):], Rid.from_bytes(rid_bytes)


class _SnapshotView:
    """Duck-typed XmlStore view for :class:`StoredDocument`."""

    def __init__(self, store: "VersionedXmlStore", docid: int,
                 version: int) -> None:
        self.names = store.names
        self.node_index = _SnapshotNodeIndex(store, docid, version)
        self._store = store

    def read_record(self, rid: Rid) -> bytes:
        return self._store.space.read(rid)


class VersionedXmlStore:
    """XML storage with document-level version history."""

    def __init__(self, pool: BufferPool, names: NameTable,
                 record_limit: int = 1024,
                 retained_versions: int = 4) -> None:
        self.pool = pool
        self.names = names
        self.record_limit = record_limit
        self.retained_versions = retained_versions
        self.space = TableSpace(pool, name="vxmlts")
        self.index = BTree(pool, name="vnix", unique=True)
        #: committed version history per document (ascending).
        self._versions: dict[int, list[int]] = {}
        self._next_version = 1
        #: each record's RID and the upper ends of its node-ID intervals
        #: (its index keys) per (docid, version), for garbage collection.
        self._version_records: dict[tuple[int, int],
                                    list[tuple[Rid, list[bytes]]]] = {}

    # -- writes -------------------------------------------------------------

    def commit_version_text(self, docid: int, text: str) -> int:
        events: list[SaxEvent] = []
        parse_sax(text, events.append)
        return self.commit_version_events(docid, events)

    def commit_version_events(self, docid: int,
                              events: Iterable[SaxEvent]) -> int:
        """Store a new committed version of ``docid``; returns its ver#.

        The version is prepared in full first, so a refused document
        writes no record and takes no version number.
        """
        document = prepare_document(docid, events, self.names,
                                    self.record_limit, self.space.max_record)
        version = self._next_version
        self._next_version += 1
        stored = []
        for record in document.records:
            rid = self.space.insert(record.data)
            highs = [high for _low, high in record.intervals]
            for high in highs:
                self.index.insert(version_key(docid, version, high),
                                  rid.to_bytes())
            stored.append((rid, highs))
        self._versions.setdefault(docid, []).append(version)
        self._version_records[(docid, version)] = stored
        self._garbage_collect(docid)
        return version

    def _garbage_collect(self, docid: int) -> None:
        versions = self._versions[docid]
        while len(versions) > self.retained_versions:
            old = versions.pop(0)
            for rid, highs in self._version_records.pop((docid, old), []):
                for high in highs:
                    self.index.delete(version_key(docid, old, high),
                                      rid.to_bytes())
                self.space.delete(rid)

    # -- snapshot reads ------------------------------------------------------------

    @property
    def latest_version(self) -> int:
        return self._next_version - 1

    def visible_version(self, docid: int, snapshot: int) -> int:
        """Largest committed version of ``docid`` that is ≤ ``snapshot``."""
        versions = self._versions.get(docid)
        if not versions:
            raise DocumentNotFoundError(f"no versions of DocID {docid}")
        visible = [v for v in versions if v <= snapshot]
        if not visible:
            raise DocumentNotFoundError(
                f"DocID {docid} has no version at snapshot {snapshot} "
                f"(oldest retained is {versions[0]})")
        return visible[-1]

    def _probe_version(self, docid: int, version: int,
                       node_id: bytes) -> Rid | None:
        entry = self.index.seek_ge(version_key(docid, version, node_id))
        if entry is None:
            return None
        key, rid_bytes = entry
        found_docid, found_version, _upper = split_version_key(key)
        if (found_docid, found_version) != (docid, version):
            return None
        return Rid.from_bytes(rid_bytes)

    def document_at(self, docid: int, snapshot: int) -> StoredDocument:
        """Read-only view of the document as of ``snapshot``.

        Never blocks — "multiversioning can be applied to avoid locking by
        readers".
        """
        version = self.visible_version(docid, snapshot)
        view = _SnapshotView(self, docid, version)
        return StoredDocument(view, docid)  # type: ignore[arg-type]

    def document_latest(self, docid: int) -> StoredDocument:
        return self.document_at(docid, self.latest_version)

    def version_count(self, docid: int) -> int:
        return len(self._versions.get(docid, []))
