"""The one reader of the packed record format (§3.2-§3.4).

"To traverse in document order a persistently stored XML document with a
given docid value, first the NodeID index is searched with (docid, 00) as the
key.  The root record can be identified.  The XMLData is then traversed.  If
a proxy node is encountered, its node ID is used to search the NodeID index
... Stacking has to be used during traversal."

That algorithm runs here once, in :meth:`RecordScan.drive`: an explicit
stack (no recursion) over record spans, with proxies resolved through a
callback or skipped when there is none — the per-record evaluation index key
generation runs (§3.2-§3.3), whose ancestors are replayed from the record
header.  A whole document's callback (:meth:`RecordScan.of_document`) probes
nothing: the document's NodeID-index entries are read once, as one key range,
and the root record is the first of them and a proxy's record the first at or
after its node ID.  A subtree source resolves a proxy by a NodeID-index probe,
as reading a large document's whole range for one anchor would cost more.
The driver calls a *run*'s handlers, one per node, and what a run does with
them is its own:

* QuickXScan's :class:`repro.xpath.quickxscan.ScanRun` matches with no
  generator or event object per node, and steps over every subtree the
  matcher says cannot match — its packed-out records are never read.
* :class:`EventSink` turns every node into a virtual SAX event (Fig. 8's
  "persistent data" iterator) for a callback: an event list, the serializer
  (:meth:`StoredDocument.serialize` streams, building no list), or an
  update's child listing, which steps over every child's subtree.

Element entries carry their subtree length, so locating a node by ID
(:meth:`StoredDocument.find_node`) and every skip cost O(1) per subtree.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from repro.errors import DocumentNotFoundError, PackingError
from repro.rdb import codec
from repro.xdm import nodeid
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import NameTable
from repro.xdm.serializer import Serializer
from repro.xmlstore import format as fmt

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdb.tablespace import Rid
    from repro.xmlstore.store import XmlStore


_ELEMENT = fmt.EntryKind.ELEMENT
_TEXT = fmt.EntryKind.TEXT
_ATTRIBUTE = fmt.EntryKind.ATTRIBUTE
_PROXY = fmt.EntryKind.PROXY
_ELEM_START = EventKind.ELEM_START
_ELEM_END = EventKind.ELEM_END
_TEXT_EVENT = EventKind.TEXT
_ATTR_EVENT = EventKind.ATTR
_ENDPOINT = itemgetter(0)


class RecordScan(NamedTuple):
    """A stored span as a run's source: the packed-record driver.

    :meth:`drive` calls a run's handlers for a document start (node ID
    ``doc_id``), synthetic starts for the ``ancestors`` (name ids, root
    first; never skipped), one ``ns`` per in-scope ``namespaces`` binding
    (prefix, URI), the entries of ``record[start:end]`` and the ancestors'
    ends.  The run's ``name_ids(names)`` table maps a name id to ``(name,
    element wanted, attribute wanted)``: a node ID is built only for a node
    the driver descends into or the run wants, and text is decoded only when
    the run's ``text_test`` or ``collectors`` is set; an unwanted node is a
    ``tick()``.  A true ``elem_start`` steps over the element's subtree."""

    names: NameTable
    record: bytes
    start: int
    end: int
    parent: bytes
    resolve: Callable[[bytes], bytes] | None = None
    doc_id: bytes | None = None
    ancestors: Sequence[int] = ()
    namespaces: Sequence[tuple[str, str]] = ()

    @classmethod
    def of_record(cls, record: bytes, names: NameTable) -> "RecordScan":
        """One record alone, as index key generation evaluates it: the
        header's ancestors and namespaces, proxies skipped."""
        header, body_start = fmt.decode_header(record)
        namespaces = tuple((prefix, uri)
                           for prefix, uri_id in header.namespaces
                           if (uri := names.uri(uri_id)))
        return cls(names, record, body_start, len(record), header.context_id,
                   ancestors=header.context_path, namespaces=namespaces)

    @classmethod
    def of_document(cls, names: NameTable, docid: int,
                    entries: Sequence[tuple[bytes, "Rid"]],
                    read: Callable[["Rid"], bytes]) -> "RecordScan":
        """A whole document from its NodeID-index ``entries`` (upper
        endpoint, RID), in key order and not empty: the first entry's record
        is the root record — the probe for the root's empty node ID lands on
        it — and a proxy resolves to the first entry at or after its node
        ID, the probe's ``seek >=`` kept inside the document.  ``read``
        fetches a record."""

        def resolve(abs_id: bytes) -> bytes:
            at = bisect_left(entries, abs_id, key=_ENDPOINT)
            if at == len(entries):
                raise PackingError(f"dangling proxy {nodeid.format_id(abs_id)}"
                                   f" in DocID {docid}")
            return read(entries[at][1])

        record = read(entries[0][1])
        header, body_start = fmt.decode_header(record)
        return cls(names, record, body_start, len(record), header.context_id,
                   resolve, nodeid.ROOT_ID)

    def drive(self, run) -> None:
        by_id = run.name_ids(self.names)
        elem_start, elem_end, text, attr, tick, ns = run.elem_start, \
            run.elem_end, run.text, run.attr, run.tick, run.ns
        collectors, text_test = run.collectors, run.text_test
        read_uvarint = codec.read_uvarint
        resolve = self.resolve
        run.doc_start(self.doc_id)
        for name_id in self.ancestors:
            local, candidates, _ = by_id[name_id]
            elem_start(local, candidates, None)
        for prefix, uri in self.namespaces:
            ns(prefix, uri, None)
        # Suspended spans, innermost last: (buf, resume_pos, end,
        # parent_abs, closes) where ``closes`` is False for a proxy's record.
        stack: list[tuple] = []
        buf, pos, end, parent = self.record, self.start, self.end, self.parent
        while True:
            if pos >= end:
                if not stack:
                    break
                buf, pos, end, parent, closes = stack.pop()
                if closes:
                    elem_end()
                continue
            kind = buf[pos]
            if kind == _ELEMENT or kind == _TEXT or kind == _ATTRIBUTE:
                size = buf[pos + 1]
                pos += 2
                if size > 0x7F:
                    size, pos = read_uvarint(buf, pos - 1)
                rel = pos
                pos += size
                rel_end = pos
                if kind != _TEXT:
                    name_id = buf[pos]
                    pos += 1
                    if name_id > 0x7F:
                        name_id, pos = read_uvarint(buf, pos - 1)
                    local, candidates, attr_candidates = by_id[name_id]
                if kind == _ELEMENT:
                    if buf[pos] > 0x7F:  # nested entry count: not needed
                        _count, pos = read_uvarint(buf, pos)
                    else:
                        pos += 1
                    size = buf[pos]
                    pos += 1
                    if size > 0x7F:
                        size, pos = read_uvarint(buf, pos - 1)
                    node_id = parent + buf[rel:rel_end] if candidates \
                        else None
                    if elem_start(local, candidates, node_id):
                        pos += size  # skipped: the subtree is never decoded
                        elem_end()
                        continue
                    stack.append((buf, pos + size, end, parent, True))
                    end = pos + size
                    parent = node_id or parent + buf[rel:rel_end]
                    continue
                size = buf[pos]
                pos += 1
                if size > 0x7F:
                    size, pos = read_uvarint(buf, pos - 1)
                if kind == _ATTRIBUTE:
                    if attr_candidates:
                        attr(local, attr_candidates,
                             str(buf[pos:pos + size], "utf-8"),
                             parent + buf[rel:rel_end])
                    else:
                        tick()
                elif text_test or collectors:
                    text(str(buf[pos:pos + size], "utf-8"),
                         parent + buf[rel:rel_end] if text_test else None)
                else:
                    tick()
                pos += size
                continue
            entry = fmt.parse_entry(buf, pos)
            pos = entry.next_pos
            if kind == _PROXY:
                if resolve is not None:
                    stack.append((buf, pos, end, parent, False))
                    buf = resolve(entry.rel_id)
                    header, pos = fmt.decode_header(buf)
                    end, parent = len(buf), header.context_id
            elif kind == fmt.EntryKind.COMMENT:
                run.comment(entry.text, parent + entry.rel_id)
            elif kind == fmt.EntryKind.PI:
                run.pi(entry.target, entry.text, parent + entry.rel_id)
            else:  # a namespace declaration: parse_entry rejects the rest
                ns(entry.target, self.names.uri(entry.uri_id),
                   parent + entry.rel_id)
        for _ in self.ancestors:
            elem_end()


class _EveryName(dict):
    """A name-id table that wants every node: ``((local, uri), True,
    True)`` per id, filled as ids are met."""

    def __init__(self, names: NameTable) -> None:
        super().__init__()
        self.names = names

    def __missing__(self, name_id: int) -> tuple:
        entry = self[name_id] = (self.names.name(name_id), True, True)
        return entry


class EventSink:
    """A :meth:`RecordScan.drive` run that hands ``emit`` one
    :class:`SaxEvent` per node, with its node ID, in document order.

    With ``skip`` every element's subtree is stepped over (its start and end
    are still emitted), so only the span's top level is decoded.  The
    document start is not emitted: the caller frames the span, which may be
    a whole document, a subtree or one record."""

    collectors = text_test = True

    def __init__(self, emit: Callable[[SaxEvent], object],
                 skip: bool = False) -> None:
        self.emit, self.skip = emit, skip
        self._open: list[tuple[str, str]] = []

    def name_ids(self, names: NameTable) -> _EveryName:
        return _EveryName(names)

    def doc_start(self, node_id: bytes | None) -> None:
        pass

    def elem_start(self, name: tuple[str, str], _wanted: bool,
                   node_id: bytes | None) -> bool:
        self._open.append(name)
        self.emit(SaxEvent(_ELEM_START, name[0], name[1], "", node_id))
        return self.skip

    def elem_end(self) -> None:
        local, uri = self._open.pop()
        self.emit(SaxEvent(_ELEM_END, local, uri))

    def text(self, value: str, node_id: bytes | None) -> None:
        self.emit(SaxEvent(_TEXT_EVENT, "", "", value, node_id))

    def attr(self, name: tuple[str, str], _wanted: bool, value: str,
             node_id: bytes | None) -> None:
        self.emit(SaxEvent(_ATTR_EVENT, name[0], name[1], value, node_id))

    def comment(self, value: str, node_id: bytes | None) -> None:
        self.emit(SaxEvent(EventKind.COMMENT, value=value, node_id=node_id))

    def pi(self, target: str, value: str, node_id: bytes | None) -> None:
        self.emit(SaxEvent(EventKind.PI, local=target, value=value,
                           node_id=node_id))

    def ns(self, prefix: str, uri: str, node_id: bytes | None) -> None:
        self.emit(SaxEvent(EventKind.NS, local=prefix, value=uri,
                           node_id=node_id))

    def tick(self) -> None:  # every node is wanted: never called
        pass


class StoredDocument:
    """Read-side view of one stored document."""

    def __init__(self, store: "XmlStore", docid: int) -> None:
        self.store = store
        self.docid = docid

    def source(self, node_id: bytes | None = None) -> RecordScan:
        """The whole document, or the subtree at ``node_id`` under its
        replayed ancestors (what a NodeID-list plan re-evaluates, §3.1), as
        the record driver's source.  The whole document's NodeID-index
        entries are read now, as one range (:meth:`RecordScan.of_document`);
        a subtree's descent is made now and its proxies probe the index."""
        names = self.store.names
        if node_id is None:
            entries = list(
                self.store.node_index.entries_for_document(self.docid))
            if not entries:
                raise DocumentNotFoundError(
                    f"node {nodeid.format_id(nodeid.ROOT_ID)} not found in "
                    f"DocID {self.docid}")
            return RecordScan.of_document(names, self.docid, entries,
                                          self.store.read_record)
        record, pos, entry, parent, ancestors, _ = self._descend(node_id)
        return RecordScan(names, record, pos, entry.next_pos, parent,
                          self._resolve_proxy, ancestors=ancestors)

    def events(self) -> Iterator[SaxEvent]:
        """Document-order virtual SAX events for the whole document."""
        out = [SaxEvent(EventKind.DOC_START, node_id=nodeid.ROOT_ID)]
        self.source().drive(EventSink(out.append))
        out.append(SaxEvent(EventKind.DOC_END))
        yield from out

    def node_events(self, node_id: bytes) -> Iterator[SaxEvent]:
        """Events for the subtree rooted at ``node_id``, from one descent
        (one NodeID-index probe) made now: a missing node raises here, not
        at the first event."""
        out: list[SaxEvent] = []
        self.source(node_id)._replace(ancestors=()).drive(
            EventSink(out.append))
        return iter(out)

    def serialize(self, node_id: bytes | None = None) -> str:
        """XML text of the document (``node_id`` None or the root's) or of
        the subtree at ``node_id``; an attribute gives its value.  The
        records stream into the serializer: no event list is built."""
        scan = self.source(None if node_id == nodeid.ROOT_ID else node_id)
        if scan.doc_id is None:  # a node: drop its replayed ancestors
            if scan.record[scan.start] == _ATTRIBUTE:
                return fmt.parse_entry(scan.record, scan.start).text
            scan = scan._replace(ancestors=())
        serializer = Serializer()
        scan.drive(EventSink(serializer.feed))
        return serializer.finish()

    def find_node(self, node_id: bytes
                  ) -> tuple[bytes, fmt.Entry, bytes]:
        """Locate ``node_id``: returns ``(record, entry, parent_abs_id)``."""
        record, _, entry, parent, _, _ = self._descend(node_id)
        return record, entry, parent

    def ancestry(self, node_id: bytes) -> list[tuple[str, str]]:
        """Names of the ancestor elements of ``node_id``, root first.

        Served from one record fetch: the header's context path provides the
        out-of-record ancestors (the self-containment property, §3.1), and the
        descent collects the in-record ones.
        """
        return [self.store.names.name(name_id)
                for name_id in self._descend(node_id)[4]]

    def node_string_value(self, node_id: bytes) -> str:
        """XDM string value of the node with ``node_id``."""
        parts = []
        events = self.node_events(node_id)
        first = next(events)
        if first.kind in (EventKind.TEXT, EventKind.COMMENT, EventKind.PI,
                          EventKind.ATTR, EventKind.NS):
            return first.value
        for event in events:
            if event.kind is EventKind.TEXT:
                parts.append(event.value)
        return "".join(parts)

    def in_scope_namespaces(self, node_id: bytes) -> dict[str, str]:
        """In-scope namespace bindings at ``node_id``'s record context."""
        header, _ = fmt.decode_header(self._read(node_id))
        return {prefix: self.store.names.uri(uri_id)
                for prefix, uri_id in header.namespaces}

    # -- internals ----------------------------------------------------------------

    def _read(self, node_id: bytes) -> bytes:
        """The record holding ``node_id``: one NodeID-index probe."""
        rid = self.store.node_index.probe(self.docid, node_id)
        if rid is None:
            raise DocumentNotFoundError(
                f"node {nodeid.format_id(node_id)} not found in "
                f"DocID {self.docid}")
        return self.store.read_record(rid)

    def _resolve_proxy(self, abs_id: bytes) -> bytes:
        rid = self.store.node_index.probe(self.docid, abs_id)
        if rid is None:
            raise PackingError(
                f"dangling proxy {nodeid.format_id(abs_id)} in DocID {self.docid}")
        return self.store.read_record(rid)

    def _descend(self, node_id: bytes, rid: Rid | None = None
                 ) -> tuple[bytes, int, fmt.Entry, bytes, list[int],
                            list[int]]:
        """Find ``node_id`` in its record by a subtree-skipping descent.

        Returns ``(record, entry_pos, entry, parent_abs_id, ancestors,
        enclosing)``: the ancestors' name ids root first, and
        the positions of the in-record ancestor element entries, outermost
        first (the headers a splice at ``entry_pos`` rewrites).  ``rid`` is
        the record's RID when the caller has already probed for it.
        """
        record = self._read(node_id) if rid is None \
            else self.store.read_record(rid)
        header, pos = fmt.decode_header(record)
        end, parent = len(record), header.context_id
        ancestors = list(header.context_path)
        enclosing: list[int] = []
        while pos < end:
            entry = fmt.parse_entry(record, pos)
            if entry.kind != fmt.EntryKind.PROXY:
                abs_id = parent + entry.rel_id
                if abs_id == node_id:
                    return record, pos, entry, parent, ancestors, enclosing
                if entry.kind == fmt.EntryKind.ELEMENT and \
                        nodeid.is_ancestor(abs_id, node_id):
                    ancestors.append(entry.name_id)
                    enclosing.append(pos)
                    pos, end, parent = (entry.content_start,
                                        entry.content_end, abs_id)
                    continue
            pos = entry.next_pos  # next-sibling skip: subtree skipped in O(1)
        if pos != end:
            raise PackingError("packed record entries overrun their span")
        raise DocumentNotFoundError(
            f"node {nodeid.format_id(node_id)} not present in its "
            f"record (DocID {self.docid})")
