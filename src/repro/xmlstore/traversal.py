"""The one reader of the packed record format (§3.2-§3.4).

"To traverse in document order a persistently stored XML document with a
given docid value, first the NodeID index is searched with (docid, 00) as the
key.  The root record can be identified.  The XMLData is then traversed.  If
a proxy node is encountered, its node ID is used to search the NodeID index
... Stacking has to be used during traversal."

That algorithm runs here as an explicit stack (no recursion) over record
spans, with proxies resolved through a callback (the NodeID index, for
:class:`StoredDocument`) or skipped when there is none — the per-record
evaluation index key generation runs (§3.2-§3.3), whose ancestors are
replayed from the record header.  It has two drivers over one entry layout:

* :func:`walk` yields virtual SAX events (Fig. 8's "persistent data"
  iterator); its skip hint (``send(True)`` right after an element start)
  steps over that element's subtree, for the update path's child listing.
* :class:`RecordScan` feeds QuickXScan's match handlers directly, with no
  generator or event object per node, and steps over every subtree the
  matcher says cannot match — its packed-out records are never read.

Element entries carry their subtree length, so locating a node by ID
(:meth:`StoredDocument.find_node`) and both skips cost O(1) per subtree.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Generator, Iterator, NamedTuple,
                    Sequence)

from repro.errors import DocumentNotFoundError, PackingError
from repro.rdb import codec
from repro.xdm import nodeid
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import NameTable
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


def walk(record: bytes, start: int, end: int, parent_abs: bytes,
         names: NameTable, resolve: Callable[[bytes], bytes] | None = None
         ) -> Generator[SaxEvent, bool | None, None]:
    """Document-order events for the entries in ``record[start:end]``.

    ``parent_abs`` is the absolute ID the entries' relative IDs extend.  A
    proxy is followed by reading the record ``resolve(proxy_id)`` returns,
    or skipped when ``resolve`` is ``None``.

    Skip hint: ``send(True)`` right after an ``ELEM_START`` makes the next
    event that element's ``ELEM_END``; nothing inside it is decoded and no
    proxy inside it is resolved.  Element, text and attribute entries are
    decoded inline (one-byte varints on the fast path), with no
    :class:`~repro.xmlstore.format.Entry` per node.
    """
    name_of = names.name
    read_uvarint = codec.read_uvarint
    # Suspended spans, innermost last: (buf, resume_pos, end, parent_abs,
    # closing) where ``closing`` is the (local, uri) whose ELEM_END follows
    # the span, or None when the span is a proxy's record.
    stack: list[tuple] = []
    buf, pos, parent = record, start, parent_abs
    while True:
        if pos >= end:
            if not stack:
                return
            buf, pos, end, parent, closing = stack.pop()
            if closing is not None:
                yield SaxEvent(_ELEM_END, closing[0], closing[1])
            continue
        kind = buf[pos]
        if kind == _ELEMENT or kind == _TEXT or kind == _ATTRIBUTE:
            size = buf[pos + 1]
            pos += 2
            if size > 0x7F:
                size, pos = read_uvarint(buf, pos - 1)
            abs_id = parent + buf[pos:pos + size]
            pos += size
            if kind != _TEXT:
                name_id = buf[pos]
                pos += 1
                if name_id > 0x7F:
                    name_id, pos = read_uvarint(buf, pos - 1)
                name = name_of(name_id)
            if kind == _ELEMENT:
                if buf[pos] > 0x7F:  # nested entry count: not needed here
                    _count, pos = read_uvarint(buf, pos)
                else:
                    pos += 1
                size = buf[pos]
                pos += 1
                if size > 0x7F:
                    size, pos = read_uvarint(buf, pos - 1)
                if (yield SaxEvent(_ELEM_START, name[0], name[1], "",
                                   abs_id)):
                    pos += size  # skipped: the subtree is never decoded
                    yield SaxEvent(_ELEM_END, name[0], name[1])
                    continue
                stack.append((buf, pos + size, end, parent, name))
                end, parent = pos + size, abs_id
                continue
            size = buf[pos]
            pos += 1
            if size > 0x7F:
                size, pos = read_uvarint(buf, pos - 1)
            value = str(buf[pos:pos + size], "utf-8")
            pos += size
            if kind == _TEXT:
                yield SaxEvent(EventKind.TEXT, "", "", value, abs_id)
            else:
                yield SaxEvent(EventKind.ATTR, name[0], name[1], value,
                               abs_id)
            continue
        entry = fmt.parse_entry(buf, pos)
        pos = entry.next_pos
        if kind == _PROXY:
            if resolve is not None:
                stack.append((buf, pos, end, parent, None))
                buf = resolve(entry.rel_id)
                header, pos = fmt.decode_header(buf)
                end, parent = len(buf), header.context_id
            continue
        abs_id = parent + entry.rel_id
        if entry.kind == fmt.EntryKind.NAMESPACE:
            yield SaxEvent(EventKind.NS, local=entry.target,
                           value=names.uri(entry.uri_id), node_id=abs_id)
        elif entry.kind == fmt.EntryKind.COMMENT:
            yield SaxEvent(EventKind.COMMENT, value=entry.text,
                           node_id=abs_id)
        else:  # PI: parse_entry rejects unknown kinds
            yield SaxEvent(EventKind.PI, local=entry.target,
                           value=entry.text, node_id=abs_id)


class RecordScan(NamedTuple):
    """A stored span as a QuickXScan source: the packed-record driver.

    :meth:`drive` feeds a :class:`repro.xpath.quickxscan.ScanRun` a document
    start (node ID ``doc_id``), synthetic starts for the ``ancestors`` (name
    ids, root first; never skipped), a tick per in-scope namespace, the
    entries of ``record[start:end]`` and the ancestors' ends.  It builds a
    node ID only for a node it descends into or the scan may match, and
    decodes text only when the scan can use it."""

    names: NameTable
    record: bytes
    start: int
    end: int
    parent: bytes
    resolve: Callable[[bytes], bytes] | None = None
    doc_id: bytes | None = None
    ancestors: Sequence[int] = ()
    namespaces: int = 0

    @classmethod
    def of_record(cls, record: bytes, names: NameTable) -> "RecordScan":
        """One record alone, as index key generation evaluates it: the
        header's ancestors and namespaces, proxies skipped."""
        header, body_start = fmt.decode_header(record)
        namespaces = sum(1 for _, uri_id in header.namespaces
                         if names.uri(uri_id))
        return cls(names, record, body_start, len(record), header.context_id,
                   ancestors=header.context_path, namespaces=namespaces)

    def drive(self, run) -> None:
        by_id = run.name_ids(self.names)
        elem_start, elem_end, text, attr, tick = \
            run.elem_start, run.elem_end, run.text, run.attr, run.tick
        collectors, text_test = run.collectors, run.text_test
        read_uvarint = codec.read_uvarint
        resolve = self.resolve
        run.doc_start(self.doc_id)
        for name_id in self.ancestors:
            local, candidates, _ = by_id[name_id]
            elem_start(local, candidates, None)
        for _ in range(self.namespaces):
            tick()
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
                tick()
        for _ in self.ancestors:
            elem_end()


class StoredDocument:
    """Read-side view of one stored document."""

    def __init__(self, store: "XmlStore", docid: int) -> None:
        self.store = store
        self.docid = docid

    def source(self, node_id: bytes | None = None) -> RecordScan:
        """The whole document, or the subtree at ``node_id`` under its
        replayed ancestors (what a NodeID-list plan re-evaluates, §3.1), as a
        QuickXScan source; the probe or descent is made now."""
        names, resolve = self.store.names, self._resolve_proxy
        if node_id is None:
            record = self._read(nodeid.ROOT_ID)
            header, body_start = fmt.decode_header(record)
            return RecordScan(names, record, body_start, len(record),
                              header.context_id, resolve, nodeid.ROOT_ID)
        record, pos, entry, parent, ancestors, _ = self._descend(node_id)
        return RecordScan(names, record, pos, entry.next_pos, parent, resolve,
                          ancestors=ancestors)

    def events(self) -> Iterator[SaxEvent]:
        """Document-order virtual SAX events for the whole document."""
        record = self._read(nodeid.ROOT_ID)
        header, body_start = fmt.decode_header(record)
        yield SaxEvent(EventKind.DOC_START, node_id=nodeid.ROOT_ID)
        yield from walk(record, body_start, len(record), header.context_id,
                        self.store.names, self._resolve_proxy)
        yield SaxEvent(EventKind.DOC_END)

    def node_events(self, node_id: bytes) -> Iterator[SaxEvent]:
        """Events for the subtree rooted at ``node_id``, from one descent
        (one NodeID-index probe) made now: a missing node raises here, not
        at the first event."""
        record, pos, entry, parent, _, _ = self._descend(node_id)
        return walk(record, pos, entry.next_pos, parent, self.store.names,
                    self._resolve_proxy)

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
