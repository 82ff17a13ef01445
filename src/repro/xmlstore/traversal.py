"""The one reader of the packed record format (§3.2-§3.4).

"To traverse in document order a persistently stored XML document with a
given docid value, first the NodeID index is searched with (docid, 00) as the
key.  The root record can be identified.  The XMLData is then traversed.  If
a proxy node is encountered, its node ID is used to search the NodeID index
... Stacking has to be used during traversal."

:func:`walk` is that algorithm: an explicit stack (no recursion) over record
spans yielding virtual SAX events (Fig. 8's "persistent data" iterator).
Proxies are resolved through a callback (the NodeID index, for
:class:`StoredDocument`) or skipped when there is none — the per-record
evaluation index key generation runs (§3.2-§3.3), whose ancestors
:func:`in_context_events` replays from the record header.  Within a record,
element entries carry their subtree length, so locating a node by ID
(:meth:`StoredDocument.find_node`) skips every subtree that cannot contain
it in O(1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import DocumentNotFoundError, PackingError
from repro.xdm import nodeid
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import NameTable
from repro.xmlstore import format as fmt

if TYPE_CHECKING:  # pragma: no cover
    from repro.xmlstore.store import XmlStore


def walk(record: bytes, start: int, end: int, parent_abs: bytes,
         names: NameTable, resolve: Callable[[bytes], bytes] | None = None
         ) -> Iterator[SaxEvent]:
    """Document-order events for the entries in ``record[start:end]``.

    ``parent_abs`` is the absolute ID the entries' relative IDs extend.  A
    proxy is followed by reading the record ``resolve(proxy_id)`` returns,
    or skipped when ``resolve`` is ``None``.
    """
    # Work items: ("span", buf, pos, end, parent_abs) | ("end", local, uri)
    stack: list[tuple] = [("span", record, start, end, parent_abs)]
    while stack:
        item = stack.pop()
        if item[0] == "end":
            yield SaxEvent(EventKind.ELEM_END, local=item[1], uri=item[2])
            continue
        _, buf, pos, span_end, parent = item
        if pos >= span_end:
            continue
        entry = fmt.parse_entry(buf, pos)
        # Continuation of this span resumes after the current entry.
        if entry.next_pos < span_end:
            stack.append(("span", buf, entry.next_pos, span_end, parent))
        if entry.kind == fmt.EntryKind.PROXY:
            if resolve is not None:
                child_record = resolve(entry.rel_id)
                child_header, child_start = fmt.decode_header(child_record)
                stack.append(("span", child_record, child_start,
                              len(child_record), child_header.context_id))
            continue
        abs_id = parent + entry.rel_id
        if entry.kind == fmt.EntryKind.ELEMENT:
            local, uri = names.name(entry.name_id)
            yield SaxEvent(EventKind.ELEM_START, local=local, uri=uri,
                           node_id=abs_id)
            stack.append(("end", local, uri))
            stack.append(("span", buf, entry.content_start,
                          entry.content_end, abs_id))
        elif entry.kind == fmt.EntryKind.TEXT:
            yield SaxEvent(EventKind.TEXT, value=entry.text, node_id=abs_id)
        elif entry.kind == fmt.EntryKind.ATTRIBUTE:
            local, uri = names.name(entry.name_id)
            yield SaxEvent(EventKind.ATTR, local=local, uri=uri,
                           value=entry.text, node_id=abs_id)
        elif entry.kind == fmt.EntryKind.NAMESPACE:
            yield SaxEvent(EventKind.NS, local=entry.target,
                           value=names.uri(entry.uri_id), node_id=abs_id)
        elif entry.kind == fmt.EntryKind.COMMENT:
            yield SaxEvent(EventKind.COMMENT, value=entry.text,
                           node_id=abs_id)
        else:  # PI: parse_entry rejects unknown kinds
            yield SaxEvent(EventKind.PI, local=entry.target,
                           value=entry.text, node_id=abs_id)


def in_context_events(ancestors: list[tuple[str, str]],
                      body: Iterable[SaxEvent],
                      namespaces: Iterable[tuple[str, str]] = ()
                      ) -> Iterator[SaxEvent]:
    """``body`` as a document: under synthetic starts and ends of the
    ``(local, uri)`` ancestors, root first, with the ``(prefix, uri)``
    in-scope namespaces declared on the innermost one.  The synthetic
    events carry no node IDs (§3.1's self-containment property)."""
    yield SaxEvent(EventKind.DOC_START)
    for local, uri in ancestors:
        yield SaxEvent(EventKind.ELEM_START, local=local, uri=uri)
    for prefix, uri in namespaces:
        yield SaxEvent(EventKind.NS, local=prefix, value=uri)
    yield from body
    for local, uri in reversed(ancestors):
        yield SaxEvent(EventKind.ELEM_END, local=local, uri=uri)
    yield SaxEvent(EventKind.DOC_END)


class StoredDocument:
    """Read-side view of one stored document."""

    def __init__(self, store: "XmlStore", docid: int) -> None:
        self.store = store
        self.docid = docid

    def events(self) -> Iterator[SaxEvent]:
        """Document-order virtual SAX events for the whole document."""
        record = self._read(nodeid.ROOT_ID)
        header, body_start = fmt.decode_header(record)
        yield SaxEvent(EventKind.DOC_START, node_id=nodeid.ROOT_ID)
        yield from walk(record, body_start, len(record), header.context_id,
                        self.store.names, self._resolve_proxy)
        yield SaxEvent(EventKind.DOC_END)

    def node_events(self, node_id: bytes) -> Iterator[SaxEvent]:
        """Events for the subtree rooted at ``node_id``."""
        record, pos, entry, parent, _ = self._descend(node_id)
        yield from walk(record, pos, entry.next_pos, parent,
                        self.store.names, self._resolve_proxy)

    def find_node(self, node_id: bytes
                  ) -> tuple[bytes, fmt.Entry, bytes]:
        """Locate ``node_id``: returns ``(record, entry, parent_abs_id)``."""
        record, _, entry, parent, _ = self._descend(node_id)
        return record, entry, parent

    def ancestry(self, node_id: bytes) -> list[tuple[str, str]]:
        """Names of the ancestor elements of ``node_id``, root first.

        Served from one record fetch: the header's context path provides the
        out-of-record ancestors (the self-containment property, §3.1), and the
        descent collects the in-record ones.
        """
        return self._descend(node_id)[4]

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

    def _descend(self, node_id: bytes
                 ) -> tuple[bytes, int, fmt.Entry, bytes, list[tuple[str, str]]]:
        """Find ``node_id`` in its record by a subtree-skipping descent.

        Returns ``(record, entry_pos, entry, parent_abs_id, ancestors)``,
        the ancestors' ``(local, uri)`` names root first.
        """
        names = self.store.names
        record = self._read(node_id)
        header, pos = fmt.decode_header(record)
        end, parent = len(record), header.context_id
        ancestors = [names.name(name_id) for name_id in header.context_path]
        while pos < end:
            entry = fmt.parse_entry(record, pos)
            if entry.kind != fmt.EntryKind.PROXY:
                abs_id = parent + entry.rel_id
                if abs_id == node_id:
                    return record, pos, entry, parent, ancestors
                if entry.kind == fmt.EntryKind.ELEMENT and \
                        nodeid.is_ancestor(abs_id, node_id):
                    ancestors.append(names.name(entry.name_id))
                    pos, end, parent = (entry.content_start,
                                        entry.content_end, abs_id)
                    continue
            pos = entry.next_pos  # next-sibling skip: subtree skipped in O(1)
        if pos != end:
            raise PackingError("packed record entries overrun their span")
        raise DocumentNotFoundError(
            f"node {nodeid.format_id(node_id)} not present in its "
            f"record (DocID {self.docid})")
