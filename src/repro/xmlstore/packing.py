"""Bottom-up streaming tree packer (§3.1-§3.2).

"Assuming the tree is too big for one record, we pack a subtree or a sequence
of subtrees into a separate record, in a bottom-up fashion.  A packed subtree
is represented using a proxy node in its containing record."  During tree
construction "no separate trees of in-memory format are built; rather,
tree-packed records are generated from the bottom up in a streaming fashion"
(§3.2).

Grouping is the paper's "simple size-based grouping method": a parent
accumulates completed child subtrees; once the pending run would exceed the
record-size limit it is spilled into its own record and replaced by a proxy.
Attributes and namespace declarations always stay inline with their element.

The packer consumes the parser's virtual SAX events as they are and numbers
each node as it packs it: every open container counts its namespace nodes,
attributes and children, and a node's Dewey ID is its container's ID plus
the relative ID of its ordinal.  So each node is one event from parser to
record, with no ID-assigning pass in between.  Records are emitted
bottom-up; :meth:`TreePacker.finish` sorts them by ``minNodeID`` so that
physical placement follows the ``(DocID, minNodeID)`` clustering order.  As
it emits a record the packer also notes the record's node-ID intervals — the
NodeID index keys of §3.1 — so the insert path never decodes a record it has
just built.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.errors import PackingError
from repro.xdm import nodeid
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import NameTable
from repro.xmlstore import format as fmt


class PackedRecord(NamedTuple):
    """One emitted record and the NodeID-index keys it needs.

    ``intervals`` are the ``(low, high)`` node-ID runs of the record in
    document order, exactly :func:`fmt.record_intervals` of ``data``, noted
    while packing so no caller decodes a record it has just built (the
    insert path and :mod:`repro.cc.mvcc` index them as they come).
    ``min_node_id`` is the low end of the first run, the record's
    clustering key.
    """

    min_node_id: bytes
    data: bytes
    intervals: list[tuple[bytes, bytes]]


class _OpenContainer:
    """State for one open element (or the document node).

    Node-ID runs are ``[low, high]`` lists: ``pending_runs`` covers the
    pending entries in document order, and ``pending_open`` says whether
    the last of them ends with a node (a following node extends that run)
    rather than with a proxy (which ends it).
    """

    __slots__ = ("abs_id", "rel_id", "name_id", "scope", "ordinal", "inline",
                 "last", "done", "pending", "pending_size", "pending_runs",
                 "pending_open", "no_flush")

    def __init__(self, abs_id: bytes, rel_id: bytes, name_id: int,
                 scope: dict[str, int], no_flush: bool = False) -> None:
        self.abs_id = abs_id
        self.rel_id = rel_id
        self.name_id = name_id
        self.scope = scope                      # prefix -> uri id, in scope
        self.ordinal = 0                        # last child ordinal given
        self.inline: list[bytes] = []           # NS + attribute entries
        self.last = abs_id                      # last of self + inline nodes
        self.done: list[bytes] = []             # proxies from earlier flushes
        self.pending: list[bytes] = []          # unflushed child entries
        self.pending_size = 0
        self.pending_runs: list[list[bytes]] = []
        self.pending_open = False
        #: The document container never flushes: the root record must hold
        #: the top of the tree so the (DocID, 00) probe finds it (§3.4).
        self.no_flush = no_flush


class TreePacker:
    """Packs one document's event stream into records.

    Args:
        docid: Document ID stored in every record header.
        names: Database-wide name table (names are interned during packing).
        record_limit: Size-based grouping threshold in bytes (the packing
            factor knob of experiments E1-E3).
    """

    def __init__(self, docid: int, names: NameTable, record_limit: int) -> None:
        if record_limit < 16:
            raise PackingError(f"record limit {record_limit} is too small")
        self.docid = docid
        self.names = names
        self.record_limit = record_limit
        self.records: list[PackedRecord] = []
        self.node_count = 0
        self._stack: list[_OpenContainer] = []
        self._path: list[int] = []  # element name ids from the root down
        self._finished = False

    # -- event feed ----------------------------------------------------------

    def feed(self, events: Iterable[SaxEvent]) -> "TreePacker":
        """Consume a full event stream."""
        for event in events:
            self.push(event)
        return self

    def push(self, event: SaxEvent) -> None:
        """Consume one event.

        Every node event takes the next child ordinal of the open
        container, so namespace nodes, attributes and children share one
        sequence in arrival order (the rule of
        :func:`repro.xdm.events.assign_node_ids`); a node ID already on the
        event is ignored.
        """
        kind = event.kind
        if kind is EventKind.ELEM_END:
            self._close_element()
            return
        if kind is EventKind.DOC_START:
            if self._stack:
                raise PackingError("document start inside a document")
            self._stack.append(_OpenContainer(nodeid.ROOT_ID, b"", 0,
                                              {"": 0}, no_flush=True))
            return
        if kind is EventKind.DOC_END:
            self._close_document()
            return
        top = self._top()
        top.ordinal += 1
        rel_id = nodeid.relative_from_ordinal(top.ordinal)
        node_id = top.abs_id + rel_id
        self.node_count += 1
        if kind is EventKind.ELEM_START:
            name_id = self.names.intern_name(event.local, event.uri)
            self._stack.append(_OpenContainer(node_id, rel_id, name_id,
                                              dict(top.scope)))
            self._path.append(name_id)
        elif kind is EventKind.NS:
            uri_id = self.names.intern_uri(event.value)
            top.scope[event.local] = uri_id
            top.inline.append(fmt.encode_namespace(rel_id, event.local, uri_id))
            top.last = node_id
        elif kind is EventKind.ATTR:
            name_id = self.names.intern_name(event.local, event.uri)
            top.inline.append(fmt.encode_attribute(rel_id, name_id, event.value))
            top.last = node_id
        else:
            if kind is EventKind.TEXT:
                chunk = fmt.encode_text(rel_id, event.value)
            elif kind is EventKind.COMMENT:
                chunk = fmt.encode_comment(rel_id, event.value)
            elif kind is EventKind.PI:
                chunk = fmt.encode_pi(rel_id, event.local, event.value)
            else:  # pragma: no cover - exhaustive
                raise PackingError(f"unexpected event kind {kind}")
            self._add_child(top, chunk, [[node_id, node_id]], True)

    def finish(self) -> list[PackedRecord]:
        """Return all records, sorted by minNodeID (clustering order)."""
        if not self._finished:
            raise PackingError("event stream did not close the document")
        return sorted(self.records)

    # -- internals --------------------------------------------------------------

    def _top(self) -> _OpenContainer:
        if not self._stack:
            raise PackingError("event outside a document")
        return self._stack[-1]

    def _add_child(self, parent: _OpenContainer, chunk: bytes,
                   runs: list[list[bytes]], open_end: bool) -> None:
        """Append a child subtree; ``runs`` are its node-ID runs (it starts
        with a node) and ``open_end`` whether it also ends with one."""
        if not parent.no_flush and parent.pending and \
                parent.pending_size + len(chunk) > self.record_limit:
            self._flush_pending(parent)
        parent.pending.append(chunk)
        parent.pending_size += len(chunk)
        _extend_runs(parent.pending_runs, parent.pending_open, runs)
        parent.pending_open = open_end
        if not parent.no_flush and len(chunk) > self.record_limit:
            # A single oversized subtree gets its own record.
            self._flush_pending(parent)

    def _flush_pending(self, parent: _OpenContainer) -> None:
        if not parent.pending:
            return
        header = fmt.RecordHeader(
            docid=self.docid,
            context_id=parent.abs_id,
            context_path=tuple(self._path_to(parent)),
            namespaces=tuple(sorted(parent.scope.items())),
        )
        self._emit(header, parent.pending, parent.pending_runs)
        parent.done.append(fmt.encode_proxy(parent.pending_runs[0][0]))
        parent.pending = []
        parent.pending_size = 0
        parent.pending_runs = []

    def _emit(self, header: fmt.RecordHeader, chunks: list[bytes],
              runs: list[list[bytes]]) -> None:
        out = bytearray()
        fmt.encode_header(out, header)
        for chunk in chunks:
            out.extend(chunk)
        self.records.append(PackedRecord(
            runs[0][0], bytes(out), [(low, high) for low, high in runs]))

    def _path_to(self, container: _OpenContainer) -> list[int]:
        # self._path covers every open element; the container is either the
        # document (path []) or an open element at some depth.
        for depth, open_elem in enumerate(self._stack):
            if open_elem is container:
                return self._path[:depth]  # document is stack[0] with no name
        raise PackingError("container is not open")  # pragma: no cover

    def _close_element(self) -> None:
        if len(self._stack) < 2:
            raise PackingError("element end without matching start")
        elem = self._stack.pop()
        self._path.pop()
        entries = elem.inline + elem.done + elem.pending
        content = b"".join(entries)
        chunk = fmt.encode_element(elem.rel_id, elem.name_id,
                                   len(entries), content)
        # The element and its inline nodes, then any proxies, then the
        # pending children.
        runs = [[elem.abs_id, elem.last]]
        _extend_runs(runs, not elem.done, elem.pending_runs)
        open_end = elem.pending_open if elem.pending else not elem.done
        self._add_child(self._stack[-1], chunk, runs, open_end)

    def _close_document(self) -> None:
        if len(self._stack) != 1:
            raise PackingError("document end with open elements")
        doc = self._stack.pop()
        if not doc.pending:
            raise PackingError("empty document")
        # The root record: context is the (implicit) document node.
        # The document never flushes, so it has no proxies of its own.
        header = fmt.RecordHeader(self.docid, nodeid.ROOT_ID, (), ())
        self._emit(header, doc.pending, doc.pending_runs)
        self._finished = True


def _extend_runs(runs: list[list[bytes]], open_end: bool,
                 more: list[list[bytes]]) -> None:
    """Append ``more`` to ``runs``, joining the first of ``more`` onto the
    last of ``runs`` when ``open_end`` says no proxy lies between them."""
    if open_end and runs and more:
        runs[-1][1] = more[0][1]
        runs.extend(more[1:])
    else:
        runs.extend(more)
