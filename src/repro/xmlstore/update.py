"""Subdocument updates (§3.1's update analysis, §5.2's workload).

LOB storage would force whole-document rewrites; the native format supports
node-level updates by *splicing* the one record that holds the target node.
The read path's descent (:meth:`StoredDocument._descend`) locates the target
entry and the in-record element entries above it; the entry's byte span is
replaced, and only those enclosing element headers are rewritten, innermost
first: the content length of each, and the entry count of the nearest.  The
record is then swapped in place, repointing NodeID-index entries if it moves.
Only ``p·n`` bytes — one record — are touched, which is exactly the
update-cost term of the §3.1 analysis that experiment E3 measures.

New sibling IDs come from :func:`repro.xdm.nodeid.between`, so existing node
IDs never change ("stable upon update of the tree").
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import PackingError, XmlError
from repro.rdb.tablespace import Rid
from repro.xdm import nodeid
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import NameTable
from repro.xdm.parser import MAX_DEPTH
from repro.xmlstore import format as fmt
from repro.xmlstore.store import XmlStore
from repro.xmlstore.traversal import EventSink, RecordScan


class XmlUpdater:
    """Node-level update operations on one XmlStore."""

    def __init__(self, store: XmlStore) -> None:
        self.store = store

    # -- splicing ----------------------------------------------------------------

    def _locate(self, docid: int, node_id: bytes
                ) -> tuple[Rid, bytes, int, fmt.Entry, bytes, list[int]]:
        """One NodeID-index probe and one descent into the record found.

        Returns ``(rid, record, entry_pos, entry, parent_abs, enclosing)``,
        ``enclosing`` being the positions of the in-record ancestor element
        entries, outermost first.
        """
        rid = self.store.node_index.probe(docid, node_id)
        if rid is None:
            raise XmlError(f"node {nodeid.format_id(node_id)} not found "
                           f"in DocID {docid}")
        record, pos, entry, parent, _names, enclosing = \
            self.store.document(docid)._descend(node_id, rid)
        return rid, record, pos, entry, parent, enclosing

    def _splice(self, docid: int, rid: Rid, record: bytes,
                enclosing: list[int], start: int, end: int, new: bytes,
                added: int) -> None:
        """Store ``record`` with ``record[start:end]`` replaced by ``new``.

        The element entries at ``enclosing`` hold the span.  Their headers
        are rewritten innermost first: each content length grows by the
        splice and by the headers already rewritten inside it, and the
        innermost entry count by ``added``.
        """
        out = bytearray(record)
        out[start:end] = new
        grown = len(new) - (end - start)
        for pos in reversed(enclosing):
            entry = fmt.parse_entry(record, pos)
            head = fmt.encode_element_header(
                entry.rel_id, entry.name_id, entry.entry_count + added,
                entry.content_end - entry.content_start + grown)
            grown += len(head) - (entry.content_start - pos)
            out[pos:entry.content_start] = head
            added = 0
        self.store.replace_record(docid, rid, bytes(out))

    # -- operations --------------------------------------------------------------

    def replace_text(self, docid: int, node_id: bytes, new_text: str) -> None:
        """Replace the content of a text node or the value of an attribute."""
        rid, record, pos, entry, _, enclosing = self._locate(docid, node_id)
        if entry.kind == fmt.EntryKind.TEXT:
            new = fmt.encode_text(entry.rel_id, new_text)
        elif entry.kind == fmt.EntryKind.ATTRIBUTE:
            new = fmt.encode_attribute(entry.rel_id, entry.name_id, new_text)
        elif entry.kind == fmt.EntryKind.COMMENT:
            new = fmt.encode_comment(entry.rel_id, new_text)
        elif entry.kind == fmt.EntryKind.PI:
            new = fmt.encode_pi(entry.rel_id, entry.target, new_text)
        else:
            raise XmlError("replace_text targets text/attribute/comment/PI nodes")
        self._splice(docid, rid, record, enclosing, pos, entry.next_pos, new, 0)

    def delete_node(self, docid: int, node_id: bytes) -> int:
        """Delete the subtree rooted at ``node_id``; returns nodes removed
        from the containing record's entry forest (proxied records cascade).
        """
        rid, record, pos, entry, parent, enclosing = \
            self._locate(docid, node_id)
        header, body_start = fmt.decode_header(record)
        emptied = pos == body_start and entry.next_pos == len(record)
        if emptied:  # the record goes, and its proxy in the context element
            proxy = self._find_proxy(docid, header.context_id, node_id)
        # Cascade: packed-out parts of the removed subtree are whole records.
        packed_out: list[Rid] = []

        def resolve(proxy_id: bytes) -> bytes:
            packed_rid = self.store.node_index.probe(docid, proxy_id)
            if packed_rid is None:
                raise PackingError(
                    f"dangling proxy {nodeid.format_id(proxy_id)}")
            packed_out.append(packed_rid)
            return self.store.read_record(packed_rid)

        RecordScan(self.store.names, record, pos, entry.next_pos, parent,
                   resolve).drive(EventSink(lambda _event: None))
        for packed_rid in packed_out:
            self.store.drop_record(docid, packed_rid)
        if emptied:
            self.store.drop_record(docid, rid)
            self._splice(docid, *proxy, b"", -1)
        else:
            self._splice(docid, rid, record, enclosing, pos, entry.next_pos,
                         b"", -1)
        return 1

    def _find_proxy(self, docid: int, context_id: bytes, first_id: bytes
                    ) -> tuple[Rid, bytes, list[int], int, int]:
        """The proxy for the record whose first node is ``first_id``, among
        the children of its context element: ``(rid, record, enclosing,
        start, end)``, ready for :meth:`_splice`."""
        rid, record, pos, entry, _, enclosing = self._locate(docid, context_id)
        start = entry.content_start
        while start < entry.content_end:
            child = fmt.parse_entry(record, start)
            if child.kind == fmt.EntryKind.PROXY and child.rel_id == first_id:
                return rid, record, enclosing + [pos], start, child.next_pos
            start = child.next_pos
        raise PackingError("proxy entry not found in parent record")

    def insert_subtree(self, docid: int, parent_id: bytes,
                       events: Iterable[SaxEvent],
                       before: bytes | None = None,
                       after: bytes | None = None) -> bytes:
        """Insert a new child subtree under ``parent_id``.

        ``events`` is an undecorated fragment stream (one top-level node).
        Position: before/after a given sibling ID, or appended at the end.
        Returns the new node's absolute ID.  Raises :class:`XmlError`
        before anything is spliced if an element would land deeper than
        the parser's ``MAX_DEPTH``: the stored document must stay
        parseable.
        """
        if before is not None and after is not None:
            raise XmlError("give at most one of before/after")
        siblings = self.child_ids(docid, parent_id)
        if before is not None:
            pos = siblings.index(before)
            left = siblings[pos - 1] if pos > 0 else None
            right = before
        elif after is not None:
            pos = siblings.index(after)
            left = after
            right = siblings[pos + 1] if pos + 1 < len(siblings) else None
        else:
            left = siblings[-1] if siblings else None
            right = None
        new_id = nodeid.between(left, right, parent_id)

        # The new entry goes next to the neighbour entry, in whichever record
        # holds it, or at the end of the parent's content when the parent has
        # no children yet.
        anchor = right if right is not None else left
        if anchor is not None:
            rid, record, pos, entry, parent, enclosing = \
                self._locate(docid, anchor)
            if parent != parent_id:  # pragma: no cover - defensive
                raise PackingError("anchor sibling has unexpected parent")
            at = pos if right is not None else entry.next_pos
        else:
            rid, record, pos, entry, _, enclosing = \
                self._locate(docid, parent_id)
            enclosing = enclosing + [pos]
            at = entry.content_end
        chunk = _encode_fragment(events, new_id, parent_id, self.store.names)
        self._splice(docid, rid, record, enclosing, at, at, chunk, 1)
        return new_id

    def child_ids(self, docid: int, parent_id: bytes) -> list[bytes]:
        """Absolute IDs of every child-level node of ``parent_id``.

        Includes attribute and namespace nodes — they share the per-level
        ordinal space, so sibling-ID arithmetic must see them.  One drive
        over the parent's content, into a sink that skips each child
        element's subtree, follows proxies through the NodeID index.
        """
        reader = self.store.document(docid)
        if parent_id == nodeid.ROOT_ID:
            scan = reader.source()
        else:
            _rid, record, _pos, entry, _, _ = self._locate(docid, parent_id)
            scan = RecordScan(self.store.names, record, entry.content_start,
                              entry.content_end, parent_id,
                              reader._resolve_proxy)
        events: list[SaxEvent] = []
        scan.drive(EventSink(events.append, skip=True))
        return [event.node_id for event in events  # type: ignore[misc]
                if event.kind is not EventKind.ELEM_END]


def _encode_fragment(events: Iterable[SaxEvent], root_id: bytes,
                     parent_id: bytes, names: NameTable) -> bytes:
    """Encode a fragment event stream as the one entry rooted at ``root_id``."""
    max_stack = MAX_DEPTH - nodeid.depth(parent_id) + 1
    # Open elements, innermost last, each [rel_id, name_id, encoded
    # children, next child ordinal]; the first frame is the fragment's
    # parent, whose children are the fragment's top-level nodes.
    stack: list[list] = [[b"", 0, [], 1]]
    rel: bytes | None = root_id[len(parent_id):]
    for event in events:
        kind = event.kind
        if kind is EventKind.ELEM_END:
            if len(stack) == 1:
                raise XmlError("unbalanced fragment stream")
            rel_id, name_id, chunks, _ = stack.pop()
            stack[-1][2].append(fmt.encode_element(
                rel_id, name_id, len(chunks), b"".join(chunks)))
            continue
        if kind is EventKind.DOC_START or kind is EventKind.DOC_END:
            continue
        frame = stack[-1]
        if rel is None:
            rel = nodeid.relative_from_ordinal(frame[3])
        frame[3] += 1
        if kind is EventKind.ELEM_START:
            if len(stack) >= max_stack:
                raise XmlError(f"insert would nest elements deeper than "
                               f"{MAX_DEPTH} levels")
            name_id = names.intern_name(event.local, event.uri)
            stack.append([rel, name_id, [], 1])
        elif kind is EventKind.ATTR:
            name_id = names.intern_name(event.local, event.uri)
            frame[2].append(fmt.encode_attribute(rel, name_id, event.value))
        elif kind is EventKind.NS:
            uri_id = names.intern_uri(event.value)
            frame[2].append(fmt.encode_namespace(rel, event.local, uri_id))
        elif kind is EventKind.TEXT:
            frame[2].append(fmt.encode_text(rel, event.value))
        elif kind is EventKind.COMMENT:
            frame[2].append(fmt.encode_comment(rel, event.value))
        else:
            frame[2].append(fmt.encode_pi(rel, event.local, event.value))
        rel = None
    if len(stack) != 1:
        raise XmlError("unterminated fragment stream")
    top_level = stack[0][2]
    if len(top_level) != 1:
        raise XmlError(f"fragment must have exactly one top-level node, "
                       f"got {len(top_level)}")
    return top_level[0]
