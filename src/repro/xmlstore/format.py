"""Packed-record binary format (Fig. 3).

One stored record ("XMLData") holds a single subtree or a sequence of
subtrees sharing a common parent — the *context node*.  The record layout is

* a **record header** with "the context path information, including the
  absolute node ID, the path from the root (a list of name IDs), and
  in-scope namespaces for the context node" (§3.1), plus the DocID;
* a **node stream**: structure nesting represents parent-child relationships;
  each element entry carries its relative node ID, name ID, the number of
  nested entries, and its encoded subtree length "to support efficient tree
  traversal by using the firstChild and nextSibling operations";
* **proxy nodes** stand for packed-out subtrees and carry only the (absolute)
  node ID of the first packed node — no physical links between records.

All names are integers from the database-wide name table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PackingError
from repro.rdb import codec


class EntryKind:
    """Node-entry kind bytes in the packed stream."""

    ELEMENT = 1
    TEXT = 2
    ATTRIBUTE = 3
    NAMESPACE = 4
    COMMENT = 5
    PI = 6
    PROXY = 7


@dataclass(frozen=True)
class RecordHeader:
    """Decoded record header."""

    docid: int
    context_id: bytes              # absolute node ID of the context node
    context_path: tuple[int, ...]  # element name IDs from the root down
    namespaces: tuple[tuple[str, int], ...]  # in-scope (prefix, uri-id)


def encode_header(out: bytearray, header: RecordHeader) -> None:
    """Append the record header to ``out``."""
    codec.write_uvarint(out, header.docid)
    codec.write_bytes(out, header.context_id)
    codec.write_uvarint(out, len(header.context_path))
    for name_id in header.context_path:
        codec.write_uvarint(out, name_id)
    codec.write_uvarint(out, len(header.namespaces))
    for prefix, uri_id in header.namespaces:
        codec.write_str(out, prefix)
        codec.write_uvarint(out, uri_id)


def decode_header(buf: bytes | memoryview, pos: int = 0
                  ) -> tuple[RecordHeader, int]:
    """Read a record header; returns ``(header, node_stream_start)``."""
    docid, pos = codec.read_uvarint(buf, pos)
    context_id, pos = codec.read_bytes(buf, pos)
    n_path, pos = codec.read_uvarint(buf, pos)
    path = []
    for _ in range(n_path):
        name_id, pos = codec.read_uvarint(buf, pos)
        path.append(name_id)
    n_ns, pos = codec.read_uvarint(buf, pos)
    namespaces = []
    for _ in range(n_ns):
        prefix, pos = codec.read_str(buf, pos)
        uri_id, pos = codec.read_uvarint(buf, pos)
        namespaces.append((prefix, uri_id))
    return RecordHeader(docid, context_id, tuple(path), tuple(namespaces)), pos


# ---------------------------------------------------------------------------
# Entry encoders (bottom-up: children are already-encoded chunks)
# ---------------------------------------------------------------------------

def encode_element_header(rel_id: bytes, name_id: int, entry_count: int,
                          length: int) -> bytearray:
    """Encode an element entry up to its nested entries, which take
    ``length`` bytes (the subtree length)."""
    out = bytearray([EntryKind.ELEMENT])
    codec.write_bytes(out, rel_id)
    codec.write_uvarint(out, name_id)
    codec.write_uvarint(out, entry_count)
    codec.write_uvarint(out, length)
    return out


def encode_element(rel_id: bytes, name_id: int, entry_count: int,
                   content: bytes) -> bytes:
    """Encode an element entry wrapping already-encoded nested entries."""
    out = encode_element_header(rel_id, name_id, entry_count, len(content))
    out += content
    return bytes(out)


def encode_text(rel_id: bytes, text: str) -> bytes:
    out = bytearray([EntryKind.TEXT])
    codec.write_bytes(out, rel_id)
    codec.write_str(out, text)
    return bytes(out)


def encode_attribute(rel_id: bytes, name_id: int, value: str) -> bytes:
    out = bytearray([EntryKind.ATTRIBUTE])
    codec.write_bytes(out, rel_id)
    codec.write_uvarint(out, name_id)
    codec.write_str(out, value)
    return bytes(out)


def encode_namespace(rel_id: bytes, prefix: str, uri_id: int) -> bytes:
    out = bytearray([EntryKind.NAMESPACE])
    codec.write_bytes(out, rel_id)
    codec.write_str(out, prefix)
    codec.write_uvarint(out, uri_id)
    return bytes(out)


def encode_comment(rel_id: bytes, text: str) -> bytes:
    out = bytearray([EntryKind.COMMENT])
    codec.write_bytes(out, rel_id)
    codec.write_str(out, text)
    return bytes(out)


def encode_pi(rel_id: bytes, target: str, data: str) -> bytes:
    out = bytearray([EntryKind.PI])
    codec.write_bytes(out, rel_id)
    codec.write_str(out, target)
    codec.write_str(out, data)
    return bytes(out)


def encode_proxy(first_abs_id: bytes) -> bytes:
    """Encode a proxy for a packed-out record.

    The proxy stores the *absolute* node ID of the first node in the packed
    record; traversal finds the record's NodeID-index entry as the first at
    or after (DocID, this id) (§3.4).
    """
    out = bytearray([EntryKind.PROXY])
    codec.write_bytes(out, first_abs_id)
    return bytes(out)


# ---------------------------------------------------------------------------
# Entry decoding
# ---------------------------------------------------------------------------

class Entry:
    """One decoded node entry (children left as an encoded span).

    ``rel_id`` is the absolute ID for PROXY entries; ``name_id`` is set for
    ELEMENT/ATTRIBUTE, ``text`` for TEXT/COMMENT (the value for ATTRIBUTE,
    the data for PI), ``target`` for PI (the prefix for NAMESPACE), and
    ``uri_id`` for NAMESPACE.  An ELEMENT's nested entries (``entry_count``
    of them) span ``content_start:content_end``; ``next_pos`` is the
    position just past the entry (nextSibling).  A plain slotted class: the
    point-access descent decodes one per entry it passes.
    """

    __slots__ = ("kind", "rel_id", "name_id", "text", "target", "uri_id",
                 "entry_count", "content_start", "content_end", "next_pos")

    def __init__(self, kind: int, rel_id: bytes, name_id: int = 0,
                 text: str = "", target: str = "", uri_id: int = 0,
                 entry_count: int = 0, content_start: int = 0,
                 content_end: int = 0, next_pos: int = 0) -> None:
        self.kind = kind
        self.rel_id = rel_id
        self.name_id = name_id
        self.text = text
        self.target = target
        self.uri_id = uri_id
        self.entry_count = entry_count
        self.content_start = content_start
        self.content_end = content_end
        self.next_pos = next_pos


def parse_entry(buf: bytes | memoryview, pos: int) -> Entry:
    """Decode the entry at ``pos``.

    For elements the nested content is *not* decoded — ``content_start`` /
    ``content_end`` delimit it, giving O(1) firstChild and nextSibling
    (subtree skipping, §3.4).
    """
    kind = buf[pos]
    pos += 1
    if kind == EntryKind.ELEMENT:
        rel_id, pos = codec.read_bytes(buf, pos)
        name_id, pos = codec.read_uvarint(buf, pos)
        entry_count, pos = codec.read_uvarint(buf, pos)
        length, pos = codec.read_uvarint(buf, pos)
        return Entry(kind, rel_id, name_id=name_id, entry_count=entry_count,
                     content_start=pos, content_end=pos + length,
                     next_pos=pos + length)
    if kind == EntryKind.TEXT or kind == EntryKind.COMMENT:
        rel_id, pos = codec.read_bytes(buf, pos)
        text, pos = codec.read_str(buf, pos)
        return Entry(kind, rel_id, text=text, next_pos=pos)
    if kind == EntryKind.ATTRIBUTE:
        rel_id, pos = codec.read_bytes(buf, pos)
        name_id, pos = codec.read_uvarint(buf, pos)
        value, pos = codec.read_str(buf, pos)
        return Entry(kind, rel_id, name_id=name_id, text=value, next_pos=pos)
    if kind == EntryKind.NAMESPACE:
        rel_id, pos = codec.read_bytes(buf, pos)
        prefix, pos = codec.read_str(buf, pos)
        uri_id, pos = codec.read_uvarint(buf, pos)
        return Entry(kind, rel_id, target=prefix, uri_id=uri_id, next_pos=pos)
    if kind == EntryKind.PI:
        rel_id, pos = codec.read_bytes(buf, pos)
        target, pos = codec.read_str(buf, pos)
        data, pos = codec.read_str(buf, pos)
        return Entry(kind, rel_id, target=target, text=data, next_pos=pos)
    if kind == EntryKind.PROXY:
        abs_id, pos = codec.read_bytes(buf, pos)
        return Entry(kind, abs_id, next_pos=pos)
    raise PackingError(f"corrupt packed record (entry kind {kind})")


def record_intervals(record: bytes) -> list[tuple[bytes, bytes]]:
    """Contiguous document-order node-ID intervals stored in this record.

    "For each contiguous interval of node IDs for nodes within a record in
    document order, only one entry is in the node ID index, which is the
    upper end point" (§3.1).  A proxy interrupts a run (the packed-out nodes
    sort strictly between their neighbours); returns ``(low, high)`` pairs.
    One pre-order pass; an element's enclosing span waits on a stack.
    """
    header, pos = decode_header(record)
    end, parent = len(record), header.context_id
    stack: list[tuple[int, bytes]] = []
    intervals: list[tuple[bytes, bytes]] = []
    low = high = b""
    while True:
        if pos >= end:
            if pos != end:
                raise PackingError("packed record entries overrun their span")
            if not stack:
                break
            end, parent = stack.pop()
            continue
        entry = parse_entry(record, pos)
        if entry.kind == EntryKind.PROXY:
            if low:
                intervals.append((low, high))
                low = b""
            pos = entry.next_pos
            continue
        high = parent + entry.rel_id
        if not low:
            low = high
        if entry.kind == EntryKind.ELEMENT:
            stack.append((end, parent))
            pos, end, parent = entry.content_start, entry.content_end, high
        else:
            pos = entry.next_pos
    if low:
        intervals.append((low, high))
    return intervals
