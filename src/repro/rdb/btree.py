"""Page-based B+tree with variable-length byte keys.

This is the index-manager infrastructure of Fig. 1.  Exactly as in the paper,
one mechanism backs relational indexes, the DocID index, the NodeID index and
the XPath value indexes: the only extension the XML services need is allowing
*zero, one or more* entries per data record (§3.3), which falls out naturally
because the tree stores arbitrary ``(key, value)`` pairs with duplicates.

Entries are totally ordered by the composite ``(key, value)``; internal-node
separators carry the full composite so duplicate keys that span node splits
still scan in order.  Deletion is by simple removal without rebalancing
(underfull nodes persist until the index is rebuilt) — a common industrial
simplification; lookups and scans are unaffected.

Nodes are read and updated **in place** on their buffer-pool frame; nothing
about a page is kept outside it.  Node page layout (little-endian)::

    0       u8   kind          0 = leaf, 1 = internal
    1       --   pad
    2..4    u16  used          bytes of live cells (what ``order_bytes`` budgets)
    4..8    u32  link          leaf: next leaf's page id + 1 (0 = none)
                               internal: leftmost child's page id
    8..10   u16  slot_count    } the slot-directory header of rdb.pages
    10..12  u16  free_end      } (cells are packed down from the page tail)
    12..    u16  cell offsets, in (key, value) order
    ...     free space
    ...     cells: uvarint len + key, uvarint len + value
            (internal nodes: + u32 page id of the child right of the separator)

A visit is one pin and a binary search that slices only the probed keys out
of the frame; an insert writes one cell and shifts the directory; a delete
closes the directory gap and leaves the cell's bytes dead until the node is
next compacted (when an insert finds enough total but not enough contiguous
room) or emptied.  A node splits when its cells would exceed ``order_bytes``
(or the page itself), at the byte midpoint.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import DuplicateKeyError, IndexError_, StorageError
from repro.rdb import codec
from repro.rdb.buffer import BufferPool
from repro.rdb.pages import (DIRECTORY_HEADER, MAX_PAGE_SIZE, OFFSET,
                             check_directory)

_LEAF = 0
_INTERNAL = 1

Entry = tuple[bytes, bytes]

#: kind, used, link, then the shared ``(slot_count, free_end)`` directory header.
_HEADER = struct.Struct("<BxHI" + DIRECTORY_HEADER.format.lstrip("<"))
_HDR = _HEADER.size
_SLOT = OFFSET.size
_CHILD = struct.Struct("<I")
#: Bytes a node is charged before its first cell.  The packed format this
#: layout replaced spent them on its header; keeping the charge keeps every
#: split where it was, and with it the page counts of every index.
_NODE_CHARGE = 6

_header = _HEADER.unpack_from
_offset = OFFSET.unpack_from
_offsets = struct.unpack_from


def _open(data: bytearray, page_id: int) -> tuple[int, int, int, int, int]:
    """``(kind, used, link, count, free_end)`` of a node, header checked."""
    kind, used, link, count, free_end = _header(data, 0)
    size = len(data)
    try:
        check_directory(count, free_end, _HDR, _SLOT, size)
    except StorageError as exc:
        raise IndexError_(f"corrupt index node {page_id}: {exc}") from None
    if kind > _INTERNAL or used > size - free_end:
        raise IndexError_(
            f"corrupt index node {page_id}: kind={kind}, {used} cell bytes "
            f"in a {size - free_end}-byte cell area")
    return kind, used, link, count, free_end


def _uvarint(data: bytearray, pos: int) -> tuple[int, int]:
    """Multi-byte length prefix at ``pos`` (the one-byte case is inlined)."""
    try:
        return codec.read_uvarint(data, pos)
    except IndexError:
        raise IndexError_(
            "corrupt index node: length prefix runs off the page") from None


def _stray(off: int, free_end: int, size: int) -> IndexError_:
    return IndexError_(f"corrupt index node: cell offset {off} outside the "
                       f"cell area [{free_end}, {size})")


def _cell_at(data: bytearray, off: int, free_end: int
             ) -> tuple[int, int, int, int]:
    """``(key_start, key_end, value_start, value_end)`` of the cell at ``off``.

    Every offset is checked before it is dereferenced: a slot or length
    damaged after checksum verification raises :class:`IndexError_`.
    """
    size = len(data)
    if not free_end <= off < size:
        raise _stray(off, free_end, size)
    klen = data[off]
    key_start = off + 1
    if klen > 0x7F:
        klen, key_start = _uvarint(data, off)
    key_end = key_start + klen
    if key_end >= size:
        raise IndexError_("corrupt index node: key runs off the page")
    vlen = data[key_end]
    value_start = key_end + 1
    if vlen > 0x7F:
        vlen, value_start = _uvarint(data, key_end)
    value_end = value_start + vlen
    if value_end > size:
        raise IndexError_("corrupt index node: value runs off the page")
    return key_start, key_end, value_start, value_end


def _bisect(data: bytearray, count: int, free_end: int, key: bytes,
            value: bytes | None, upper: bool) -> int:
    """Binary search of a node's slot directory, slicing only probed keys.

    Returns the first slot whose cell is ``>= (key, value)``, or with
    ``upper`` the first that is ``> (key, value)``.  ``value=None`` compares
    keys alone: the first slot with key ``>= key`` (``> key`` with
    ``upper``).  The cell decoding of :func:`_cell_at` is repeated inline
    here and in :func:`_entries`: these two loops are every probe and every
    scanned entry, and a call per cell costs a quarter of each.
    """
    size = len(data)
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) >> 1
        off = _offset(data, _HDR + _SLOT * mid)[0]
        if not free_end <= off < size:
            raise _stray(off, free_end, size)
        klen = data[off]
        start = off + 1
        if klen > 0x7F:
            klen, start = _uvarint(data, off)
        end = start + klen
        if end >= size:
            raise IndexError_("corrupt index node: key runs off the page")
        probe = data[start:end]
        if probe != key:
            before = probe < key
        elif value is None:
            before = upper
        else:
            vlen = data[end]
            start = end + 1
            if vlen > 0x7F:
                vlen, start = _uvarint(data, end)
            probe = data[start:start + vlen]
            before = probe <= value if upper else probe < value
        if before:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _entries(data: bytearray, start: int, stop: int, free_end: int
             ) -> list[Entry]:
    """The ``(key, value)`` pairs of leaf slots ``[start, stop)``."""
    out = []
    if stop <= start:
        return out
    size = len(data)
    for off in _offsets(f"<{stop - start}H", data, _HDR + _SLOT * start):
        if not free_end <= off < size:
            raise _stray(off, free_end, size)
        klen = data[off]
        pos = off + 1
        if klen > 0x7F:
            klen, pos = _uvarint(data, off)
        end = pos + klen
        if end >= size:
            raise IndexError_("corrupt index node: key runs off the page")
        key = bytes(data[pos:end])
        vlen = data[end]
        pos = end + 1
        if vlen > 0x7F:
            vlen, pos = _uvarint(data, end)
        end = pos + vlen
        if end > size:
            raise IndexError_("corrupt index node: value runs off the page")
        out.append((key, bytes(data[pos:end])))
    return out


def _cells(data: bytearray, kind: int, count: int, free_end: int
           ) -> list[bytes]:
    """Every cell of a node as raw bytes, in slot order."""
    tail = _CHILD.size if kind == _INTERNAL else 0
    out = []
    for off in _offsets(f"<{count}H", data, _HDR):
        end = _cell_at(data, off, free_end)[3] + tail
        if end > len(data):
            raise IndexError_("corrupt index node: child runs off the page")
        out.append(bytes(data[off:end]))
    return out


def _child(data: bytearray, link: int, slot: int, free_end: int) -> int:
    """Page id of child ``slot`` (0 = leftmost) of an internal node."""
    if slot == 0:
        return link
    off = _offset(data, _HDR + _SLOT * (slot - 1))[0]
    end = _cell_at(data, off, free_end)[3]
    if end + _CHILD.size > len(data):
        raise IndexError_("corrupt index node: child runs off the page")
    return _CHILD.unpack_from(data, end)[0]


def _encode_entry(key: bytes, value: bytes) -> bytes:
    """A leaf cell: both byte strings behind their uvarint lengths."""
    if len(key) < 0x80 and len(value) < 0x80:
        return b"%c%b%c%b" % (len(key), key, len(value), value)
    out = bytearray()
    codec.write_bytes(out, key)
    codec.write_bytes(out, value)
    return bytes(out)


def _format(data: bytearray, kind: int, link: int, cells: list[bytes]) -> None:
    """Rewrite ``data`` as a node holding exactly ``cells``, compacted."""
    body = b"".join(cells)
    size = len(data)
    free_end = size - len(body)
    directory_end = _HDR + _SLOT * len(cells)
    if directory_end > free_end:
        raise IndexError_(
            f"index node overflows page ({directory_end + len(body)} > {size})")
    offsets = []
    off = free_end
    for cell in cells:
        offsets.append(off)
        off += len(cell)
    _HEADER.pack_into(data, 0, kind, len(body), link, len(cells), free_end)
    struct.pack_into(f"<{len(cells)}H", data, _HDR, *offsets)
    data[directory_end:free_end] = bytes(free_end - directory_end)
    data[free_end:] = body


def _put(data: bytearray, header: tuple[int, int, int, int, int], slot: int,
         cell: bytes) -> None:
    """Write ``cell`` into ``slot`` of a node known to have room for it."""
    kind, used, link, count, free_end = header
    directory_end = _HDR + _SLOT * count
    if free_end - directory_end < len(cell) + _SLOT:
        # Enough room in total but not between directory and cells: squeeze
        # out the cells that deletes left dead.
        _format(data, kind, link, _cells(data, kind, count, free_end))
        _, used, _, _, free_end = _header(data, 0)
    off = free_end - len(cell)
    data[off:free_end] = cell
    at = _HDR + _SLOT * slot
    data[at + _SLOT:directory_end + _SLOT] = data[at:directory_end]
    OFFSET.pack_into(data, at, off)
    _HEADER.pack_into(data, 0, kind, used + len(cell), link, count + 1, off)


def _split_point(cells: list[bytes], room: int, promote: bool) -> int:
    """Where to cut an overfull node's ``cells``: the byte midpoint, moved
    right as far as needed for both halves to fit ``room`` bytes of cells
    and slots.  With ``promote`` the cell at the cut moves up to the parent
    instead of heading the right half."""
    sizes = [len(cell) + _SLOT for cell in cells]
    total = sum(sizes)
    last = max(1, len(cells) - 2) if promote else len(cells) - 1
    mid, left = 1, sizes[0]
    while mid < last and 2 * (left + sizes[mid]) <= total:
        left += sizes[mid]
        mid += 1
    while mid < last and \
            total - left - (sizes[mid] if promote else 0) > room:
        left += sizes[mid]
        mid += 1
    right = total - left - (sizes[mid] if promote else 0)
    if left > room or right > room:
        raise IndexError_(
            f"index node cannot be split to fit ({left} + {right} bytes "
            f"into two {room}-byte nodes)")
    return mid


class BTree:
    """B+tree index over ``(key: bytes, value: bytes)`` pairs.

    Duplicate keys are allowed; entries are ordered by ``(key, value)``.
    ``unique=True`` rejects duplicate keys at insert, which is how the DocID
    and NodeID indexes enforce their invariants.
    """

    def __init__(self, pool: BufferPool, name: str = "ix", unique: bool = False,
                 order_bytes: int | None = None) -> None:
        if pool.page_size > MAX_PAGE_SIZE:
            raise IndexError_("index node pages support at most 65535 bytes")
        self.pool = pool
        self.name = name
        self.unique = unique
        self.order_bytes = order_bytes or max(pool.page_size - 512, 512)
        if self.order_bytes > pool.page_size - 16:
            self.order_bytes = pool.page_size - 16
        #: Cell bytes a node may hold before it splits.
        self._budget = self.order_bytes - _NODE_CHARGE
        #: Cell + slot bytes a page can physically hold.
        self._room = pool.page_size - _HDR
        #: Largest ``(key, value)`` encoding accepted.  Two separators of
        #: that size fit the budget and one fills at most half a page, which
        #: is what guarantees every overfull node has a cut where both
        #: halves fit.
        self.max_entry_bytes = min(self._budget // 2,
                                   self._room // 2 - _SLOT) - _CHILD.size
        if self.max_entry_bytes < 2:
            raise IndexError_(
                f"a {pool.page_size}-byte page with order_bytes="
                f"{self.order_bytes} is too small for an index node")
        self.stats = pool.stats
        self._page_count = 0
        self._height = 1
        self.entry_count = 0
        self.root_page = self._new_node(_LEAF, 0, [])

    # -- node allocation ------------------------------------------------------

    def _new_node(self, kind: int, link: int, cells: list[bytes]) -> int:
        page_id, data = self.pool.new_page()
        try:
            _format(data, kind, link, cells)
        finally:
            self.pool.unpin(page_id, dirty=True)
        self._page_count += 1
        return page_id

    # -- public API -----------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Pages ever allocated to this index."""
        return self._page_count

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert ``(key, value)``.

        Raises :class:`DuplicateKeyError` for a unique index when ``key`` is
        already present; duplicate ``(key, value)`` pairs are rejected always.
        An entry larger than :attr:`max_entry_bytes` raises
        :class:`IndexError_` before any page is touched.
        """
        with self.stats.trace("btree.insert", index=self.name):
            self.stats.add("btree.inserts")
            cell = _encode_entry(key, value)
            if len(cell) > self.max_entry_bytes:
                raise IndexError_(
                    f"entry of {len(cell)} bytes exceeds the "
                    f"{self.max_entry_bytes}-byte limit of index "
                    f"{self.name!r}")
            path: list[tuple[int, int]] = []
            page_id = self.root_page
            for _ in range(self._height - 1):
                slot, child = self._route(page_id, key, value)
                path.append((page_id, slot))
                page_id = child
            split = self._insert_leaf(page_id, key, value, cell, path)
            while split is not None and path:
                page_id, slot = path.pop()
                entry, right = split
                split = self._insert_cell(page_id, slot,
                                          entry + _CHILD.pack(right))
            if split is not None:
                entry, right = split
                self.root_page = self._new_node(
                    _INTERNAL, self.root_page, [entry + _CHILD.pack(right)])
                self._height += 1
            self.entry_count += 1

    def delete(self, key: bytes, value: bytes | None = None) -> bool:
        """Delete one entry.

        With ``value`` given, removes that exact pair; otherwise removes the
        first entry with ``key``.  Returns whether an entry was removed.
        """
        with self.stats.trace("btree.delete", index=self.name):
            self.stats.add("btree.deletes")
            page_id: int | None = self._leaf_for(key, value)
            while page_id is not None:
                removed, page_id = self._delete_in_leaf(page_id, key, value)
                if removed:
                    self.entry_count -= 1
                    return True
            return False

    def search(self, key: bytes) -> list[bytes]:
        """All values stored under exactly ``key``."""
        with self.stats.trace("btree.search", index=self.name) as span:
            out: list[bytes] = []
            page_id: int | None = self._leaf_for(key)
            while page_id is not None:
                entries, page_id = self._leaf_range(page_id, key, key,
                                                    True, True)
                out.extend(value for _, value in entries)
            self._charge_search(len(out))
            if span is not None:
                span.set("hits", len(out))
            return out

    def search_one(self, key: bytes) -> bytes | None:
        """First value under ``key`` or None (for unique indexes)."""
        with self.stats.trace("btree.search", index=self.name):
            entry = self._first_from(key)
            if entry is not None and entry[0] != key:
                entry = None
            self._charge_search(int(entry is not None))
            return None if entry is None else entry[1]

    def seek_ge(self, key: bytes) -> Entry | None:
        """Smallest entry with key ≥ ``key`` (the NodeID-index probe, §3.4)."""
        with self.stats.trace("btree.search", index=self.name):
            entry = self._first_from(key)
            self._charge_search(int(entry is not None))
            return entry

    def scan(self, low: bytes | None = None, high: bytes | None = None,
             low_inclusive: bool = True,
             high_inclusive: bool = False) -> Iterator[Entry]:
        """Ordered range scan of ``(key, value)`` pairs.

        Each leaf's qualifying entries are sliced out under one pin and
        yielded after it is released.  ``btree.entries_scanned`` is charged
        per leaf, and for a leaf the consumer abandons midway, when the
        generator is closed — always with what was actually yielded.
        """
        uncharged = 0
        try:
            page_id: int | None = self._leaf_for(
                low if low is not None else b"")
            while page_id is not None:
                entries, page_id = self._leaf_range(
                    page_id, low, high, low_inclusive, high_inclusive)
                for entry in entries:
                    uncharged += 1
                    yield entry
                if uncharged:
                    self.stats.add("btree.entries_scanned", uncharged)
                    uncharged = 0
        finally:
            if uncharged:
                self.stats.add("btree.entries_scanned", uncharged)

    def scan_prefix(self, prefix: bytes) -> Iterator[Entry]:
        """All entries whose key starts with ``prefix``, in order: one
        range scan bounded above by the prefix's successor, so no entry
        past the prefix is decoded or charged."""
        high = prefix.rstrip(b"\xff")
        if high:
            high = high[:-1] + bytes((high[-1] + 1,))
        yield from self.scan(low=prefix, high=high or None)

    def height(self) -> int:
        """Levels from root to leaf (1 for a single-leaf tree)."""
        return self._height

    def __len__(self) -> int:
        return self.entry_count

    # -- node visits (one pin each) -----------------------------------------

    def _route(self, page_id: int, key: bytes, value: bytes | None
               ) -> tuple[int, int]:
        """``(slot, child page)`` an internal node sends ``(key, value)`` to.

        With a value the entry's own position (the child it lives in);
        without, the leftmost child that can hold ``key`` at all.
        """
        data = self.pool.fetch(page_id)
        try:
            kind, _, link, count, free_end = _open(data, page_id)
            if kind != _INTERNAL:
                raise IndexError_(f"corrupt index {self.name!r}: page "
                                  f"{page_id} is a leaf above leaf level")
            slot = _bisect(data, count, free_end, key, value,
                           value is not None)
            return slot, _child(data, link, slot, free_end)
        finally:
            self.pool.unpin(page_id)

    def _leaf_for(self, key: bytes, value: bytes | None = None) -> int:
        page_id = self.root_page
        for _ in range(self._height - 1):
            page_id = self._route(page_id, key, value)[1]
        return page_id

    def _open_leaf(self, data: bytearray, page_id: int
                   ) -> tuple[int, int, int, int, int]:
        header = _open(data, page_id)
        if header[0] != _LEAF:
            raise IndexError_(f"corrupt index {self.name!r}: page {page_id} "
                              f"is an internal node at leaf level")
        return header

    def _insert_leaf(self, page_id: int, key: bytes, value: bytes,
                     cell: bytes, path: list[tuple[int, int]]
                     ) -> tuple[bytes, int] | None:
        dirty = False
        data = self.pool.fetch(page_id)
        try:
            header = self._open_leaf(data, page_id)
            _, used, link, count, free_end = header
            slot = _bisect(data, count, free_end, key, value, False)
            if self.unique:
                neighbours = _entries(data, max(slot - 1, 0),
                                      min(slot + 1, count), free_end)
                if any(k == key for k, _ in neighbours) or \
                        self._key_past_edge(key, slot, count, link, path):
                    raise DuplicateKeyError(
                        f"duplicate key in unique index {self.name!r}")
            elif _entries(data, slot, min(slot + 1, count),
                          free_end) == [(key, value)]:
                raise DuplicateKeyError(
                    f"duplicate entry in index {self.name!r}")
            if self._fits(used, count, len(cell)):
                _put(data, header, slot, cell)
                dirty = True
                return None
            cells = _cells(data, _LEAF, count, free_end)
        finally:
            self.pool.unpin(page_id, dirty)
        cells.insert(slot, cell)
        mid = _split_point(cells, self._room, promote=False)
        right = self._new_node(_LEAF, link, cells[mid:])
        self._rewrite(page_id, _LEAF, right + 1, cells[:mid])
        return cells[mid], right

    def _key_past_edge(self, key: bytes, slot: int, count: int, link: int,
                       path: list[tuple[int, int]]) -> bool:
        """Whether ``key`` is stored in another leaf than the one a unique
        insert landed in (at ``slot`` of its ``count`` cells).

        Separators are copies of entries and outlive their deletion, so
        ``(k, v1)`` can route left of a stale separator ``(k, v5)`` and
        ``(k, v9)`` right of it.  An equal key in another leaf is then the
        nearest entry past this leaf's edge, so only an edge slot needs
        the check.  Rightwards the leaf chain reaches it.  Leftwards there
        is no chain: the key can only be there if the separator bounding
        the leaf on the left has it, and only then is it looked up from
        the root.
        """
        if slot == count and link:
            entry = self._first_from(key, link - 1)
            if entry is not None and entry[0] == key:
                return True
        if slot == 0:
            for page_id, child in reversed(path):
                if child:
                    if self._separator_key(page_id, child - 1) != key:
                        return False
                    entry = self._first_from(key)
                    return entry is not None and entry[0] == key
        return False

    def _separator_key(self, page_id: int, slot: int) -> bytes:
        """Key of the separator in ``slot`` of an internal node."""
        data = self.pool.fetch(page_id)
        try:
            _, _, _, _, free_end = _open(data, page_id)
            off = _offset(data, _HDR + _SLOT * slot)[0]
            key_start, key_end, _, _ = _cell_at(data, off, free_end)
            return bytes(data[key_start:key_end])
        finally:
            self.pool.unpin(page_id)

    def _insert_cell(self, page_id: int, slot: int, cell: bytes
                     ) -> tuple[bytes, int] | None:
        """Add the separator ``cell`` at ``slot`` of an internal node."""
        dirty = False
        data = self.pool.fetch(page_id)
        try:
            header = _open(data, page_id)
            kind, used, link, count, free_end = header
            if self._fits(used, count, len(cell)):
                _put(data, header, slot, cell)
                dirty = True
                return None
            cells = _cells(data, kind, count, free_end)
        finally:
            self.pool.unpin(page_id, dirty)
        cells.insert(slot, cell)
        mid = _split_point(cells, self._room, promote=True)
        entry, child = cells[mid][:-_CHILD.size], cells[mid][-_CHILD.size:]
        right = self._new_node(_INTERNAL, _CHILD.unpack(child)[0],
                               cells[mid + 1:])
        self._rewrite(page_id, _INTERNAL, link, cells[:mid])
        return entry, right

    def _fits(self, used: int, count: int, cell_bytes: int) -> bool:
        used += cell_bytes
        return used <= self._budget and \
            used + _SLOT * (count + 1) <= self._room

    def _rewrite(self, page_id: int, kind: int, link: int,
                 cells: list[bytes]) -> None:
        data = self.pool.fetch(page_id)
        try:
            _format(data, kind, link, cells)
        finally:
            self.pool.unpin(page_id, dirty=True)

    def _delete_in_leaf(self, page_id: int, key: bytes, value: bytes | None
                        ) -> tuple[bool, int | None]:
        """``(removed, next leaf to try)``; no next leaf once the first
        entry at or after ``(key, value)`` has been seen."""
        dirty = False
        data = self.pool.fetch(page_id)
        try:
            kind, used, link, count, free_end = self._open_leaf(data, page_id)
            slot = _bisect(data, count, free_end, key, value, False)
            if slot == count:
                return False, link - 1 if link else None
            at = _HDR + _SLOT * slot
            off = _offset(data, at)[0]
            key_start, key_end, value_start, end = _cell_at(data, off, free_end)
            if data[key_start:key_end] != key or (
                    value is not None and data[value_start:end] != value):
                return False, None
            directory_end = _HDR + _SLOT * count
            data[at:directory_end - _SLOT] = data[at + _SLOT:directory_end]
            if count == 1:
                free_end = len(data)
            elif off == free_end:
                free_end = end
            _HEADER.pack_into(data, 0, kind, used - (end - off), link,
                              count - 1, free_end)
            dirty = True
            return True, None
        finally:
            self.pool.unpin(page_id, dirty)

    def _leaf_range(self, page_id: int, low: bytes | None, high: bytes | None,
                    low_inclusive: bool, high_inclusive: bool
                    ) -> tuple[list[Entry], int | None]:
        """A leaf's entries inside the bounds, and the next leaf to visit
        (None at the end of the chain or once ``high`` has been passed)."""
        data = self.pool.fetch(page_id)
        try:
            _, _, link, count, free_end = self._open_leaf(data, page_id)
            start = 0 if low is None else _bisect(
                data, count, free_end, low, None, not low_inclusive)
            stop = count if high is None else _bisect(
                data, count, free_end, high, None, high_inclusive)
            entries = _entries(data, start, stop, free_end)
        finally:
            self.pool.unpin(page_id)
        if stop < count or not link:
            return entries, None
        return entries, link - 1

    def _first_from(self, key: bytes, leaf: int | None = None
                    ) -> Entry | None:
        """Smallest entry with key ≥ ``key``, read straight off its leaf;
        from ``leaf`` onwards along the chain when given."""
        page_id: int | None = self._leaf_for(key) if leaf is None else leaf
        while page_id is not None:
            data = self.pool.fetch(page_id)
            try:
                _, _, link, count, free_end = self._open_leaf(data, page_id)
                slot = _bisect(data, count, free_end, key, None, False)
                if slot < count:
                    return _entries(data, slot, slot + 1, free_end)[0]
            finally:
                self.pool.unpin(page_id)
            page_id = link - 1 if link else None
        return None

    def _charge_search(self, found: int) -> None:
        self.stats.add("btree.searches")
        if found:
            self.stats.add("btree.entries_scanned", found)
        self.stats.observe("btree.search_entries", found)

    # -- integrity -----------------------------------------------------------

    def verify(self) -> None:
        """Structural check of every node page and of the tree they form.

        The page-level analogue of ``SlottedPage.validate``: headers sane,
        every offset inside the cell area, cells disjoint and accounted for
        by ``used``, slots in strict ``(key, value)`` order, separators
        bounding their children, all leaves on one level and chained in
        order, ``entry_count`` and ``page_count`` equal to what is
        reachable.  Raises :class:`IndexError_` on the first violation.
        """
        leaves: list[tuple[int, int]] = []
        visited: list[int] = []
        total = self._verify_node(self.root_page, None, None, 1, leaves,
                                  visited)
        if total != self.entry_count:
            raise self._broken(f"{total} entries on the leaves, entry_count "
                               f"says {self.entry_count}")
        if len(visited) != self._page_count:
            raise self._broken(f"{len(visited)} pages reachable, page_count "
                               f"says {self._page_count}")
        for (page_id, link), (successor, _) in zip(leaves, leaves[1:]):
            if link != successor + 1:
                raise self._broken(f"leaf {page_id} chains to page "
                                   f"{link - 1}, not to leaf {successor}")
        if leaves[-1][1]:
            raise self._broken(f"last leaf {leaves[-1][0]} chains on to "
                               f"page {leaves[-1][1] - 1}")

    def _broken(self, what: str) -> IndexError_:
        return IndexError_(f"index {self.name!r} fails verification: {what}")

    def _verify_node(self, page_id: int, low: Entry | None,
                     high: Entry | None, depth: int,
                     leaves: list[tuple[int, int]], visited: list[int]) -> int:
        """Check the subtree under ``page_id``, whose entries must lie in
        ``[low, high)``; returns how many entries its leaves hold."""
        visited.append(page_id)
        if len(visited) > self._page_count:
            raise self._broken("more pages reachable than were allocated "
                               "(a child pointer loops)")
        data = self.pool.fetch(page_id)
        try:
            kind, used, link, count, free_end = _open(data, page_id)
            tail = _CHILD.size if kind == _INTERNAL else 0
            spans = []
            cells: list[tuple[Entry, int]] = []
            for off in _offsets(f"<{count}H", data, _HDR):
                key_start, key_end, value_start, end = _cell_at(
                    data, off, free_end)
                if end + tail > len(data):
                    raise self._broken(f"page {page_id}: child pointer "
                                       f"runs off the page")
                spans.append((off, end + tail))
                cells.append(((bytes(data[key_start:key_end]),
                               bytes(data[value_start:end])),
                              _CHILD.unpack_from(data, end)[0] if tail else 0))
        finally:
            self.pool.unpin(page_id)
        spans.sort()
        if any(end > start for (_, end), (start, _) in zip(spans, spans[1:])):
            raise self._broken(f"page {page_id}: cells overlap")
        if sum(end - start for start, end in spans) != used:
            raise self._broken(f"page {page_id}: header counts {used} cell "
                               f"bytes, slots address another total")
        entries = [entry for entry, _ in cells]
        if any(a >= b for a, b in zip(entries, entries[1:])):
            raise self._broken(f"page {page_id}: slots out of order")
        if entries and ((low is not None and entries[0] < low) or
                        (high is not None and entries[-1] >= high)):
            raise self._broken(f"page {page_id}: entries outside the "
                               f"separators that lead to it")
        if (kind == _LEAF) != (depth == self._height):
            raise self._broken(f"page {page_id}: kind {kind} at depth "
                               f"{depth} of a height-{self._height} tree")
        if kind == _LEAF:
            leaves.append((page_id, link))
            return count
        children = [link] + [child for _, child in cells]
        bounds = [low] + entries + [high]
        return sum(self._verify_node(child, bounds[i], bounds[i + 1],
                                     depth + 1, leaves, visited)
                   for i, child in enumerate(children))
