"""Slotted pages: the record layout relational table spaces are built from.

Layout (all offsets little-endian u16)::

    0..2    slot_count
    2..4    free_end        start of the record data area (records grow down)
    4..6    live_bytes      sum of the live records' lengths   } the page's
    6..8    tombstones      number of slots with offset 0      } own tally
    8..     slot directory  one (offset, length) pair per slot
    ...     free space
    ...     record data     packed at the page tail

A slot with ``offset == 0`` is a tombstone and may be reused.  Records are
addressed as ``(page_id, slot_no)`` — the RID of the paper's Figure 3.

The tally is what any RDBMS page header keeps so that per-record work is
constant: free space and "is there a tombstone to reuse" are read from the
header, never by walking the directory.  Insert, delete and update keep it
current; compaction moves bytes but leaves it as it was; :meth:`validate`
checks it against a full directory scan.

The directory shape — a ``(slot_count, free_end)`` header, slots growing up
behind it, payloads packed down from the page tail, every offset a u16 — is
shared with the B+tree node page (:mod:`repro.rdb.btree`), which places the
same header behind its node prefix.  The tally is the slotted page's own and
is not part of that shared header.  The shared pieces are
:data:`DIRECTORY_HEADER`, :data:`OFFSET`, :data:`MAX_PAGE_SIZE` and
:func:`check_directory`.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import PageFullError, RecordNotFoundError, StorageError

#: ``(slot_count, free_end)`` — the prefix of every slot directory.
DIRECTORY_HEADER = struct.Struct("<HH")
#: One in-page offset.
OFFSET = struct.Struct("<H")
#: Largest page a u16 offset can address.
MAX_PAGE_SIZE = 0xFFFF

#: ``(live_bytes, tombstones)`` — the slotted page's tally, right behind the
#: directory header.
_TALLY = struct.Struct("<HH")
_TALLY_AT = DIRECTORY_HEADER.size
#: The whole slotted-page header: the directory header, then the tally.
_PAGE_HEADER = struct.Struct(
    "<" + DIRECTORY_HEADER.format.lstrip("<") + _TALLY.format.lstrip("<"))
_SLOT = struct.Struct("<HH")
HEADER_SIZE = _PAGE_HEADER.size
SLOT_SIZE = _SLOT.size


def check_directory(slot_count: int, free_end: int, directory_start: int,
                    slot_size: int, page_size: int) -> None:
    """Raise :class:`StorageError` unless the directory and the data area
    are disjoint and inside the page: ``directory_start + slot_size *
    slot_count <= free_end <= page_size``."""
    if not directory_start + slot_size * slot_count <= free_end <= page_size:
        raise StorageError(
            f"corrupt page header: free_end={free_end} with "
            f"{slot_count} slots on a {page_size}-byte page")


class SlottedPage:
    """Mutable view over one page's bytes with slot-directory bookkeeping."""

    def __init__(self, data: bytearray) -> None:
        if len(data) > MAX_PAGE_SIZE:
            raise StorageError("slotted pages support at most 65535 bytes")
        self.data = data
        self.page_size = len(data)

    @classmethod
    def format(cls, data: bytearray) -> "SlottedPage":
        """Initialise ``data`` as an empty slotted page (in place)."""
        page = cls(data)
        page._set_header(0, page.page_size, 0, 0)
        return page

    # -- header helpers ----------------------------------------------------

    def _header(self) -> tuple[int, int, int, int]:
        """``(slot_count, free_end, live_bytes, tombstones)``."""
        return _PAGE_HEADER.unpack_from(self.data, 0)

    def _set_header(self, slot_count: int, free_end: int, live: int,
                    tombstones: int) -> None:
        _PAGE_HEADER.pack_into(self.data, 0, slot_count, free_end, live,
                               tombstones)

    def _set_tally(self, live: int, tombstones: int) -> None:
        _TALLY.pack_into(self.data, _TALLY_AT, live, tombstones)

    def _slot(self, slot_no: int) -> tuple[int, int]:
        return _SLOT.unpack_from(self.data, HEADER_SIZE + SLOT_SIZE * slot_no)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, HEADER_SIZE + SLOT_SIZE * slot_no, offset, length)

    # -- space accounting (header reads only) --------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots in the directory (live + tombstoned)."""
        return self._header()[0]

    def contiguous_free(self) -> int:
        """Bytes available between the slot directory and the data area."""
        slot_count, free_end, _, _ = self._header()
        return free_end - (HEADER_SIZE + SLOT_SIZE * slot_count)

    def total_free(self) -> int:
        """Bytes that compaction could make available for one new record."""
        slot_count, _, live, _ = self._header()
        return self.page_size - HEADER_SIZE - SLOT_SIZE * slot_count - live

    def free_for_insert(self) -> int:
        """Upper bound on the largest record insertable (after compaction)."""
        slot_count, _, live, tombstones = self._header()
        return max(_insert_room(self.page_size, slot_count, live, tombstones), 0)

    def live_bytes(self) -> int:
        """Total bytes of live record payloads on this page."""
        return self._header()[2]

    # -- record operations ----------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert ``record``, returning its slot number.

        A tombstoned slot is reused before the directory grows.  Raises
        :class:`PageFullError` when the record cannot fit even after
        compaction.
        """
        if not record:
            raise StorageError("empty records are not supported")
        size = len(record)
        slot_count, free_end, live, tombstones = self._header()
        room = _insert_room(self.page_size, slot_count, live, tombstones)
        if size > room:
            raise PageFullError(
                f"record of {size} bytes does not fit ({max(room, 0)} free)")
        if tombstones:
            slot_no = self._find_tombstone(slot_count)
            tombstones -= 1
            new_count = slot_count
        else:
            slot_no, new_count = slot_count, slot_count + 1
        if free_end - (HEADER_SIZE + SLOT_SIZE * new_count) < size:
            self.compact()
            free_end = self._header()[1]
        offset = free_end - size
        self.data[offset:free_end] = record
        self._set_header(new_count, offset, live + size, tombstones)
        self._set_slot(slot_no, offset, size)
        return slot_no

    def read(self, slot_no: int) -> memoryview:
        """Return the record payload in slot ``slot_no``."""
        offset, length = self._checked_slot(slot_no)
        return memoryview(self.data)[offset:offset + length]

    def delete(self, slot_no: int) -> None:
        """Tombstone slot ``slot_no``; its space is reclaimed by compaction."""
        _, length = self._checked_slot(slot_no)
        self._set_slot(slot_no, 0, 0)
        _, _, live, tombstones = self._header()
        self._set_tally(live - length, tombstones + 1)

    def update(self, slot_no: int, record: bytes) -> None:
        """Replace the record in ``slot_no``, keeping the same RID.

        Shrinking updates are done in place; growing updates relocate the
        payload within the page and raise :class:`PageFullError` if there is
        no room (the caller then moves the record to another page).
        """
        offset, length = self._checked_slot(slot_no)
        size = len(record)
        slot_count, free_end, live, tombstones = self._header()
        if size <= length:
            self.data[offset:offset + size] = record
            self._set_slot(slot_no, offset, size)
            self._set_tally(live - length + size, tombstones)
            return
        # Grow: the old image's bytes count as free, since relocating the
        # record releases them.
        if size - length > self.total_free():
            raise PageFullError(
                f"updated record of {size} bytes does not fit")
        # Clear the slot first so compaction does not keep the old image.
        self._set_slot(slot_no, 0, 0)
        if free_end - (HEADER_SIZE + SLOT_SIZE * slot_count) < size:
            self.compact()
            free_end = self._header()[1]
        new_offset = free_end - size
        self.data[new_offset:free_end] = record
        self._set_header(slot_count, new_offset, live - length + size,
                         tombstones)
        self._set_slot(slot_no, new_offset, size)

    def records(self) -> Iterator[tuple[int, memoryview]]:
        """Yield ``(slot_no, payload)`` for every live record, slot order."""
        slot_count = self._header()[0]
        view = memoryview(self.data)
        for slot_no in range(slot_count):
            offset, length = self._slot(slot_no)
            if offset:
                yield slot_no, view[offset:offset + length]

    def compact(self) -> None:
        """Slide live records to the page tail, squeezing out dead space.

        Only bytes move: the tally is left as it was."""
        slot_count = self._header()[0]
        live = [(slot_no,) + self._slot(slot_no) for slot_no in range(slot_count)]
        write_end = self.page_size
        # Copy into a scratch area first; records may overlap their target.
        images = {
            slot_no: bytes(self.data[offset:offset + length])
            for slot_no, offset, length in live
            if offset
        }
        for slot_no, image in images.items():
            write_end -= len(image)
            self.data[write_end:write_end + len(image)] = image
            self._set_slot(slot_no, write_end, len(image))
        DIRECTORY_HEADER.pack_into(self.data, 0, slot_count, write_end)

    # -- integrity -----------------------------------------------------------

    def validate(self) -> None:
        """Structural integrity check of the header and slot directory.

        The disk layer's CRC catches corruption at rest; this catches a page
        whose bytes were damaged *after* checksum verification (or written
        through a fault hook) before the damage is dereferenced as offsets.
        The tally is checked against a full directory scan.  Raises
        :class:`StorageError` on any violated invariant.
        """
        slot_count, free_end, live, tombstones = self._header()
        check_directory(slot_count, free_end, HEADER_SIZE, SLOT_SIZE,
                        self.page_size)
        scanned_live = scanned_tombstones = 0
        for slot_no in range(slot_count):
            offset, length = self._slot(slot_no)
            if offset == 0:
                scanned_tombstones += 1
                continue
            if offset < free_end or offset + length > self.page_size:
                raise StorageError(
                    f"corrupt slot {slot_no}: [{offset}, {offset + length}) "
                    f"outside data area [{free_end}, {self.page_size})")
            if length == 0:
                raise StorageError(f"corrupt slot {slot_no}: zero length")
            scanned_live += length
        if (live, tombstones) != (scanned_live, scanned_tombstones):
            raise StorageError(
                f"corrupt page tally: header says {live} live bytes and "
                f"{tombstones} tombstones, the directory holds "
                f"{scanned_live} and {scanned_tombstones}")

    # -- internals -----------------------------------------------------------

    def _find_tombstone(self, slot_count: int) -> int:
        """The lowest tombstoned slot; only asked when the tally counts one."""
        for slot_no in range(slot_count):
            if self._slot(slot_no)[0] == 0:
                return slot_no
        raise StorageError("corrupt page tally: tombstones counted, none found")

    def _checked_slot(self, slot_no: int) -> tuple[int, int]:
        slot_count = self._header()[0]
        if not 0 <= slot_no < slot_count:
            raise RecordNotFoundError(f"slot {slot_no} does not exist")
        offset, length = self._slot(slot_no)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot_no} is deleted")
        return offset, length


def _insert_room(page_size: int, slot_count: int, live: int,
                 tombstones: int) -> int:
    """Largest record an insert could place after compaction (may be
    negative): everything not header, directory or live payload, less a new
    slot when no tombstone can be reused."""
    room = page_size - HEADER_SIZE - SLOT_SIZE * slot_count - live
    return room if tombstones else room - SLOT_SIZE
