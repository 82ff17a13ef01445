"""Slotted pages: the record layout relational table spaces are built from.

Layout (all offsets little-endian u16)::

    0..2    slot_count
    2..4    free_end        start of the record data area (records grow down)
    4..     slot directory  one (offset, length) pair per slot
    ...     free space
    ...     record data     packed at the page tail

A slot with ``offset == 0`` is a tombstone and may be reused.  Records are
addressed as ``(page_id, slot_no)`` — the RID of the paper's Figure 3.

The directory shape — a ``(slot_count, free_end)`` header, slots growing up
behind it, payloads packed down from the page tail, every offset a u16 — is
shared with the B+tree node page (:mod:`repro.rdb.btree`), which places the
same header behind its node prefix.  The shared pieces are
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

_SLOT = struct.Struct("<HH")
HEADER_SIZE = DIRECTORY_HEADER.size
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
        page._set_header(0, page.page_size)
        return page

    # -- header helpers ----------------------------------------------------

    def _header(self) -> tuple[int, int]:
        return DIRECTORY_HEADER.unpack_from(self.data, 0)

    def _set_header(self, slot_count: int, free_end: int) -> None:
        DIRECTORY_HEADER.pack_into(self.data, 0, slot_count, free_end)

    def _slot(self, slot_no: int) -> tuple[int, int]:
        return _SLOT.unpack_from(self.data, HEADER_SIZE + SLOT_SIZE * slot_no)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, HEADER_SIZE + SLOT_SIZE * slot_no, offset, length)

    # -- space accounting ---------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots in the directory (live + tombstoned)."""
        return self._header()[0]

    def contiguous_free(self) -> int:
        """Bytes available between the slot directory and the data area."""
        slot_count, free_end = self._header()
        return free_end - (HEADER_SIZE + SLOT_SIZE * slot_count)

    def total_free(self) -> int:
        """Bytes that compaction could make available for one new record."""
        slot_count, _ = self._header()
        used = sum(length for offset, length in map(self._slot, range(slot_count)) if offset)
        live_dir = HEADER_SIZE + SLOT_SIZE * slot_count
        return self.page_size - live_dir - used

    def free_for_insert(self) -> int:
        """Upper bound on the largest record insertable (after compaction)."""
        free = self.total_free()
        if self._find_tombstone() is None:
            free -= SLOT_SIZE
        return max(free, 0)

    def live_bytes(self) -> int:
        """Total bytes of live record payloads on this page."""
        slot_count, _ = self._header()
        return sum(length for offset, length in map(self._slot, range(slot_count)) if offset)

    # -- record operations ----------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert ``record``, returning its slot number.

        Raises :class:`PageFullError` when the record cannot fit even after
        compaction.
        """
        if not record:
            raise StorageError("empty records are not supported")
        if len(record) > self.free_for_insert():
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_for_insert()} free)")
        tombstone = self._find_tombstone()
        needed = len(record) + (0 if tombstone is not None else SLOT_SIZE)
        if self.contiguous_free() < needed:
            self.compact()
        slot_count, free_end = self._header()
        offset = free_end - len(record)
        self.data[offset:free_end] = record
        if tombstone is not None:
            slot_no = tombstone
            self._set_header(slot_count, offset)
        else:
            slot_no = slot_count
            self._set_header(slot_count + 1, offset)
        self._set_slot(slot_no, offset, len(record))
        return slot_no

    def read(self, slot_no: int) -> memoryview:
        """Return the record payload in slot ``slot_no``."""
        offset, length = self._checked_slot(slot_no)
        return memoryview(self.data)[offset:offset + length]

    def delete(self, slot_no: int) -> None:
        """Tombstone slot ``slot_no``; its space is reclaimed by compaction."""
        self._checked_slot(slot_no)
        self._set_slot(slot_no, 0, 0)

    def update(self, slot_no: int, record: bytes) -> None:
        """Replace the record in ``slot_no``, keeping the same RID.

        Shrinking updates are done in place; growing updates relocate the
        payload within the page and raise :class:`PageFullError` if there is
        no room (the caller then moves the record to another page).
        """
        offset, length = self._checked_slot(slot_no)
        if len(record) <= length:
            self.data[offset:offset + len(record)] = record
            self._set_slot(slot_no, offset, len(record))
            return
        # Grow: tombstone first so compaction can reclaim the old image.
        self._set_slot(slot_no, 0, 0)
        if len(record) > self.total_free():
            self._set_slot(slot_no, offset, length)  # roll back
            raise PageFullError(
                f"updated record of {len(record)} bytes does not fit")
        if self.contiguous_free() < len(record):
            self.compact()
        slot_count, free_end = self._header()
        new_offset = free_end - len(record)
        self.data[new_offset:free_end] = record
        self._set_header(slot_count, new_offset)
        self._set_slot(slot_no, new_offset, len(record))

    def records(self) -> Iterator[tuple[int, memoryview]]:
        """Yield ``(slot_no, payload)`` for every live record, slot order."""
        slot_count, _ = self._header()
        view = memoryview(self.data)
        for slot_no in range(slot_count):
            offset, length = self._slot(slot_no)
            if offset:
                yield slot_no, view[offset:offset + length]

    def compact(self) -> None:
        """Slide live records to the page tail, squeezing out dead space."""
        slot_count, _ = self._header()
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
        self._set_header(slot_count, write_end)

    # -- integrity -----------------------------------------------------------

    def validate(self) -> None:
        """Structural integrity check of the header and slot directory.

        The disk layer's CRC catches corruption at rest; this catches a page
        whose bytes were damaged *after* checksum verification (or written
        through a fault hook) before the damage is dereferenced as offsets.
        Raises :class:`StorageError` on any violated invariant.
        """
        slot_count, free_end = self._header()
        check_directory(slot_count, free_end, HEADER_SIZE, SLOT_SIZE,
                        self.page_size)
        for slot_no in range(slot_count):
            offset, length = self._slot(slot_no)
            if offset == 0:
                continue  # tombstone
            if offset < free_end or offset + length > self.page_size:
                raise StorageError(
                    f"corrupt slot {slot_no}: [{offset}, {offset + length}) "
                    f"outside data area [{free_end}, {self.page_size})")
            if length == 0:
                raise StorageError(f"corrupt slot {slot_no}: zero length")

    # -- internals -----------------------------------------------------------

    def _find_tombstone(self) -> int | None:
        slot_count, _ = self._header()
        for slot_no in range(slot_count):
            if self._slot(slot_no)[0] == 0:
                return slot_no
        return None

    def _checked_slot(self, slot_no: int) -> tuple[int, int]:
        slot_count, _ = self._header()
        if not 0 <= slot_no < slot_count:
            raise RecordNotFoundError(f"slot {slot_no} does not exist")
        offset, length = self._slot(slot_no)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot_no} is deleted")
        return offset, length
