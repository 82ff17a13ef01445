"""Table spaces: record storage by RID on slotted pages.

This is the layer the paper stresses is *reused unchanged* for XML: "to the
lower level components of the infrastructure, our packed XML data looks like
rows in relational tables" (§2).  Records larger than a page spill into
overflow chains transparently, so callers (including the XML tree packer)
never see page boundaries.

RIDs are ``(page_id, slot_no)`` pairs; they also have a fixed 6-byte encoding
used inside index entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import PageFullError, StorageError
from repro.rdb.buffer import BufferPool
from repro.rdb.pages import HEADER_SIZE, SLOT_SIZE, SlottedPage

_INLINE_TAG = 0
_OVERFLOW_TAG = 1


@dataclass(frozen=True, order=True)
class Rid:
    """Record identifier: physical page and slot."""

    page_id: int
    slot_no: int

    def to_bytes(self) -> bytes:
        """Fixed 6-byte encoding (big-endian page, big-endian slot)."""
        return self.page_id.to_bytes(4, "big") + self.slot_no.to_bytes(2, "big")

    @classmethod
    def from_bytes(cls, data: bytes | memoryview) -> "Rid":
        if len(data) != 6:
            raise StorageError(f"RID encoding must be 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data[:4], "big"), int.from_bytes(data[4:6], "big"))

    def __repr__(self) -> str:
        return f"Rid({self.page_id}:{self.slot_no})"


class TableSpace:
    """An ordered collection of slotted pages holding records of one table.

    Inserts prefer the most recently filled page, so row order follows
    insertion order — this is what gives the internal XML table its
    ``(DocID, minNodeID)`` clustering (§3.1) when documents are inserted a
    record run at a time.  Freed space is remembered in a bucketed
    free-space map and reused.
    """

    def __init__(self, pool: BufferPool, name: str = "ts") -> None:
        self.pool = pool
        self.name = name
        self.page_ids: list[int] = []
        self._free: dict[int, int] = {}  # page_id -> free_for_insert estimate
        self._buckets: list[set[int]] = [set() for _ in range(17)]
        self._last_page: int | None = None
        self._record_count = 0
        self._overflow_pages = 0
        # A record must leave room for the header and one slot.
        self.max_inline = pool.page_size - HEADER_SIZE - SLOT_SIZE - 1
        #: Longest storable record: its overflow head (13 bytes plus 4 per
        #: overflow page) must itself fit inline.
        self.max_record = (self.max_inline - 13) // 4 * pool.page_size

    # -- space map ---------------------------------------------------------

    @staticmethod
    def _bucket_of(free: int) -> int:
        bucket = 0
        while (1 << (bucket + 1)) <= free and bucket < 16:
            bucket += 1
        return bucket

    def _note_free(self, page_id: int, free: int) -> None:
        old = self._free.get(page_id)
        if old is not None:
            self._buckets[self._bucket_of(old)].discard(page_id)
        self._free[page_id] = free
        if free > 0:
            self._buckets[self._bucket_of(free)].add(page_id)

    def _find_page_with(self, needed: int) -> int | None:
        if self._last_page is not None and self._free.get(self._last_page, 0) >= needed:
            return self._last_page
        for bucket in range(self._bucket_of(needed), 17):
            for page_id in self._buckets[bucket]:
                if self._free.get(page_id, 0) >= needed:
                    return page_id
        return None

    def _new_data_page(self) -> int:
        page_id, data = self.pool.new_page()
        try:
            SlottedPage.format(data)
        finally:
            self.pool.unpin(page_id, dirty=True)
        self.page_ids.append(page_id)
        self._note_free(page_id, self.pool.page_size - HEADER_SIZE - SLOT_SIZE)
        return page_id

    # -- public API ----------------------------------------------------------

    @property
    def record_count(self) -> int:
        """Number of live records."""
        return self._record_count

    @property
    def page_count(self) -> int:
        """Data pages plus overflow pages owned by this space."""
        return len(self.page_ids) + self._overflow_pages

    def insert(self, record: bytes) -> Rid:
        """Store ``record`` and return its RID."""
        stats = self.pool.stats
        stats.add("ts.records_inserted")
        stats.add("ts.bytes_touched", len(record))
        payload = self._maybe_spill(record)
        needed = len(payload) + SLOT_SIZE
        page_id = self._find_page_with(needed)
        if page_id is None:
            page_id = self._new_data_page()
            if self._free[page_id] < needed:  # pragma: no cover - guarded by max_record
                raise PageFullError(f"record of {len(payload)} bytes exceeds page capacity")
        with self.pool.page(page_id, write=True) as data:
            page = SlottedPage(data)
            slot_no = page.insert(payload)
            self._note_free(page_id, page.free_for_insert())
        self._last_page = page_id
        self._record_count += 1
        return Rid(page_id, slot_no)

    def read(self, rid: Rid) -> bytes:
        """Fetch the record stored at ``rid``."""
        stats = self.pool.stats
        stats.add("ts.records_read")
        with self.pool.page(rid.page_id) as data:
            payload = bytes(SlottedPage(data).read(rid.slot_no))
        stats.add("ts.bytes_touched", len(payload))
        return self._maybe_reassemble(payload)

    def update(self, rid: Rid, record: bytes) -> Rid:
        """Replace the record at ``rid``.

        Updates stay in place when they fit; otherwise the record moves and
        the *new* RID is returned (callers such as the NodeID index manager
        must re-point their entries, §3.1's "maximum flexibility of record
        placement").
        """
        stats = self.pool.stats
        stats.add("ts.records_updated")
        stats.add("ts.bytes_touched", len(record))
        old_overflow = self._read_raw(rid)
        payload = self._maybe_spill(record)
        try:
            with self.pool.page(rid.page_id, write=True) as data:
                page = SlottedPage(data)
                page.update(rid.slot_no, payload)
                self._note_free(rid.page_id, page.free_for_insert())
            self._free_overflow_of(old_overflow)
            return rid
        except PageFullError:
            pass
        with self.pool.page(rid.page_id, write=True) as data:
            page = SlottedPage(data)
            page.delete(rid.slot_no)
            self._note_free(rid.page_id, page.free_for_insert())
        self._free_overflow_of(old_overflow)
        self._record_count -= 1
        return self.insert(record)

    def delete(self, rid: Rid) -> None:
        """Remove the record at ``rid``."""
        self.pool.stats.add("ts.records_deleted")
        payload = self._read_raw(rid)
        with self.pool.page(rid.page_id, write=True) as data:
            page = SlottedPage(data)
            page.delete(rid.slot_no)
            self._note_free(rid.page_id, page.free_for_insert())
        self._free_overflow_of(payload)
        self._record_count -= 1

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Yield every live record in page order (a relational scan)."""
        stats = self.pool.stats
        for page_id in self.page_ids:
            with self.pool.page(page_id) as data:
                page = SlottedPage(data)
                entries = [(slot_no, bytes(payload)) for slot_no, payload in page.records()]
            for slot_no, payload in entries:
                stats.add("ts.records_read")
                stats.add("ts.bytes_touched", len(payload))
                yield Rid(page_id, slot_no), self._maybe_reassemble(payload)

    def live_bytes(self) -> int:
        """Total live record payload bytes (inline representation)."""
        total = 0
        for page_id in self.page_ids:
            with self.pool.page(page_id) as data:
                total += SlottedPage(data).live_bytes()
        return total + self._overflow_pages * self.pool.page_size

    # -- overflow handling -----------------------------------------------------

    def _maybe_spill(self, record: bytes) -> bytes:
        """Return the inline payload, spilling long records to overflow pages."""
        if len(record) + 1 <= self.max_inline:
            return bytes([_INLINE_TAG]) + record
        if len(record) > self.max_record:
            raise PageFullError(f"record of {len(record)} bytes exceeds the "
                                f"{self.max_record}-byte record limit")
        chunk = self.pool.page_size
        page_ids = []
        for start in range(0, len(record), chunk):
            page_id, data = self.pool.new_page()
            try:
                piece = record[start:start + chunk]
                data[:len(piece)] = piece
            finally:
                self.pool.unpin(page_id, dirty=True)
            page_ids.append(page_id)
            self._overflow_pages += 1
        head = bytearray([_OVERFLOW_TAG])
        head += len(record).to_bytes(8, "big")
        head += len(page_ids).to_bytes(4, "big")
        for page_id in page_ids:
            head += page_id.to_bytes(4, "big")
        return bytes(head)

    def _maybe_reassemble(self, payload: bytes) -> bytes:
        if payload[0] == _INLINE_TAG:
            return payload[1:]
        total = int.from_bytes(payload[1:9], "big")
        n_pages = int.from_bytes(payload[9:13], "big")
        parts = []
        for i in range(n_pages):
            page_id = int.from_bytes(payload[13 + 4 * i:17 + 4 * i], "big")
            with self.pool.page(page_id) as data:
                parts.append(bytes(data))
        return b"".join(parts)[:total]

    def _read_raw(self, rid: Rid) -> bytes:
        with self.pool.page(rid.page_id) as data:
            return bytes(SlottedPage(data).read(rid.slot_no))

    def _free_overflow_of(self, payload: bytes) -> None:
        # The simulated device has no deallocation; just account for reuse.
        if payload and payload[0] == _OVERFLOW_TAG:
            n_pages = int.from_bytes(payload[9:13], "big")
            self._overflow_pages -= n_pages
