"""Buffer pool: LRU page cache between the engine and the simulated disk.

Components never touch :class:`~repro.rdb.storage.Disk` directly; they fetch
pages through the pool so experiments can separate logical page touches
(``buffer.hits`` + ``buffer.misses``) from physical I/O (``disk.page_*``).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

from repro.analyze import sanitize as _sanitize
from repro.core.stats import StatsRegistry
from repro.errors import BufferPoolError
from repro.rdb.storage import Disk


class _Frame:
    __slots__ = ("data", "pin_count", "dirty", "loaded_tick")

    def __init__(self, data: bytearray, loaded_tick: int = 0) -> None:
        self.data = data
        self.pin_count = 0
        self.dirty = False
        #: Pool access-clock reading when this frame was (re)loaded, so
        #: eviction can report how long the page stayed resident.
        self.loaded_tick = loaded_tick


class BufferPool:
    """Fixed-capacity LRU cache of disk pages with pin/unpin protocol."""

    def __init__(self, disk: Disk, capacity: int = 256) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.stats: StatsRegistry = disk.stats
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self._clock = 0  # pool accesses; drives eviction-residency ages
        if _sanitize.enabled():
            _sanitize.register_pool(self)

    @property
    def page_size(self) -> int:
        return self.disk.page_size

    def new_page(self) -> tuple[int, bytearray]:
        """Allocate a disk page and return it pinned (and dirty).

        Room is made *before* the disk allocation: if every frame is pinned
        the failure must not leak a freshly allocated (and never freed)
        disk page.
        """
        self._make_room()
        page_id = self.disk.allocate_page()
        self._clock += 1
        frame = _Frame(bytearray(self.page_size), loaded_tick=self._clock)
        frame.pin_count = 1
        frame.dirty = True
        self._frames[page_id] = frame
        return page_id, frame.data

    def fetch(self, page_id: int) -> bytearray:
        """Pin page ``page_id`` and return its (mutable) frame bytes."""
        self._clock += 1
        frame = self._frames.get(page_id)
        if frame is not None:
            self.stats.add("buffer.hits")
            self._frames.move_to_end(page_id)
        else:
            self.stats.add("buffer.misses")
            self._make_room()
            # The miss path's device read is the synchronous database I/O
            # suspension (DB2 class-3 "sync DB I/O").
            with self.stats.wait_timer("buffer.read_io"):
                data = bytearray(self.disk.read_page(page_id))
            frame = _Frame(data, loaded_tick=self._clock)
            self._frames[page_id] = frame
        frame.pin_count += 1
        return frame.data

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin on ``page_id``; ``dirty`` marks it modified."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count == 0:
            if _sanitize.enabled():
                self.stats.add("sanitize.double_unpin")
            raise BufferPoolError(f"page {page_id} is not pinned")
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty

    @contextmanager
    def page(self, page_id: int, write: bool = False) -> Iterator[bytearray]:
        """Context manager pairing :meth:`fetch` with :meth:`unpin`."""
        data = self.fetch(page_id)
        try:
            yield data
        finally:
            self.unpin(page_id, dirty=write)

    def flush_page(self, page_id: int) -> None:
        """Write ``page_id`` back to disk if it is resident and dirty.

        The frame is marked clean only after the write returns, so an
        injected write failure leaves the page dirty and a later flush
        retries it.
        """
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            # Checkpoint flushes and eviction writeback both suspend here
            # (DB2 class-3 "write I/O").
            with self.stats.wait_timer("buffer.write_io"):
                self.disk.write_page(page_id, bytes(frame.data))
            frame.dirty = False
            self.stats.add("buffer.flushes")

    def flush_all(self) -> None:
        """Write every dirty resident page back to disk."""
        with self.stats.trace("buffer.flush_all") as span:
            flushed = 0
            for page_id in list(self._frames):
                frame = self._frames.get(page_id)
                dirty = frame is not None and frame.dirty
                self.flush_page(page_id)
                flushed += dirty
            if span is not None:
                span.set("flushed", flushed)

    def dirty_count(self) -> int:
        """Number of resident frames holding unflushed modifications."""
        return sum(1 for frame in self._frames.values() if frame.dirty)

    def pinned_pages(self) -> list[int]:
        """Page ids of frames currently pinned (sanitizer/quiesce probe)."""
        return [page_id for page_id, frame in self._frames.items()
                if frame.pin_count]

    def assert_unpinned(self) -> None:
        """Raise :class:`BufferPoolError` if any frame is still pinned.

        Checkpoints and crash-harness restarts call this first: a pinned
        frame means some component is mid-operation and the pool contents
        are not a consistent image to flush.
        """
        pinned = self.pinned_pages()
        if pinned:
            raise BufferPoolError(
                f"pages still pinned at quiesce point: {pinned[:8]}")

    def evict_all(self) -> None:
        """Flush then drop every unpinned frame (simulates pool restart)."""
        self.flush_all()
        for page_id in list(self._frames):
            if self._frames[page_id].pin_count == 0:
                del self._frames[page_id]

    def resident(self, page_id: int) -> bool:
        """Whether ``page_id`` currently occupies a frame."""
        return page_id in self._frames

    def _make_room(self) -> None:
        if len(self._frames) < self.capacity:
            return
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                # Writeback goes through flush_page so eviction I/O counts
                # into ``buffer.flushes`` and shares the clean-only-after-
                # write guarantee (an injected write failure leaves the
                # frame dirty *and resident* for a later retry).
                self.flush_page(page_id)
                self.stats.add("buffer.evictions")
                # Residency: pool accesses that elapsed while the victim
                # was resident — small values mean the pool is thrashing.
                self.stats.observe("buffer.eviction_residency",
                                   self._clock - frame.loaded_tick)
                del self._frames[page_id]
                return
        raise BufferPoolError("all buffer frames are pinned")
