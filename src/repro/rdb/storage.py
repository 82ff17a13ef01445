"""Simulated external storage: a page-addressed device with I/O accounting.

The paper's experiments ran on real DASD behind DB2's storage manager; here
the device is an in-memory page array whose read/write counters stand in for
physical I/O (see DESIGN.md substitution table).  The device can optionally
persist itself to a file so recovery tests can simulate a crash/restart.

Every page carries a CRC32 checksum, maintained on write and verified on
read (and when a persisted image is reloaded).  A page whose content no
longer matches its checksum — a torn write or a bit flip, as injected by
:mod:`repro.fault` — raises :class:`~repro.errors.ChecksumError` instead of
silently returning corrupt data.
"""

from __future__ import annotations

import os
import zlib

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import ChecksumError, StorageError


class Disk:
    """Page-addressed storage device.

    Pages are fixed-size byte strings addressed by a dense integer id.
    ``read_page``/``write_page`` maintain the ``disk.page_reads`` /
    ``disk.page_writes`` counters that the benchmarks report as physical I/O.

    Alongside each page the device keeps its CRC32, written atomically with
    the page by :meth:`write_page` and checked by :meth:`read_page`.  The
    fault hooks :meth:`raw_page`/:meth:`corrupt_page` bypass the checksum so
    the fault injector can model torn writes and media corruption.
    """

    def __init__(self, page_size: int = 4096, stats: StatsRegistry | None = None) -> None:
        if page_size < 64:
            raise StorageError(f"page size {page_size} is too small")
        self.page_size = page_size
        self.stats = default_stats(stats)
        self._pages: list[bytes] = []
        self._checksums: list[int] = []

    @property
    def page_count(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def allocated_bytes(self) -> int:
        """Total device bytes in allocated pages."""
        return len(self._pages) * self.page_size

    def allocate_page(self) -> int:
        """Allocate a fresh zeroed page; returns its page id."""
        zero = bytes(self.page_size)
        self._pages.append(zero)
        self._checksums.append(zlib.crc32(zero))
        return len(self._pages) - 1

    def read_page(self, page_id: int) -> bytes:
        """Physically read page ``page_id``, verifying its checksum."""
        self._check(page_id)
        self.stats.add("disk.page_reads")
        data = self._pages[page_id]
        if zlib.crc32(data) != self._checksums[page_id]:
            self.stats.add("disk.checksum_failures")
            raise ChecksumError(
                f"page {page_id} failed checksum verification "
                f"(torn write or corruption)")
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        """Physically write page ``page_id`` (and its checksum)."""
        self._check(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"write of {len(data)} bytes to page of size {self.page_size}")
        self.stats.add("disk.page_writes")
        self._pages[page_id] = bytes(data)
        self._checksums[page_id] = zlib.crc32(self._pages[page_id])

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise StorageError(f"page {page_id} is not allocated")

    # -- fault-injection hooks -------------------------------------------

    def raw_page(self, page_id: int) -> bytes:
        """Page content without checksum verification or I/O accounting."""
        self._check(page_id)
        return self._pages[page_id]

    def corrupt_page(self, page_id: int, data: bytes) -> None:
        """Overwrite the stored image of ``page_id`` without updating its
        checksum — the fault injector's model of a torn write or bit rot.
        """
        self._check(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"corrupt image of {len(data)} bytes for page of size "
                f"{self.page_size}")
        self._pages[page_id] = bytes(data)

    # -- crash/restart support -------------------------------------------

    def save(self, path: str) -> None:
        """Persist the device image (pages + checksums) to ``path``."""
        with open(path, "wb") as fh:
            fh.write(self.page_size.to_bytes(4, "big"))
            for page, checksum in zip(self._pages, self._checksums, strict=True):
                fh.write(checksum.to_bytes(4, "big"))
                fh.write(page)

    @classmethod
    def load(cls, path: str, stats: StatsRegistry | None = None,
             verify: bool = True) -> "Disk":
        """Reload a device image written by :meth:`save`.

        With ``verify`` (the default) every page is checked against its
        stored checksum and a mismatch raises
        :class:`~repro.errors.ChecksumError`; ``verify=False`` defers
        detection to the first :meth:`read_page` of the damaged page.
        """
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            page_size = int.from_bytes(fh.read(4), "big")
            disk = cls(page_size, stats=stats)
            n_pages, rem = divmod(size - 4, page_size + 4)
            if rem:
                raise StorageError(f"corrupt device image {path!r}")
            for page_id in range(n_pages):
                checksum = int.from_bytes(fh.read(4), "big")
                page = fh.read(page_size)
                if verify and zlib.crc32(page) != checksum:
                    disk.stats.add("disk.checksum_failures")
                    raise ChecksumError(
                        f"page {page_id} of image {path!r} failed checksum "
                        f"verification")
                disk._pages.append(page)
                disk._checksums.append(checksum)
        return disk
