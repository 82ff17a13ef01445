"""Unit tests for the simulated disk, slotted pages, and the buffer pool."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.stats import StatsRegistry
from repro.errors import (BufferPoolError, PageFullError, RecordNotFoundError,
                          StorageError)
from repro.rdb.buffer import BufferPool
from repro.rdb.pages import SlottedPage
from repro.rdb.storage import Disk


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def disk(stats):
    return Disk(page_size=512, stats=stats)


class TestDisk:
    def test_allocate_and_rw(self, disk, stats):
        pid = disk.allocate_page()
        assert disk.read_page(pid) == bytes(512)
        disk.write_page(pid, b"x" * 512)
        assert disk.read_page(pid)[:1] == b"x"
        assert stats.get("disk.page_reads") == 2
        assert stats.get("disk.page_writes") == 1

    def test_bad_page_id(self, disk):
        with pytest.raises(StorageError):
            disk.read_page(99)

    def test_wrong_write_size(self, disk):
        pid = disk.allocate_page()
        with pytest.raises(StorageError):
            disk.write_page(pid, b"short")

    def test_save_load_roundtrip(self, disk, tmp_path):
        pid = disk.allocate_page()
        disk.write_page(pid, bytes([7]) * 512)
        path = str(tmp_path / "disk.img")
        disk.save(path)
        reloaded = Disk.load(path)
        assert reloaded.page_size == 512
        assert reloaded.read_page(pid) == bytes([7]) * 512

    def test_too_small_page_size(self):
        with pytest.raises(StorageError):
            Disk(page_size=16)


class TestSlottedPage:
    def make(self, size=256):
        return SlottedPage.format(bytearray(size))

    def test_insert_read(self):
        page = self.make()
        slot = page.insert(b"hello")
        assert bytes(page.read(slot)) == b"hello"

    def test_multiple_records_distinct_slots(self):
        page = self.make()
        slots = [page.insert(bytes([i]) * 10) for i in range(5)]
        assert len(set(slots)) == 5
        for i, slot in enumerate(slots):
            assert bytes(page.read(slot)) == bytes([i]) * 10

    def test_delete_then_read_raises(self):
        page = self.make()
        slot = page.insert(b"data")
        page.delete(slot)
        with pytest.raises(RecordNotFoundError):
            page.read(slot)

    def test_tombstone_slot_reused(self):
        page = self.make()
        a = page.insert(b"a" * 8)
        page.insert(b"b" * 8)
        page.delete(a)
        c = page.insert(b"c" * 8)
        assert c == a
        assert bytes(page.read(c)) == b"c" * 8

    def test_page_full(self):
        page = self.make(64)
        page.insert(b"x" * 40)
        with pytest.raises(PageFullError):
            page.insert(b"y" * 40)

    def test_compaction_reclaims_space(self):
        page = self.make(128)
        a = page.insert(b"a" * 30)
        b = page.insert(b"b" * 30)
        c = page.insert(b"c" * 30)
        page.delete(a)
        page.delete(c)
        # Needs compaction: free space is fragmented.
        d = page.insert(b"d" * 55)
        assert bytes(page.read(d)) == b"d" * 55
        assert bytes(page.read(b)) == b"b" * 30

    def test_update_in_place_shrink(self):
        page = self.make()
        slot = page.insert(b"long record here")
        page.update(slot, b"short")
        assert bytes(page.read(slot)) == b"short"

    def test_update_grow_within_page(self):
        page = self.make()
        slot = page.insert(b"aa")
        other = page.insert(b"bb")
        page.update(slot, b"a much longer record body")
        assert bytes(page.read(slot)) == b"a much longer record body"
        assert bytes(page.read(other)) == b"bb"

    def test_update_grow_overflow_rolls_back(self):
        page = self.make(64)
        slot = page.insert(b"tiny")
        with pytest.raises(PageFullError):
            page.update(slot, b"z" * 60)
        assert bytes(page.read(slot)) == b"tiny"

    def test_records_iteration_skips_deleted(self):
        page = self.make()
        a = page.insert(b"a")
        b = page.insert(b"b")
        page.delete(a)
        live = [(slot, bytes(data)) for slot, data in page.records()]
        assert live == [(b, b"b")]

    def test_empty_record_rejected(self):
        with pytest.raises(StorageError):
            self.make().insert(b"")

    def test_delete_then_insert_reuses_slots_lowest_first(self):
        page = self.make()
        slots = [page.insert(bytes([i]) * 10) for i in range(6)]
        for slot in (4, 1, 3):
            page.delete(slots[slot])
        assert page.free_for_insert() == page.total_free()  # no new slot
        assert [page.insert(b"n" * 7) for _ in range(4)] == [1, 3, 4, 6]
        assert page.slot_count == 7
        assert tally(page) == scanned_tally(page) == (3 * 10 + 4 * 7, 0)
        page.validate()

    def test_compaction_with_tombstones(self):
        page = self.make(128)
        slots = [page.insert(bytes([65 + i]) * 20) for i in range(4)]
        page.delete(slots[0])
        page.delete(slots[2])
        before = tally(page)
        assert page.contiguous_free() < page.total_free()
        page.compact()
        assert tally(page) == scanned_tally(page) == before == (40, 2)
        assert page.contiguous_free() == page.total_free()
        assert [(slot, bytes(data)) for slot, data in page.records()] == \
            [(1, b"B" * 20), (3, b"D" * 20)]
        for slot in (0, 2):
            with pytest.raises(RecordNotFoundError):
                page.read(slot)
        page.validate()
        # Both tombstones are reused once the live data has been squeezed.
        assert [page.insert(b"x" * 20), page.insert(b"y" * 20)] == [0, 2]

    def test_header_reads_only_per_insert(self, monkeypatch):
        """Filling a page reads no slot-directory entry: free space and
        tombstone reuse come from the header's tally, so an insert costs
        the same on the last slot as on the first."""
        reads = []
        slot = SlottedPage._slot

        def counted(page, slot_no):
            reads[-1] += 1
            return slot(page, slot_no)

        monkeypatch.setattr(SlottedPage, "_slot", counted)
        page = self.make(4096)
        while page.free_for_insert() >= 8:
            reads.append(0)
            page.insert(b"r" * 8)
            page.free_for_insert()  # what TableSpace.insert asks next
        assert len(reads) > 300
        assert set(reads) == {0}

    def test_table_space_insert_reads_no_directory(self, monkeypatch, stats):
        from repro.rdb.tablespace import TableSpace
        calls = []
        slot = SlottedPage._slot
        monkeypatch.setattr(SlottedPage, "_slot",
                            lambda page, n: calls.append(n) or slot(page, n))
        space = TableSpace(BufferPool(Disk(page_size=1024, stats=stats), 8))
        for i in range(1000):
            space.insert(b"%d" % i)
        assert space.page_count > 5
        assert calls == []


def tally(page):
    """``(live_bytes, tombstones)`` as the page header keeps them."""
    _, _, live, tombstones = page._header()
    return live, tombstones


def scanned_tally(page):
    """The same pair, counted by walking the whole slot directory."""
    slots = [page._slot(n) for n in range(page.slot_count)]
    return (sum(length for offset, length in slots if offset),
            sum(1 for offset, _ in slots if not offset))


class SlottedPageMachine(RuleBasedStateMachine):
    """Random insert/delete/update/compact runs against a dict model.

    After every step the page validates, its tally equals a full directory
    scan, and its records are exactly the model's."""

    def __init__(self):
        super().__init__()
        self.page = SlottedPage.format(bytearray(256))
        self.model = {}

    def tombstones(self):
        return [n for n in range(self.page.slot_count) if n not in self.model]

    @rule(record=st.binary(min_size=1, max_size=90))
    def insert(self, record):
        before = bytes(self.page.data)
        if len(record) > self.page.free_for_insert():
            with pytest.raises(PageFullError):
                self.page.insert(record)
            assert bytes(self.page.data) == before
            return
        free = self.tombstones()
        slot = self.page.insert(record)
        # A tombstone is reused (the lowest) before the directory grows.
        assert slot == (free[0] if free else len(self.model))
        self.model[slot] = record

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        slot = data.draw(st.sampled_from(sorted(self.model)))
        self.page.delete(slot)
        del self.model[slot]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def shrink(self, data):
        slot = data.draw(st.sampled_from(sorted(self.model)))
        size = data.draw(st.integers(1, len(self.model[slot])))
        record = data.draw(st.binary(min_size=size, max_size=size))
        self.page.update(slot, record)
        self.model[slot] = record

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def grow(self, data):
        slot = data.draw(st.sampled_from(sorted(self.model)))
        old = len(self.model[slot])
        record = data.draw(st.binary(min_size=old + 1, max_size=old + 90))
        before = bytes(self.page.data)
        if len(record) - old > self.page.total_free():
            with pytest.raises(PageFullError):
                self.page.update(slot, record)
            assert bytes(self.page.data) == before
            return
        self.page.update(slot, record)
        self.model[slot] = record

    @rule()
    def compact(self):
        before = tally(self.page)
        self.page.compact()
        assert tally(self.page) == before
        assert self.page.contiguous_free() == self.page.total_free()

    @invariant()
    def page_matches_model(self):
        self.page.validate()
        assert tally(self.page) == scanned_tally(self.page)
        assert tally(self.page) == (sum(map(len, self.model.values())),
                                    len(self.tombstones()))
        assert {n: bytes(data) for n, data in self.page.records()} == self.model
        assert self.page.live_bytes() == tally(self.page)[0]


TestSlottedPageMachine = SlottedPageMachine.TestCase
TestSlottedPageMachine.settings = settings(max_examples=150,
                                           stateful_step_count=60,
                                           deadline=None)


class TestBufferPool:
    def test_hit_miss_accounting(self, disk, stats):
        pool = BufferPool(disk, capacity=2)
        pid, data = pool.new_page()
        data[0] = 42
        pool.unpin(pid, dirty=True)
        with pool.page(pid) as again:
            assert again[0] == 42
        assert stats.get("buffer.hits") == 1
        assert stats.get("buffer.misses") == 0

    def test_eviction_writes_dirty_page(self, disk, stats):
        pool = BufferPool(disk, capacity=1)
        pid, data = pool.new_page()
        data[0] = 9
        pool.unpin(pid, dirty=True)
        pid2, _ = pool.new_page()  # forces eviction of pid
        pool.unpin(pid2)
        assert stats.get("buffer.evictions") == 1
        assert disk.read_page(pid)[0] == 9

    def test_refetch_after_eviction(self, disk):
        pool = BufferPool(disk, capacity=1)
        pid, data = pool.new_page()
        data[1] = 7
        pool.unpin(pid, dirty=True)
        pid2, _ = pool.new_page()
        pool.unpin(pid2)
        with pool.page(pid) as again:
            assert again[1] == 7

    def test_all_pinned_raises(self, disk):
        pool = BufferPool(disk, capacity=1)
        pid, _ = pool.new_page()  # stays pinned
        with pytest.raises(BufferPoolError):
            pool.new_page()
        pool.unpin(pid, dirty=True)

    def test_unpin_without_pin_raises(self, disk):
        pool = BufferPool(disk, capacity=2)
        with pytest.raises(BufferPoolError):
            pool.unpin(123)

    def test_flush_all_persists(self, disk):
        pool = BufferPool(disk, capacity=4)
        pid, data = pool.new_page()
        data[5] = 1
        pool.unpin(pid, dirty=True)
        pool.flush_all()
        assert disk.read_page(pid)[5] == 1

    def test_evict_all_drops_frames(self, disk):
        pool = BufferPool(disk, capacity=4)
        pid, _ = pool.new_page()
        pool.unpin(pid, dirty=True)
        pool.evict_all()
        assert not pool.resident(pid)
