"""Unit tests for table spaces (records by RID, overflow, scans)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import StatsRegistry
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.rdb.tablespace import Rid, TableSpace


@pytest.fixture
def space():
    disk = Disk(page_size=512, stats=StatsRegistry())
    return TableSpace(BufferPool(disk, capacity=16))


class TestRid:
    def test_roundtrip(self):
        rid = Rid(123456, 7)
        assert Rid.from_bytes(rid.to_bytes()) == rid

    def test_ordering_follows_page_then_slot(self):
        assert Rid(1, 5) < Rid(2, 0)
        assert Rid(1, 5) < Rid(1, 6)

    def test_bad_length(self):
        from repro.errors import StorageError
        with pytest.raises(StorageError):
            Rid.from_bytes(b"\x00" * 5)


class TestTableSpace:
    def test_insert_read(self, space):
        rid = space.insert(b"record one")
        assert space.read(rid) == b"record one"
        assert space.record_count == 1

    def test_many_records_span_pages(self, space):
        rids = [space.insert(bytes([i % 250]) * 100) for i in range(50)]
        assert len({r.page_id for r in rids}) > 1
        for i, rid in enumerate(rids):
            assert space.read(rid) == bytes([i % 250]) * 100

    def test_insertion_order_clustering(self, space):
        """Consecutive inserts land in page order (clustering, §3.1)."""
        rids = [space.insert(b"r" * 50) for _ in range(30)]
        pages = [r.page_id for r in rids]
        assert pages == sorted(pages)

    def test_scan_in_page_order(self, space):
        payloads = [bytes([i]) * 60 for i in range(20)]
        for p in payloads:
            space.insert(p)
        assert [body for _, body in space.scan()] == payloads

    def test_delete_and_space_reuse(self, space):
        rids = [space.insert(b"x" * 100) for _ in range(10)]
        pages_before = space.page_count
        for rid in rids:
            space.delete(rid)
        assert space.record_count == 0
        for _ in range(10):
            space.insert(b"y" * 100)
        assert space.page_count == pages_before  # freed space was reused

    def test_update_in_place(self, space):
        rid = space.insert(b"original value!")
        new_rid = space.update(rid, b"short")
        assert new_rid == rid
        assert space.read(rid) == b"short"

    def test_update_relocates_when_page_full(self, space):
        first = space.insert(b"a" * 200)
        space.insert(b"b" * 200)
        new_rid = space.update(first, b"c" * 400)
        assert space.read(new_rid) == b"c" * 400
        assert space.record_count == 2

    def test_overflow_record_roundtrip(self, space):
        big = bytes(range(256)) * 20  # 5120 bytes > 512-byte page
        rid = space.insert(big)
        assert space.read(rid) == big

    def test_overflow_scan(self, space):
        big = b"Z" * 2000
        space.insert(b"small")
        space.insert(big)
        bodies = [body for _, body in space.scan()]
        assert bodies == [b"small", big]

    def test_overflow_accounting_on_delete(self, space):
        rid = space.insert(b"Z" * 2000)
        pages_with = space.page_count
        space.delete(rid)
        assert space.page_count < pages_with

    def test_update_overflow_to_inline(self, space):
        rid = space.insert(b"Z" * 2000)
        new_rid = space.update(rid, b"now small")
        assert space.read(new_rid) == b"now small"

    def test_update_moving_a_long_record_spills_it_once(self):
        """The in-place attempt spills the grown record; when the page has
        no room for even its overflow head, the move must store that head,
        not spill the record a second time (orphaning the first chain)."""
        disk = Disk(page_size=256, stats=StatsRegistry())
        space = TableSpace(BufferPool(disk, capacity=16))
        rid = space.insert(b"small")
        space.insert(b"f" * 220)  # the page is now nearly full
        assert (space.page_count, disk.page_count) == (1, 1)
        big = bytes(range(250)) * 4
        new_rid = space.update(rid, big)
        assert new_rid != rid
        assert space.read(new_rid) == big
        # One new data page plus the four overflow pages of 1 000 bytes.
        assert (space.page_count, disk.page_count) == (6, 6)
        space.delete(new_rid)
        assert space.page_count == 2
        assert space.record_count == 1

    def test_freed_overflow_pages_are_reused(self):
        """Insert/delete churn of a long record reuses its overflow chain
        instead of growing the device by a chain per round."""
        disk = Disk(page_size=256, stats=StatsRegistry())
        space = TableSpace(BufferPool(disk, capacity=16))
        record = bytes(range(250)) * 4
        for _ in range(20):
            rid = space.insert(record)
            assert space.read(rid) == record
            space.delete(rid)
        # One data page plus one 4-page chain, however many rounds.
        assert disk.page_count <= 5
        assert space.page_count == 1

    def test_reused_overflow_pages_hold_only_the_new_record(self, space):
        kept = space.insert(b"K" * 1500)
        gone = space.insert(b"G" * 2000)
        space.delete(gone)
        shorter = space.insert(b"S" * 700)  # reuses part of the freed chain
        assert space.read(shorter) == b"S" * 700
        assert space.read(kept) == b"K" * 1500
        moved = space.update(kept, b"U" * 1800)
        assert space.read(moved) == b"U" * 1800
        assert space.read(shorter) == b"S" * 700

    def test_read_deleted_raises(self, space):
        from repro.errors import RecordNotFoundError
        rid = space.insert(b"gone")
        space.delete(rid)
        with pytest.raises(RecordNotFoundError):
            space.read(rid)

    def test_live_bytes_tracks_payloads(self, space):
        space.insert(b"x" * 100)
        space.insert(b"y" * 50)
        assert space.live_bytes() >= 150

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=700), min_size=1, max_size=40))
    def test_roundtrip_property(self, payloads):
        disk = Disk(page_size=256, stats=StatsRegistry())
        space = TableSpace(BufferPool(disk, capacity=8))
        rids = [space.insert(p) for p in payloads]
        for rid, payload in zip(rids, payloads, strict=True):
            assert space.read(rid) == payload
        assert space.record_count == len(payloads)
