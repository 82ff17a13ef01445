"""Unit tests for fault plans, the injector, and the faulty disk wrapper."""

import pytest

from repro.core.stats import StatsRegistry
from repro.errors import ChecksumError, FaultInjectionError, StorageError
from repro.fault import FaultInjector, FaultPlan, FaultSpec, FaultyDisk
from repro.fault.injector import SimulatedCrash
from repro.rdb.buffer import BufferPool
from repro.rdb.pages import SlottedPage
from repro.rdb.storage import Disk

PAGE = 256


@pytest.fixture
def stats():
    return StatsRegistry()


def faulty(plan, stats, seed=0):
    injector = FaultInjector(plan, seed=seed, stats=stats)
    return FaultyDisk(Disk(page_size=PAGE, stats=stats), injector), injector


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor_strike", 1)

    def test_zero_occurrence_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.fail_nth_write(0)

    def test_crash_needs_point(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", 1)


class TestFailNthWrite:
    def test_exactly_nth_write_fails(self, stats):
        disk, injector = faulty([FaultPlan.fail_nth_write(2)], stats)
        a, b = disk.allocate_page(), disk.allocate_page()
        disk.write_page(a, b"a" * PAGE)  # write 1 fine
        with pytest.raises(FaultInjectionError):
            disk.write_page(b, b"b" * PAGE)  # write 2 injected
        disk.write_page(b, b"c" * PAGE)  # write 3 fine again
        assert disk.read_page(b) == b"c" * PAGE
        assert injector.injected == [("fail_write", "page 1")]
        assert stats.get("fault.injected") == 1

    def test_failed_write_leaves_page_intact(self, stats):
        disk, _ = faulty([FaultPlan.fail_nth_write(2)], stats)
        pid = disk.allocate_page()
        disk.write_page(pid, b"x" * PAGE)
        with pytest.raises(FaultInjectionError):
            disk.write_page(pid, b"y" * PAGE)
        assert disk.read_page(pid) == b"x" * PAGE  # old image, valid checksum


class TestTornWrite:
    def test_next_read_raises_checksum_error(self, stats):
        disk, _ = faulty([FaultPlan.torn_nth_write(2, keep_bytes=10)], stats)
        pid = disk.allocate_page()
        disk.write_page(pid, b"x" * PAGE)
        disk.write_page(pid, b"y" * PAGE)  # torn: only 10 bytes land
        with pytest.raises(ChecksumError):
            disk.read_page(pid)
        assert stats.get("disk.checksum_failures") == 1

    def test_torn_image_mixes_old_and_new(self, stats):
        disk, _ = faulty([FaultPlan.torn_nth_write(2, keep_bytes=10)], stats)
        pid = disk.allocate_page()
        disk.write_page(pid, b"x" * PAGE)
        disk.write_page(pid, b"y" * PAGE)
        raw = disk.raw_page(pid)
        assert raw[:10] == b"y" * 10 and raw[10:] == b"x" * (PAGE - 10)


class TestBitFlipRead:
    def test_flip_detected_not_silent(self, stats):
        disk, _ = faulty([FaultPlan.flip_bit_on_read(1)], stats, seed=5)
        pid = disk.allocate_page()
        disk.write_page(pid, b"q" * PAGE)
        with pytest.raises(ChecksumError):
            disk.read_page(pid)

    def test_deterministic_under_seed(self, stats):
        journals = []
        for _ in range(2):
            disk, injector = faulty([FaultPlan.flip_bit_on_read(1)],
                                    StatsRegistry(), seed=42)
            pid = disk.allocate_page()
            disk.write_page(pid, b"q" * PAGE)
            with pytest.raises(ChecksumError):
                disk.read_page(pid)
            journals.append(list(injector.injected))
        assert journals[0] == journals[1]

    def test_explicit_bit(self, stats):
        disk, injector = faulty([FaultPlan.flip_bit_on_read(1, bit=7)], stats)
        pid = disk.allocate_page()
        disk.write_page(pid, bytes(PAGE))
        with pytest.raises(ChecksumError):
            disk.read_page(pid)
        assert disk.raw_page(pid)[0] == 0x80


class TestCrashPoints:
    def test_crash_on_nth_hit(self, stats):
        injector = FaultInjector([FaultPlan.crash_at("engine.step", hit=3)],
                                 stats=stats)
        injector.hit("engine.step")
        injector.hit("engine.step")
        with pytest.raises(SimulatedCrash) as exc:
            injector.hit("engine.step")
        assert exc.value.point == "engine.step"
        assert stats.get("fault.crashes") == 1

    def test_mid_write_crash_tears_page(self, stats):
        disk, _ = faulty([FaultPlan.crash_at("disk.write.mid", hit=2)], stats)
        pid = disk.allocate_page()
        disk.write_page(pid, b"x" * PAGE)
        with pytest.raises(SimulatedCrash):
            disk.write_page(pid, b"y" * PAGE)
        with pytest.raises(ChecksumError):
            disk.read_page(pid)  # half old, half new, checksum of intended

    def test_disarm_stops_injection(self, stats):
        injector = FaultInjector([FaultPlan.crash_at("p", hit=1)],
                                 stats=stats)
        injector.disarm()
        injector.hit("p")  # no crash
        injector.arm()
        with pytest.raises(SimulatedCrash):
            injector.hit("p")

    def test_simulated_crash_escapes_except_exception(self, stats):
        injector = FaultInjector([FaultPlan.crash_at("p", hit=1)],
                                 stats=stats)
        with pytest.raises(SimulatedCrash):
            try:
                injector.hit("p")
            except Exception:  # engine-style blanket handler
                pytest.fail("SimulatedCrash must not be a plain Exception")


class TestFaultyDiskInterface:
    def test_buffer_pool_runs_unmodified_on_faulty_disk(self, stats):
        disk, _ = faulty([], stats)
        pool = BufferPool(disk, capacity=2)
        pid, data = pool.new_page()
        data[0] = 99
        pool.unpin(pid, dirty=True)
        pool.flush_all()
        assert disk.read_page(pid)[0] == 99

    def test_save_delegates(self, stats, tmp_path):
        disk, _ = faulty([], stats)
        pid = disk.allocate_page()
        disk.write_page(pid, b"z" * PAGE)
        path = str(tmp_path / "img")
        disk.save(path)
        reloaded = Disk.load(path)
        assert reloaded.read_page(pid) == b"z" * PAGE


class TestDiskChecksums:
    def test_corrupt_page_detected_on_load(self, stats, tmp_path):
        disk = Disk(page_size=PAGE, stats=stats)
        pid = disk.allocate_page()
        disk.write_page(pid, b"v" * PAGE)
        disk.corrupt_page(pid, b"w" * PAGE)
        path = str(tmp_path / "img")
        disk.save(path)
        with pytest.raises(ChecksumError):
            Disk.load(path)
        # Deferred verification still catches it on first read.
        lazy = Disk.load(path, verify=False)
        with pytest.raises(ChecksumError):
            lazy.read_page(pid)

    def test_clean_roundtrip_verifies(self, stats, tmp_path):
        disk = Disk(page_size=PAGE, stats=stats)
        pid = disk.allocate_page()
        disk.write_page(pid, bytes([3]) * PAGE)
        path = str(tmp_path / "img")
        disk.save(path)
        assert Disk.load(path).read_page(pid) == bytes([3]) * PAGE


class TestSlottedPageValidate:
    def test_clean_page_validates(self):
        page = SlottedPage.format(bytearray(PAGE))
        page.insert(b"hello")
        page.validate()

    def test_corrupt_free_end_detected(self):
        page = SlottedPage.format(bytearray(PAGE))
        page.insert(b"hello")
        page.data[2:4] = (PAGE + 100).to_bytes(2, "little")  # free_end wild
        with pytest.raises(StorageError):
            page.validate()

    def test_corrupt_slot_offset_detected(self):
        page = SlottedPage.format(bytearray(PAGE))
        slot = page.insert(b"hello")
        page._set_slot(slot, PAGE - 2, 10)  # runs off the page
        with pytest.raises(StorageError):
            page.validate()

    def test_damaged_tally_in_resident_frame_detected(self, stats):
        """The tally bytes of a frame that passed its checksum on the way in
        are damaged in memory: only ``validate`` can see it."""
        pool = BufferPool(Disk(page_size=PAGE, stats=stats), capacity=2)
        pid, data = pool.new_page()
        page = SlottedPage.format(data)
        gone = page.insert(b"gone")
        page.insert(b"kept" * 5)
        page.delete(gone)  # tally: 20 live bytes, one tombstone
        pool.unpin(pid, dirty=True)
        pool.flush_all()
        pool.evict_all()
        for damage in (b"\x00\x00", b"\xff\x00"):
            for at in (4, 6):  # live bytes, tombstones
                with pool.page(pid, write=True) as frame:  # checksum verified
                    page = SlottedPage(frame)
                    page.validate()
                    good = bytes(frame[at:at + 2])
                    frame[at:at + 2] = damage
                    with pytest.raises(StorageError, match="tally"):
                        page.validate()
                    frame[at:at + 2] = good
        with pool.page(pid) as frame:
            SlottedPage(frame).validate()
