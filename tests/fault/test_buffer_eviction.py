"""Regression tests for buffer-pool eviction accounting and allocation.

PR 2's satellite fixes: eviction writebacks must go through ``flush_page``
(so ``buffer.flushes`` counts them and the clean-only-after-write guarantee
is shared, not duplicated), and ``new_page`` must not leak a freshly
allocated disk page when every frame is pinned.
"""

import pytest

from repro.core.stats import StatsRegistry
from repro.errors import BufferPoolError, FaultInjectionError
from repro.fault.disk import FaultyDisk
from repro.fault.injector import FaultInjector, FaultPlan
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk


def make_pool(capacity, plan=()):
    stats = StatsRegistry()
    disk = Disk(page_size=256, stats=stats)
    if plan:
        disk = FaultyDisk(disk, FaultInjector(plan, stats=stats))
    return BufferPool(disk, capacity=capacity), stats


class TestEvictionWriteback:
    def test_eviction_counts_as_flush(self):
        pool, stats = make_pool(capacity=1)
        page_id, data = pool.new_page()
        data[0] = 0xAB
        pool.unpin(page_id, dirty=True)
        assert stats.get("buffer.flushes") == 0
        # Allocating a second page evicts the first (dirty) one.
        other, _ = pool.new_page()
        pool.unpin(other, dirty=False)
        assert stats.get("buffer.evictions") == 1
        assert stats.get("buffer.flushes") == 1     # the regression
        assert stats.get("disk.page_writes") == 1
        assert not pool.resident(page_id)
        # The written-back image is the modified one.
        assert pool.fetch(page_id)[0] == 0xAB
        pool.unpin(page_id)

    def test_clean_eviction_does_not_flush(self):
        pool, stats = make_pool(capacity=1)
        page_id, _ = pool.new_page()
        pool.unpin(page_id, dirty=True)
        pool.flush_page(page_id)
        flushes = stats.get("buffer.flushes")
        other, _ = pool.new_page()          # evicts the now-clean page
        pool.unpin(other)
        assert stats.get("buffer.evictions") == 1
        assert stats.get("buffer.flushes") == flushes   # no extra write
        assert stats.get("disk.page_writes") == 1

    def test_failed_eviction_writeback_keeps_page_dirty_and_resident(self):
        # The shared clean-only-after-write guarantee: an injected write
        # failure during eviction must leave the dirty page in the pool so
        # a later flush retries it — no lost update, no false flush count.
        pool, stats = make_pool(capacity=1,
                                plan=[FaultPlan.fail_nth_write(1)])
        page_id, data = pool.new_page()
        data[0] = 0xCD
        pool.unpin(page_id, dirty=True)
        with pytest.raises(FaultInjectionError):
            pool.new_page()                 # eviction writeback fails
        assert pool.resident(page_id)
        assert pool.dirty_count() == 1
        assert stats.get("buffer.flushes") == 0
        # The injector only fails the first write: the retry succeeds.
        pool.flush_all()
        assert stats.get("buffer.flushes") == 1
        assert pool.dirty_count() == 0


class TestNewPageLeak:
    def test_new_page_with_all_frames_pinned_leaks_no_disk_page(self):
        pool, _ = make_pool(capacity=1)
        pool.new_page()                     # stays pinned
        before = pool.disk.page_count
        with pytest.raises(BufferPoolError):
            pool.new_page()                 # no room: must not allocate
        assert pool.disk.page_count == before   # the regression

    def test_new_page_succeeds_after_unpin(self):
        pool, _ = make_pool(capacity=1)
        first, _ = pool.new_page()
        with pytest.raises(BufferPoolError):
            pool.new_page()
        pool.unpin(first, dirty=True)
        second, _ = pool.new_page()
        assert second != first
        assert pool.disk.page_count == 2
        pool.unpin(second, dirty=True)
