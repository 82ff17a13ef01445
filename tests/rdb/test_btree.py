"""Unit and property tests for the B+tree index manager."""

import bisect
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import StatsRegistry
from repro.errors import DuplicateKeyError, IndexError_, ReproError
from repro.rdb.btree import BTree
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk


def make_tree(page_size=512, unique=False, capacity=64):
    disk = Disk(page_size=page_size, stats=StatsRegistry())
    return BTree(BufferPool(disk, capacity=capacity), unique=unique)


class TestBasics:
    def test_insert_search(self):
        tree = make_tree()
        tree.insert(b"key", b"value")
        assert tree.search(b"key") == [b"value"]
        assert tree.search(b"missing") == []

    def test_len_tracks_entries(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(f"k{i}".encode(), b"v")
        assert len(tree) == 10

    def test_duplicate_keys_allowed(self):
        tree = make_tree()
        tree.insert(b"k", b"v1")
        tree.insert(b"k", b"v2")
        assert sorted(tree.search(b"k")) == [b"v1", b"v2"]

    def test_exact_duplicate_entry_rejected(self):
        tree = make_tree()
        tree.insert(b"k", b"v")
        with pytest.raises(DuplicateKeyError):
            tree.insert(b"k", b"v")

    def test_unique_index_rejects_key(self):
        tree = make_tree(unique=True)
        tree.insert(b"k", b"v1")
        with pytest.raises(DuplicateKeyError):
            tree.insert(b"k", b"v2")

    def test_search_one(self):
        tree = make_tree()
        tree.insert(b"k", b"v")
        assert tree.search_one(b"k") == b"v"
        assert tree.search_one(b"zz") is None


class TestUniqueAcrossLeaves:
    """A separator outlives the entry it was copied from.  Once that entry
    is deleted, two entries of its key route to opposite sides of it, so
    the unique check has to look past the edge of the target leaf."""

    @pytest.mark.parametrize("first, second", [(b"v1", b"v9"),
                                               (b"v9", b"v1")])
    def test_duplicate_straddling_a_stale_separator_is_rejected(
            self, first, second):
        tree = make_tree(unique=True)
        keys = [f"k{i:04d}".encode() for i in range(0, 200, 2)]
        for key in keys:
            tree.insert(key, b"v5")
        assert tree.height() > 1
        accepted = []
        for key in keys:
            assert tree.delete(key, b"v5")
            tree.insert(key, first)
            try:
                tree.insert(key, second)
            except DuplicateKeyError:
                continue
            accepted.append(key)
        assert accepted == []
        assert all(tree.search(key) == [first] for key in keys)
        tree.verify()


class TestSplitsAndOrder:
    def test_many_inserts_sorted_scan(self):
        tree = make_tree()
        keys = [f"key-{i:05d}".encode() for i in range(500)]
        shuffled = keys[:]
        random.Random(7).shuffle(shuffled)
        for key in shuffled:
            tree.insert(key, b"v" + key)
        assert tree.height() > 1  # splits happened
        scanned = [k for k, _ in tree.scan()]
        assert scanned == keys

    def test_duplicate_runs_scan_in_value_order(self):
        tree = make_tree(page_size=256)
        values = [f"{i:04d}".encode() for i in range(200)]
        shuffled = values[:]
        random.Random(3).shuffle(shuffled)
        for value in shuffled:
            tree.insert(b"dup", value)
        assert [v for _, v in tree.scan()] == values

    def test_range_scan_bounds(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(f"{i:03d}".encode(), b"")
        keys = [k for k, _ in tree.scan(low=b"010", high=b"020")]
        assert keys == [f"{i:03d}".encode() for i in range(10, 20)]
        keys_inc = [k for k, _ in tree.scan(low=b"010", high=b"020",
                                            high_inclusive=True)]
        assert keys_inc[-1] == b"020"

    def test_scan_prefix(self):
        tree = make_tree()
        for key in [b"ab1", b"ab2", b"ac1", b"b"]:
            tree.insert(key, b"")
        assert [k for k, _ in tree.scan_prefix(b"ab")] == [b"ab1", b"ab2"]

    def test_seek_ge(self):
        tree = make_tree()
        for i in range(0, 100, 10):
            tree.insert(f"{i:03d}".encode(), f"v{i}".encode())
        entry = tree.seek_ge(b"025")
        assert entry == (b"030", b"v30")
        assert tree.seek_ge(b"999") is None

    def test_variable_length_keys(self):
        tree = make_tree()
        keys = [b"a", b"aa", b"aaa" * 50, b"b" * 120, b"c"]
        for key in keys:
            tree.insert(key, b"x")
        assert [k for k, _ in tree.scan()] == sorted(keys)


class TestDelete:
    def test_delete_existing(self):
        tree = make_tree()
        tree.insert(b"k", b"v")
        assert tree.delete(b"k") is True
        assert tree.search(b"k") == []
        assert len(tree) == 0

    def test_delete_specific_value(self):
        tree = make_tree()
        tree.insert(b"k", b"v1")
        tree.insert(b"k", b"v2")
        assert tree.delete(b"k", b"v2") is True
        assert tree.search(b"k") == [b"v1"]

    def test_delete_missing_returns_false(self):
        tree = make_tree()
        tree.insert(b"k", b"v")
        assert tree.delete(b"zz") is False
        assert tree.delete(b"k", b"wrong") is False

    def test_delete_across_leaves(self):
        tree = make_tree(page_size=256)
        for i in range(300):
            tree.insert(b"same", f"{i:05d}".encode())
        assert tree.delete(b"same", b"00299") is True
        assert tree.delete(b"same", b"00000") is True
        assert len(tree) == 298


class TestSkewedSizes:
    """Splits cut at the byte midpoint, so both halves always fit."""

    def test_small_then_large_keys_split_by_bytes(self):
        # Cutting at the entry-count midpoint left 9 small + 3 large entries
        # (4587 bytes) for one 4096-byte page.
        tree = make_tree(page_size=4096)
        keys = [b"%04d" % i for i in range(20)]
        keys += [bytes([65 + i]) * 1536 for i in range(3)]
        for key in keys:
            tree.insert(key, b"")
        assert [k for k, _ in tree.scan()] == sorted(keys)
        tree.verify()

    @pytest.mark.parametrize("page_size", [512, 4096])
    def test_same_shape_at_each_page_size(self, page_size):
        tree = make_tree(page_size=page_size)
        keys = [b"%04d" % i for i in range(20)]
        keys += [bytes([65 + i]) * (page_size * 3 // 8) for i in range(3)]
        for key in keys:
            tree.insert(key, b"")
        assert [k for k, _ in tree.scan()] == sorted(keys)
        tree.verify()

    @pytest.mark.parametrize("page_size", [512, 4096])
    def test_largest_accepted_entries_always_split(self, page_size):
        tree = make_tree(page_size=page_size)
        big = tree.max_entry_bytes - 4  # two length prefixes of two bytes
        rng = random.Random(page_size)
        keys = {bytes([rng.randrange(256)]) * rng.choice([1, big // 3, big])
                for _ in range(120)}
        for key in keys:
            tree.insert(key, b"")
        assert [k for k, _ in tree.scan()] == sorted(keys)
        tree.verify()


class TestUnfittableEntry:
    @pytest.mark.parametrize("page_size", [512, 4096])
    def test_rejected_before_any_page_is_touched(self, page_size):
        tree = make_tree(page_size=page_size)
        for i in range(20):
            tree.insert(b"%04d" % i, b"v")
        disk = tree.pool.disk
        tree.pool.flush_all()
        before = (disk.page_count, len(tree), list(tree.scan()))
        for _ in range(3):
            with pytest.raises(IndexError_):
                tree.insert(b"K" * page_size, b"")
            with pytest.raises(IndexError_):
                tree.insert(b"k", b"V" * tree.max_entry_bytes)
        assert (disk.page_count, len(tree), list(tree.scan())) == before
        assert tree.pool.dirty_count() == 0
        assert tree.pool.pinned_pages() == []
        tree.verify()

    def test_limit_is_exact(self):
        tree = make_tree(page_size=512)
        key = b"k" * (tree.max_entry_bytes - 3)  # 2-byte + 1-byte prefixes
        tree.insert(key, b"")
        with pytest.raises(IndexError_):
            tree.insert(key + b"k", b"")
        assert tree.search(key) == [b""]

    def test_duplicate_rejection_leaves_no_pin(self):
        tree = make_tree(unique=True)
        tree.insert(b"k", b"v")
        with pytest.raises(DuplicateKeyError):
            tree.insert(b"k", b"w")
        assert tree.pool.pinned_pages() == []
        assert tree.pool.dirty_count() == 1


class TestCounters:
    def counters(self, tree):
        stats = tree.stats
        hist = stats.histogram("btree.search_entries")
        return (stats.get("btree.searches"),
                stats.get("btree.entries_scanned"),
                (hist.count, hist.sum) if hist else (0, 0))

    def build(self):
        tree = make_tree(page_size=256)
        for i in range(300):
            tree.insert(b"%03d" % (i // 3), b"%d" % (i % 3))
        assert tree.height() > 1
        return tree

    def test_probes_charge_what_they_return(self):
        tree = self.build()
        assert self.counters(tree) == (0, 0, (0, 0))
        assert tree.search(b"050") == [b"0", b"1", b"2"]
        assert self.counters(tree) == (1, 3, (1, 3))
        assert tree.search(b"zzz") == []
        assert self.counters(tree) == (2, 3, (2, 3))
        assert tree.search_one(b"050") == b"0"
        assert tree.search_one(b"050x") is None
        assert self.counters(tree) == (4, 4, (4, 4))
        assert tree.seek_ge(b"050x") == (b"051", b"0")
        assert tree.seek_ge(b"zzz") is None
        assert self.counters(tree) == (6, 5, (6, 5))

    def test_scan_charges_exactly_what_it_yielded(self):
        tree = self.build()
        assert len(list(tree.scan())) == 300
        assert self.counters(tree) == (0, 300, (0, 0))
        taken = 0
        for _ in tree.scan(low=b"010"):
            taken += 1
            if taken == 37:  # abandoned midway through some leaf
                break
        assert self.counters(tree)[1] == 337
        assert len(list(tree.scan_prefix(b"07"))) == 30
        # scan_prefix pulls one entry past the prefix to see it has ended.
        assert self.counters(tree)[1] == 368


class TestPins:
    def test_no_pin_while_a_scan_is_suspended(self):
        tree = make_tree(page_size=256)
        for i in range(200):
            tree.insert(b"%04d" % i, b"v")
        pool = tree.pool
        scan = tree.scan()
        for _ in range(3):  # suspended inside the first leaf
            next(scan)
            assert pool.pinned_pages() == []
        # The suspended scan holds no frame, so the leaf can split under it.
        tree.insert(b"0001x", b"v")
        assert next(scan)[0] == b"0003"
        del scan  # abandoned
        assert pool.pinned_pages() == []
        assert tree.stats.get("btree.entries_scanned") == 4


def flip(tree, page_id, offset, fmt, value):
    """Damage a resident node page behind the checksum's back."""
    data = tree.pool.fetch(page_id)
    try:
        struct.pack_into(fmt, data, offset, value)
    finally:
        tree.pool.unpin(page_id, dirty=True)


class TestVerify:
    def build(self, page_size=512):
        tree = make_tree(page_size=page_size)
        for i in range(400):
            tree.insert(b"key-%05d" % i, b"v%d" % i)
        assert tree.height() >= 2
        tree.verify()
        return tree

    def leaf_with(self, tree, key):
        """``(page id, slot count, cell offsets)`` of the leaf holding ``key``."""
        leaf = tree._leaf_for(key, b"v%d" % int(key[4:] or 0))
        data = tree.pool.fetch(leaf)
        try:
            count = struct.unpack_from("<H", data, 8)[0]
            return leaf, count, struct.unpack_from(f"<{count}H", data, 12)
        finally:
            tree.pool.unpin(leaf)

    def every_operation_fails_typed(self, tree, key):
        for op in (lambda: tree.search(key), lambda: tree.search_one(key),
                   lambda: tree.seek_ge(key), lambda: list(tree.scan(low=key)),
                   lambda: tree.insert(key + b"x", b"v"),
                   lambda: tree.delete(key), tree.verify):
            with pytest.raises(ReproError):
                op()
        assert tree.pool.pinned_pages() == []

    @pytest.mark.parametrize("offset, fmt, value", [
        (0, "<B", 7),         # kind
        (2, "<H", 0xFFF0),    # used: more cell bytes than the cell area
        (8, "<H", 0x7FFF),    # slot_count: directory past free_end
        (10, "<H", 0xFFFF),   # free_end: beyond the page
        (10, "<H", 4),        # free_end: inside the directory
    ])
    def test_damaged_root_header(self, offset, fmt, value):
        tree = self.build()
        flip(tree, tree.root_page, offset, fmt, value)
        self.every_operation_fails_typed(tree, b"key-00200")

    @pytest.mark.parametrize("value", [0, 11, 0xFFFF])
    def test_damaged_slot_directory(self, value):
        tree = self.build()
        leaf, count, _ = self.leaf_with(tree, b"key-00200")
        for slot in range(count):  # every probe lands on a bad offset
            flip(tree, leaf, 12 + 2 * slot, "<H", value)
        self.every_operation_fails_typed(tree, b"key-00200")

    def test_damaged_length_prefix(self):
        tree = self.build()
        leaf, _, offsets = self.leaf_with(tree, b"key-00200")
        for off in offsets:
            flip(tree, leaf, off, "<H", 0xFFFF)  # a key length of 16383+
        self.every_operation_fails_typed(tree, b"key-00200")

    def test_verify_catches_what_probes_cannot(self):
        tree = self.build()
        leaf, _, (first, second, *_) = self.leaf_with(tree, b"key-00200")
        flip(tree, leaf, 12, "<H", second)   # two valid cells, swapped
        flip(tree, leaf, 14, "<H", first)
        with pytest.raises(IndexError_, match="out of order"):
            tree.verify()

    def test_verify_checks_separators_chain_and_totals(self):
        tree = self.build()
        tree.entry_count += 1
        with pytest.raises(IndexError_, match="entry_count"):
            tree.verify()
        tree.entry_count -= 1
        leaf = self.leaf_with(tree, b"key-00200")[0]
        flip(tree, leaf, 4, "<I", 0)  # chain cut short
        with pytest.raises(IndexError_, match="chains"):
            tree.verify()

    def test_verify_checks_separator_bounds(self):
        tree = self.build()
        leaf, _, offsets = self.leaf_with(tree, b"")
        flip(tree, leaf, offsets[0] + 1, "<3s", b"zzz")  # the smallest key
        with pytest.raises(IndexError_):
            tree.verify()


KEY_LENGTHS = (1, 8, 40, 400)


def entry_strategy(page_size):
    lengths = [n for n in KEY_LENGTHS if n < page_size // 4]
    key = st.tuples(st.sampled_from(lengths), st.integers(0, 5)).map(
        lambda spec: bytes([97 + spec[1]]) * spec[0])
    return st.tuples(key, st.integers(0, 60).map(lambda n: b"%03d" % n))


def check_against(tree, ref):
    """``ref`` is the sorted list of entries the tree must hold."""
    tree.verify()
    assert len(tree) == len(ref)
    assert list(tree.scan()) == ref
    assert tree.pool.pinned_pages() == []
    for key in {k for k, _ in ref[::7]} | {b"", b"b" * 9, b"zz"}:
        pos = bisect.bisect_left(ref, (key, b""))
        assert tree.seek_ge(key) == (ref[pos] if pos < len(ref) else None)
        assert tree.search(key) == [v for k, v in ref if k == key]
        assert list(tree.scan_prefix(key)) == \
            [e for e in ref if e[0].startswith(key)]


class TestProperties:
    @pytest.mark.parametrize("page_size", [512, 4096])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_mixed_ops_match_sorted_reference(self, page_size, data):
        """Insert / delete / re-insert with skewed key lengths and
        duplicate-key runs that span splits."""
        tree = make_tree(page_size=page_size, capacity=256)
        ref: list = []
        batches = data.draw(st.lists(
            st.lists(entry_strategy(page_size), min_size=1, max_size=120),
            min_size=2, max_size=5))
        for number, batch in enumerate(batches):
            for entry in batch:
                pos = bisect.bisect_left(ref, entry)
                if pos < len(ref) and ref[pos] == entry:
                    with pytest.raises(DuplicateKeyError):
                        tree.insert(*entry)
                else:
                    tree.insert(*entry)
                    ref.insert(pos, entry)
            check_against(tree, ref)
            if number % 2 == 0:  # delete a drawn subset, then carry on
                doomed = data.draw(st.lists(st.sampled_from(ref), unique=True))
                for key, value in doomed:
                    assert tree.delete(key, value) is True
                    assert tree.delete(key, value) is False
                    ref.remove((key, value))
                check_against(tree, ref)

    @pytest.mark.parametrize("page_size", [512, 4096])
    @settings(max_examples=10, deadline=None)
    @given(entries=st.data())
    def test_deleted_space_is_reused(self, page_size, entries):
        drawn = entries.draw(st.lists(entry_strategy(page_size), min_size=50,
                                      max_size=400, unique=True))
        tree = make_tree(page_size=page_size, capacity=256)
        for entry in drawn:
            tree.insert(*entry)
        pages = tree.page_count
        for key, value in drawn[::2]:
            assert tree.delete(key, value) is True
        for key, _ in drawn[1::2]:
            assert tree.delete(key) is True  # first entry under the key
        assert len(tree) == 0 and list(tree.scan()) == []
        tree.verify()
        for entry in drawn:
            tree.insert(*entry)
        assert tree.page_count == pages == tree.pool.disk.page_count
        check_against(tree, sorted(drawn))


    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=20),
                              st.binary(max_size=20)),
                    min_size=1, max_size=300, unique=True))
    def test_scan_matches_sorted_reference(self, entries):
        tree = make_tree(page_size=256, capacity=128)
        for key, value in entries:
            tree.insert(key, value)
        assert list(tree.scan()) == sorted(entries)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=12), min_size=1,
                    max_size=200, unique=True),
           st.data())
    def test_insert_delete_mix(self, keys, data):
        tree = make_tree(page_size=256, capacity=128)
        for key in keys:
            tree.insert(key, b"v")
        to_delete = data.draw(st.lists(st.sampled_from(keys), unique=True))
        for key in to_delete:
            assert tree.delete(key) is True
        remaining = sorted(set(keys) - set(to_delete))
        assert [k for k, _ in tree.scan()] == remaining
