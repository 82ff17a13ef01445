"""Tests for Dewey prefix node IDs (§3.1 encoding rules)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeIdError
from repro.xdm import nodeid
from repro.xdm.nodeid import (ROOT_ID, ancestors, between, between_relative,
                              child_id, depth, format_id, is_ancestor,
                              is_ancestor_or_self, is_valid_relative, parent,
                              relative_from_ordinal, split_levels,
                              validate_absolute)


class TestRelativeEncoding:
    def test_small_ordinals_single_even_byte(self):
        assert relative_from_ordinal(1) == b"\x02"
        assert relative_from_ordinal(2) == b"\x04"
        assert relative_from_ordinal(127) == b"\xfe"

    def test_large_ordinals_use_continuation(self):
        rel = relative_from_ordinal(128)
        assert rel == b"\xff\x02"
        assert is_valid_relative(rel)
        assert is_valid_relative(relative_from_ordinal(1000))

    def test_ordinal_allocation_is_monotone(self):
        # Past the 1 143rd sibling IDs carry multi-digit numbers.
        ids = [relative_from_ordinal(n) for n in range(1, 20_000)]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert all(is_valid_relative(rel) for rel in ids)

    def test_validity_rules(self):
        assert is_valid_relative(b"\x02")
        assert is_valid_relative(b"\x01\x02")
        assert is_valid_relative(b"\xff\xff\x80")
        assert not is_valid_relative(b"")
        assert not is_valid_relative(b"\x03")       # odd terminator
        assert not is_valid_relative(b"\x02\x02")   # even continuation
        assert not is_valid_relative(b"\x00")       # zero reserved for root

    def test_bad_ordinal(self):
        with pytest.raises(NodeIdError):
            relative_from_ordinal(0)


class TestAbsoluteIds:
    def test_root_is_empty(self):
        assert ROOT_ID == b""
        assert depth(ROOT_ID) == 0
        assert format_id(ROOT_ID) == "00"

    def test_paper_example_order(self):
        """Figure 3: node IDs 02 < 0202 < 0204 < 0206 < 04 < 06 < 0602."""
        ids = [b"\x02", b"\x02\x02", b"\x02\x04", b"\x02\x06",
               b"\x04", b"\x06", b"\x06\x02"]
        assert ids == sorted(ids)  # document order == byte order

    def test_split_levels(self):
        assert split_levels(b"\x02\x01\x04\x06") == [b"\x02", b"\x01\x04", b"\x06"]

    def test_split_rejects_dangling(self):
        with pytest.raises(NodeIdError):
            split_levels(b"\x02\x01")
        with pytest.raises(NodeIdError):
            split_levels(b"\x02\x00")

    def test_parent(self):
        assert parent(b"\x02\x04") == b"\x02"
        assert parent(b"\x02") == ROOT_ID
        assert parent(b"\x02\x01\x04") == b"\x02"
        with pytest.raises(NodeIdError):
            parent(ROOT_ID)

    def test_ancestors(self):
        assert list(ancestors(b"\x02\x04\x06")) == [b"", b"\x02", b"\x02\x04"]

    def test_ancestor_prefix_test(self):
        assert is_ancestor_or_self(b"\x02", b"\x02\x04")
        assert is_ancestor_or_self(b"\x02", b"\x02")
        assert is_ancestor(b"", b"\x02")
        assert not is_ancestor(b"\x02", b"\x02")
        assert not is_ancestor(b"\x02", b"\x04\x02")

    def test_child_id(self):
        assert child_id(b"\x02", 3) == b"\x02\x06"

    def test_format(self):
        assert format_id(b"\x02\x01\x04") == "02.0104"

    def test_validate_absolute(self):
        validate_absolute(b"\x02\x01\x04\x06")
        with pytest.raises(NodeIdError):
            validate_absolute(b"\x01")


class TestBetween:
    def check(self, low, high):
        mid = between_relative(low, high)
        assert is_valid_relative(mid)
        if low is not None:
            assert low < mid
        if high is not None:
            assert mid < high
        return mid

    def test_simple_gap(self):
        assert self.check(b"\x02", b"\x06") in (b"\x04",)

    def test_adjacent_evens_extend_length(self):
        mid = self.check(b"\x02", b"\x04")
        assert len(mid) > 1  # forced to extend, e.g. 03-80

    def test_before_first(self):
        self.check(None, b"\x02")
        self.check(None, b"\x01\x02")
        self.check(None, b"\x01\x01\x02")

    def test_after_last(self):
        assert self.check(b"\x02", None) == b"\x04"
        self.check(b"\xfe", None)
        self.check(b"\xff\x02", None)
        self.check(b"\xff\xfe", None)

    def test_between_generated_neighbors(self):
        mid = between_relative(b"\x02", b"\x04")
        again = self.check(b"\x02", mid)
        self.check(again, mid)

    def test_no_gap_raises(self):
        with pytest.raises(NodeIdError):
            between_relative(b"\x04", b"\x02")
        with pytest.raises(NodeIdError):
            between_relative(b"\x02", b"\x02")

    def test_invalid_inputs(self):
        with pytest.raises(NodeIdError):
            between_relative(b"\x03", b"\x06")

    def test_repeated_splitting_stays_valid(self):
        """Split the same gap 64 times; §3.1 says space always exists."""
        low, high = b"\x02", b"\x04"
        for _ in range(64):
            mid = self.check(low, high)
            high = mid  # keep inserting before the previous insertion
        low, high = b"\x02", b"\x04"
        for _ in range(64):
            mid = self.check(low, high)
            low = mid  # and after

    def test_absolute_between(self):
        parent_id = b"\x02"
        left, right = b"\x02\x02", b"\x02\x04"
        mid = between(left, right, parent_id)
        assert left < mid < right
        assert mid.startswith(parent_id)
        assert nodeid.parent(mid) == parent_id

    def test_absolute_between_validates_parentage(self):
        with pytest.raises(NodeIdError):
            between(b"\x04\x02", None, b"\x02")
        with pytest.raises(NodeIdError):
            between(b"\x02\x02\x02", None, b"\x02")  # grandchild, not child


@st.composite
def relative_ids(draw):
    body = draw(st.lists(st.sampled_from([1, 3, 5, 127, 253, 255]),
                         max_size=3))
    last = draw(st.sampled_from([2, 4, 128, 252, 254]))
    return bytes(body + [last])


class TestBetweenProperties:
    @settings(max_examples=300, deadline=None)
    @given(relative_ids(), relative_ids())
    def test_between_any_pair(self, a, b):
        if a == b:
            return
        low, high = (a, b) if a < b else (b, a)
        mid = between_relative(low, high)
        assert is_valid_relative(mid)
        assert low < mid < high

    @settings(max_examples=100, deadline=None)
    @given(relative_ids())
    def test_open_ends(self, rel):
        below = between_relative(None, rel)
        above = between_relative(rel, None)
        assert is_valid_relative(below) and below < rel
        assert is_valid_relative(above) and above > rel

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                    max_size=40))
    def test_random_split_sequence(self, directions):
        """Repeatedly bisect a gap; all generated IDs stay valid and ordered."""
        low, high = b"\x02", b"\x04"
        for direction in directions:
            mid = between_relative(low, high)
            assert is_valid_relative(mid)
            assert low < mid < high
            if direction:
                low = mid
            else:
                high = mid
