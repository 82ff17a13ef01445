"""Sorting infrastructure: external merge sort and linked-list quicksort.

The paper contrasts two sort paths for ``XMLAGG ... ORDER BY`` (§4.1): the
"typical external SORT" over work files, which "suffers from significant
overhead" per group, versus applying "in-memory quicksort to the linked list
representation of rows".  Both are implemented here so experiment E7 can
reproduce the comparison: the external sort really spills runs through a
work-file table space (counting page I/O), and the quicksort really operates
on a linked list.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Optional

from repro.rdb import codec
from repro.rdb.tablespace import TableSpace


class RowNode:
    """One cell of the singly linked row list used by XMLAGG groups."""

    __slots__ = ("payload", "sort_key", "next")

    def __init__(self, payload: object, sort_key: object) -> None:
        self.payload = payload
        self.sort_key = sort_key
        self.next: Optional["RowNode"] = None


def linked_list_from(rows: Iterable[tuple[object, object]]) -> RowNode | None:
    """Build a linked list from ``(payload, sort_key)`` pairs, keeping order."""
    head: RowNode | None = None
    tail: RowNode | None = None
    for payload, sort_key in rows:
        node = RowNode(payload, sort_key)
        if tail is None:
            head = node
        else:
            tail.next = node
        tail = node
    return head


def linked_list_to_list(head: RowNode | None) -> list[object]:
    """Collect payloads from a linked list into a Python list."""
    out = []
    node = head
    while node is not None:
        out.append(node.payload)
        node = node.next
    return out


def _partition(node: RowNode | None, pivot_key: object):
    """Split a list into (<, ==, >) sublists around ``pivot_key``.

    Returns ``(less, equal_head, equal_tail, greater)``; each sublist is
    properly nil-terminated and preserves relative order (stable).
    """
    less = less_tail = None
    equal = equal_tail = None
    greater = greater_tail = None
    while node is not None:
        nxt = node.next
        node.next = None
        if node.sort_key < pivot_key:  # type: ignore[operator]
            if less_tail is None:
                less = less_tail = node
            else:
                less_tail.next = node
                less_tail = node
        elif node.sort_key > pivot_key:  # type: ignore[operator]
            if greater_tail is None:
                greater = greater_tail = node
            else:
                greater_tail.next = node
                greater_tail = node
        else:
            if equal_tail is None:
                equal = equal_tail = node
            else:
                equal_tail.next = node
                equal_tail = node
        node = nxt
    return less, equal, equal_tail, greater


def quicksort_linked_list(head: RowNode | None) -> RowNode | None:
    """Sort a linked list of rows by ``sort_key`` in place (stable).

    This is the paper's in-memory XMLAGG path: no array materialization, no
    work files — nodes are re-linked.  An explicit worklist replaces
    recursion so long lists cannot overflow Python's recursion limit.  The
    worklist invariant: segments are stacked in reverse output order, so
    finished runs are emitted in ascending key order.
    """
    out_head: RowNode | None = None
    out_tail: RowNode | None = None

    def emit(first: RowNode, last: RowNode) -> None:
        nonlocal out_head, out_tail
        if out_tail is None:
            out_head = first
        else:
            out_tail.next = first
        out_tail = last

    # Items: ("seg", head) for unsorted sublists; ("run", head, tail) for
    # already-sorted runs of equal keys.
    work: list[tuple] = []
    if head is not None:
        work.append(("seg", head))
    while work:
        item = work.pop()
        if item[0] == "run":
            emit(item[1], item[2])
            continue
        segment: RowNode = item[1]
        if segment.next is None:
            emit(segment, segment)
            continue
        less, equal, equal_tail, greater = _partition(segment, segment.sort_key)
        assert equal is not None and equal_tail is not None
        if greater is not None:
            work.append(("seg", greater))
        work.append(("run", equal, equal_tail))
        if less is not None:
            work.append(("seg", less))
    if out_tail is not None:
        out_tail.next = None
    return out_head


class ExternalSorter:
    """External merge sort spilling runs through a work-file table space.

    Rows are serialized with ``encode`` and written as records; each run is a
    contiguous sequence of records.  ``run_limit`` rows are sorted in memory
    per run (simulating a bounded sort heap), then the runs are merged with a
    heap while streaming records back from the work files.
    """

    def __init__(self, work_space: TableSpace, encode: Callable[[object], bytes],
                 decode: Callable[[bytes], object], run_limit: int = 128) -> None:
        if run_limit < 2:
            raise ValueError("run_limit must be at least 2")
        self.work_space = work_space
        self.encode = encode
        self.decode = decode
        self.run_limit = run_limit
        self.runs_spilled = 0

    def sort(self, rows: Iterable[tuple[object, object]]) -> Iterator[object]:
        """Yield payloads of ``(payload, sort_key)`` pairs in key order."""
        runs: list[list] = []
        batch: list[tuple[object, object]] = []

        def spill(batch: list[tuple[object, object]]) -> list:
            batch.sort(key=lambda pair: pair[1])  # type: ignore[arg-type, return-value]
            rids = []
            for payload, sort_key in batch:
                body = bytearray()
                codec.write_bytes(body, self.encode(payload))
                codec.write_bytes(body, self.encode(sort_key))
                rids.append(self.work_space.insert(bytes(body)))
            self.runs_spilled += 1
            return rids

        for pair in rows:
            batch.append(pair)
            if len(batch) >= self.run_limit:
                runs.append(spill(batch))
                batch = []
        if batch:
            runs.append(spill(batch))
        if not runs:
            return

        def run_iter(rids: list) -> Iterator[tuple[object, object]]:
            for rid in rids:
                body = self.work_space.read(rid)
                payload_raw, pos = codec.read_bytes(body, 0)
                key_raw, _ = codec.read_bytes(body, pos)
                yield self.decode(payload_raw), self.decode(key_raw)

        heap: list[tuple[object, int, object, Iterator]] = []
        for run_no, rids in enumerate(runs):
            it = run_iter(rids)
            try:
                payload, sort_key = next(it)
            except StopIteration:
                continue
            heap.append((sort_key, run_no, payload, it))
        heapq.heapify(heap)
        while heap:
            sort_key, run_no, payload, it = heapq.heappop(heap)
            yield payload
            try:
                payload, sort_key = next(it)
            except StopIteration:
                continue
            heapq.heappush(heap, (sort_key, run_no, payload, it))
