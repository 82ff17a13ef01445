"""Subdocument concurrency: node-ID multiple-granularity locking (§5.2).

"We believe a multiple granularity locking is needed given the hierarchical
nature of XML data.  Since we use prefix-encoded node IDs, locking using node
IDs can support the protocol efficiently because ancestor-descendant
relationship can be checked by testing if one is a prefix of the other."

:class:`PrefixLockTable` implements exactly that: a lock on node ``n``
implicitly covers ``n``'s whole subtree; two locks conflict iff their node
IDs stand in a prefix (ancestor-descendant or equal) relationship and their
modes are incompatible.  Locking the empty ID locks the whole document, so
document-level locking is the degenerate case — experiment E9b compares the
two granularities on disjoint-subtree write workloads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.stats import StatsRegistry, default_stats
from repro.rdb.locks import LockMode, mode_compatible, mode_lub
from repro.xdm.nodeid import is_ancestor_or_self


@dataclass(frozen=True)
class NodeLock:
    docid: int
    node_id: bytes
    mode: LockMode


def subtree_overlaps(a: bytes, b: bytes) -> bool:
    """Do the subtrees rooted at ``a`` and ``b`` share any node?

    True iff one ID is a prefix of the other — the paper's prefix test.
    """
    return is_ancestor_or_self(a, b) or is_ancestor_or_self(b, a)


class PrefixLockTable:
    """Subtree locks with prefix-test conflict detection.

    Implements the scheduler's LockBackend protocol; resources are
    ``(docid, node_id)`` pairs.
    """

    def __init__(self, stats: StatsRegistry | None = None) -> None:
        self.stats = default_stats(stats)
        self._granted: dict[int, dict[tuple[int, bytes], LockMode]] = \
            defaultdict(dict)  # txn -> {(docid, node): mode}
        self._waits_for: dict[int, set[int]] = defaultdict(set)
        self.prefix_tests = 0

    def try_acquire(self, txn_id: int, resource: object,
                    mode: LockMode) -> bool:
        docid, node_id = resource  # type: ignore[misc]
        held = self._granted[txn_id].get((docid, node_id))
        effective = mode if held is None else mode_lub(held, mode)
        blockers = []
        for other, locks in self._granted.items():
            if other == txn_id:
                continue
            for (other_doc, other_node), other_mode in locks.items():
                if other_doc != docid:
                    continue
                self.prefix_tests += 1
                if not subtree_overlaps(node_id, other_node):
                    continue
                if not mode_compatible(effective, other_mode):
                    blockers.append(other)
        if blockers:
            self.stats.add("lock.waits")
            self._waits_for[txn_id].update(blockers)
            return False
        self._granted[txn_id][(docid, node_id)] = effective
        self._waits_for.pop(txn_id, None)
        self.stats.add("lock.acquired")
        return True

    def holds(self, txn_id: int, docid: int, node_id: bytes) -> bool:
        return (docid, node_id) in self._granted.get(txn_id, {})

    def covers(self, txn_id: int, docid: int, node_id: bytes,
               mode: LockMode) -> bool:
        """Does some lock of ``txn_id`` cover ``node_id`` at least in mode?"""
        for (held_doc, held_node), held_mode in \
                self._granted.get(txn_id, {}).items():
            if held_doc == docid and is_ancestor_or_self(held_node, node_id) \
                    and mode_lub(held_mode, mode) == held_mode:
                return True
        return False

    def release_all(self, txn_id: int) -> None:
        self._granted.pop(txn_id, None)
        self._waits_for.pop(txn_id, None)
        for edges in self._waits_for.values():
            edges.discard(txn_id)

    def find_deadlock(self) -> list[int] | None:
        graph = {t: set(e) for t, e in self._waits_for.items()}
        visited: set[int] = set()
        for start in graph:
            if start in visited:
                continue
            path: list[int] = []
            on_path: set[int] = set()

            def dfs(node: int) -> list[int] | None:
                visited.add(node)
                path.append(node)
                on_path.add(node)
                for succ in graph.get(node, ()):  # noqa: B023
                    if succ in on_path:
                        return path[path.index(succ):]
                    if succ not in visited:
                        found = dfs(succ)
                        if found is not None:
                            return found
                path.pop()
                on_path.discard(node)
                return None

            cycle = dfs(start)
            if cycle is not None:
                self.stats.add("lock.deadlocks")
                return cycle
        return None


class DocumentGranularityAdapter:
    """Same interface, but every lock is escalated to the whole document —
    the document-level baseline E9b compares against."""

    def __init__(self, table: PrefixLockTable) -> None:
        self.table = table

    def try_acquire(self, txn_id: int, resource: object,
                    mode: LockMode) -> bool:
        docid, _node_id = resource  # type: ignore[misc]
        return self.table.try_acquire(txn_id, (docid, b""), mode)

    def release_all(self, txn_id: int) -> None:
        self.table.release_all(txn_id)

    def find_deadlock(self) -> list[int] | None:
        return self.table.find_deadlock()
