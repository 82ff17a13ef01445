"""Lock manager: multiple-granularity modes, upgrade, deadlock detection.

The relational lock manager of Fig. 1, "enhanced to support ... concurrency
of XML operations" (§2).  It is deliberately *non-blocking*: ``try_acquire``
either grants or reports a conflict.  A blocked transaction asks again
later: the deterministic scheduler in ``repro.cc.scheduler`` re-issues its
program's request on a later step, which keeps concurrency experiments
reproducible, and ``Transaction.lock`` retries under a bounded backoff.  A
waits-for graph detects deadlocks.

Resources are arbitrary hashable keys: class-tagged tuples such as
``("table", name)``, ``("row", table, rid)`` and ``("doc", column, docid)``
(DocID locks, §5.1), which conflict only with themselves; as in the paper,
one lock manager covers relational and XML resources.  The one exception is
the node lock ``("node", column, docid, node_id)`` (§5.2): it locks the
whole subtree rooted at ``node_id``, so it conflicts with every node lock
on the same document whose ID it is a prefix of or that is a prefix of it
— "ancestor-descendant relationship can be checked by testing if one is a
prefix of the other".  The empty ID ``b""`` locks the whole document.  A
node lock and a ``("doc", ...)`` lock are unrelated resources.
"""

from __future__ import annotations

import enum

from repro.core.stats import StatsRegistry, default_stats
from repro.xdm.nodeid import is_ancestor_or_self


class LockMode(enum.IntEnum):
    """Multiple-granularity lock modes [4]."""

    IS = 0
    IX = 1
    S = 2
    SIX = 3
    U = 4
    X = 5


_M = LockMode
#: compat[a][b] — may a newly requested mode `a` coexist with granted `b`?
_COMPAT: dict[LockMode, set[LockMode]] = {
    _M.IS: {_M.IS, _M.IX, _M.S, _M.SIX, _M.U},
    _M.IX: {_M.IS, _M.IX},
    _M.S: {_M.IS, _M.S, _M.U},
    _M.SIX: {_M.IS},
    _M.U: {_M.IS, _M.S},
    _M.X: set(),
}

#: Least upper bound of two modes, used for lock upgrades.
_LUB: dict[tuple[LockMode, LockMode], LockMode] = {}
for _a in _M:
    for _b in _M:
        if _a == _b:
            _LUB[(_a, _b)] = _a
        elif {_a, _b} == {_M.IS, _M.IX}:
            _LUB[(_a, _b)] = _M.IX
        elif {_a, _b} == {_M.IS, _M.S}:
            _LUB[(_a, _b)] = _M.S
        elif {_a, _b} == {_M.IS, _M.SIX} or {_a, _b} == {_M.IX, _M.S} or \
                {_a, _b} == {_M.IX, _M.SIX} or {_a, _b} == {_M.S, _M.SIX} or \
                {_a, _b} == {_M.SIX, _M.U}:
            _LUB[(_a, _b)] = _M.SIX
        elif {_a, _b} == {_M.IS, _M.U} or {_a, _b} == {_M.S, _M.U}:
            _LUB[(_a, _b)] = _M.U
        else:
            _LUB[(_a, _b)] = _M.X


def mode_compatible(requested: LockMode, granted: LockMode) -> bool:
    """Whether ``requested`` may be granted alongside ``granted``."""
    return granted in _COMPAT[requested]


def mode_lub(a: LockMode, b: LockMode) -> LockMode:
    """Least mode at least as strong as both ``a`` and ``b``."""
    return _LUB[(a, b)]


class LockManager:
    """The lock table: granted modes, per-transaction holdings, waits-for.

    Four plain maps with no lock of their own: like every other engine
    structure they are read and written only under the engine latch
    (``Database.latch``), which the serving layer holds for the whole of
    each request.
    """

    def __init__(self, stats: StatsRegistry | None = None) -> None:
        self.stats = default_stats(stats)
        #: {resource: {txn_id: mode}}
        self._granted: dict[object, dict[int, LockMode]] = {}
        #: {txn_id: set of resources held}
        self._held: dict[int, set[object]] = {}
        #: {waiter txn_id: set of blocker txn_ids}
        self._waits_for: dict[int, set[int]] = {}
        #: {("node", column, docid): set of granted node resources}
        self._nodes: dict[tuple, set[tuple]] = {}

    def try_acquire(self, txn_id: int, resource: object, mode: LockMode) -> bool:
        """Grant ``mode`` on ``resource`` to ``txn_id`` if compatible.

        Re-requests upgrade to the least upper bound of held and requested
        modes.  On conflict, records waits-for edges and returns ``False``.
        """
        holders = self._granted.get(resource)
        held = holders.get(txn_id) if holders else None
        effective = mode if held is None else mode_lub(held, mode)
        node = resource.__class__ is tuple and resource[0] == "node"
        if node:
            blockers = self._node_blockers(txn_id, resource, effective)
        elif holders:
            blockers = [
                other for other, other_mode in holders.items()
                if other != txn_id and not mode_compatible(effective, other_mode)
            ]
        else:
            blockers = []
        if blockers:
            self._waits_for.setdefault(txn_id, set()).update(blockers)
            self.stats.add("lock.waits")
            return False
        if holders is None:
            holders = self._granted[resource] = {}
            if node:
                self._nodes.setdefault(resource[:3], set()).add(resource)
        holders[txn_id] = effective
        self._held.setdefault(txn_id, set()).add(resource)
        self._waits_for.pop(txn_id, None)
        self.stats.add("lock.acquired")
        return True

    def _node_blockers(self, txn_id: int, resource: tuple,
                       mode: LockMode) -> list[int]:
        """Other transactions whose node locks on ``resource``'s document
        overlap its subtree (the prefix test) in a mode incompatible with
        ``mode``: one prefix test per node locked on the document."""
        locked = self._nodes.get(resource[:3], ())
        if not locked:
            return []
        self.stats.add("lock.prefix_tests", len(locked))
        node_id = resource[3]
        return [
            other
            for other_resource in locked
            if is_ancestor_or_self(node_id, other_resource[3])
            or is_ancestor_or_self(other_resource[3], node_id)
            for other, other_mode in self._granted[other_resource].items()
            if other != txn_id and not mode_compatible(mode, other_mode)
        ]

    def holds(self, txn_id: int, resource: object,
              mode: LockMode | None = None) -> bool:
        """Whether ``txn_id`` holds ``resource`` (at least in ``mode``)."""
        held = self._granted.get(resource, {}).get(txn_id)
        if held is None:
            return False
        return mode is None or mode_lub(held, mode) == held

    def holders(self, resource: object) -> dict[int, LockMode]:
        """Snapshot of granted modes on ``resource``."""
        return dict(self._granted.get(resource, {}))

    def release_all(self, txn_id: int) -> None:
        """Drop every lock held by ``txn_id`` (commit/abort time).

        Also erases ``txn_id`` from every other waiter's edge set, and
        drops waiters whose edge set *empties*: a leftover
        ``{waiter: set()}`` entry would be a phantom waiter in
        :meth:`waits_for_edges` although nothing blocks the transaction
        any more.
        """
        for resource in self._held.pop(txn_id, ()):
            holders = self._granted.get(resource)
            if holders is not None:
                holders.pop(txn_id, None)
                if not holders:
                    del self._granted[resource]
                    if resource.__class__ is tuple and resource[0] == "node":
                        locked = self._nodes[resource[:3]]
                        locked.discard(resource)
                        if not locked:
                            del self._nodes[resource[:3]]
        self._waits_for.pop(txn_id, None)
        for waiter in list(self._waits_for):
            edges = self._waits_for[waiter]
            edges.discard(txn_id)
            if not edges:
                del self._waits_for[waiter]

    def clear_waits(self, txn_id: int) -> None:
        """Forget ``txn_id``'s waits-for edges without releasing its locks.

        Called when a blocked request gives up (lock timeout): the
        transaction keeps what it holds but no longer waits, so its stale
        edges cannot produce false deadlock cycles.
        """
        self._waits_for.pop(txn_id, None)

    def locks_held(self, txn_id: int) -> int:
        """Number of resources currently locked by ``txn_id``."""
        return len(self._held.get(txn_id, ()))

    # -- introspection -----------------------------------------------------

    def lock_table(self) -> dict[object, dict[int, LockMode]]:
        """Copy of the granted-lock table: ``{resource: {txn: mode}}``."""
        return {resource: dict(holders)
                for resource, holders in self._granted.items()}

    def waits_for_edges(self) -> dict[int, frozenset[int]]:
        """Copy of the waits-for graph: ``{waiter: blockers}``."""
        return {waiter: frozenset(blockers)
                for waiter, blockers in self._waits_for.items()}

    def find_deadlock(self) -> list[int] | None:
        """Return a cycle of transaction ids in the waits-for graph, if any."""
        graph = {t: set(edges) for t, edges in self.waits_for_edges().items()}
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
                        cycle = path[path.index(succ):]
                        return cycle
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
