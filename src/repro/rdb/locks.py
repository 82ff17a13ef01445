"""Lock manager: multiple-granularity modes, upgrade, deadlock detection.

The relational lock manager of Fig. 1, "enhanced to support ... concurrency
of XML operations" (§2).  It is deliberately *non-blocking*: ``try_acquire``
either grants or reports a conflict, and the deterministic scheduler in
``repro.cc.scheduler`` retries blocked transactions, which keeps concurrency
experiments reproducible.  A waits-for graph detects deadlocks.

Resources are arbitrary hashable keys.  The XML services lock tuples such as
``("doc", table, docid)`` (DocID locks, §5.1) or ``("node", docid, nodeid)``
(node locks, §5.2); the manager itself is agnostic, exactly as in the paper
where one lock manager covers relational and XML resources.
"""

from __future__ import annotations

import enum
import threading

from repro.analyze import sanitize as _sanitize
from repro.core.stats import StatsRegistry, default_stats


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

    Three plain maps behind **one** lock.  Every engine entry already runs
    under the engine latch, so the lock never splits real contention; it
    exists for the readers that run off the latch — the monitor's
    lock-table snapshot and the overload guard's :meth:`waiter_count` on
    the admission path.  It is a tracked latch (token ``locks._lock``) when
    the sanitizers are armed at construction, a plain ``threading.Lock``
    otherwise.
    """

    def __init__(self, stats: StatsRegistry | None = None) -> None:
        self.stats = default_stats(stats)
        self._lock = _sanitize.TrackedLock("locks._lock") \
            if _sanitize.enabled() else threading.Lock()
        #: {resource: {txn_id: mode}}
        self._granted: dict[object, dict[int, LockMode]] = {}
        #: {txn_id: set of resources held}
        self._held: dict[int, set[object]] = {}
        #: {waiter txn_id: set of blocker txn_ids}
        self._waits_for: dict[int, set[int]] = {}

    def _witness(self, *fields: str) -> None:
        """Report writes to the lock-table maps to the lockset sanitizer."""
        if _sanitize.enabled():
            for field in fields:
                _sanitize.shared_access(self.stats, "LockManager", field,
                                        write=True)

    def try_acquire(self, txn_id: int, resource: object, mode: LockMode) -> bool:
        """Grant ``mode`` on ``resource`` to ``txn_id`` if compatible.

        Re-requests upgrade to the least upper bound of held and requested
        modes.  On conflict, records waits-for edges and returns ``False``.
        """
        with self._lock:
            self._witness("_granted", "_held", "_waits_for")
            holders = self._granted.setdefault(resource, {})
            held = holders.get(txn_id)
            effective = mode if held is None else mode_lub(held, mode)
            blockers = [
                other for other, other_mode in holders.items()
                if other != txn_id
                and not mode_compatible(effective, other_mode)
            ]
            if blockers:
                self._waits_for.setdefault(txn_id, set()).update(blockers)
            else:
                holders[txn_id] = effective
                self._held.setdefault(txn_id, set()).add(resource)
                self._waits_for.pop(txn_id, None)
        if blockers:
            self.stats.add("lock.waits")
            self.stats.trace_event("lock.wait", txn=txn_id,
                                   resource=str(resource),
                                   mode=effective.name,
                                   blockers=len(blockers))
            return False
        self.stats.add("lock.acquired")
        if _sanitize.enabled():
            _sanitize.on_lock_acquired(self.stats, txn_id, resource)
        return True

    def holds(self, txn_id: int, resource: object,
              mode: LockMode | None = None) -> bool:
        """Whether ``txn_id`` holds ``resource`` (at least in ``mode``)."""
        with self._lock:
            held = self._granted.get(resource, {}).get(txn_id)
        if held is None:
            return False
        return mode is None or mode_lub(held, mode) == held

    def holders(self, resource: object) -> dict[int, LockMode]:
        """Snapshot of granted modes on ``resource``."""
        with self._lock:
            return dict(self._granted.get(resource, {}))

    def release_all(self, txn_id: int) -> None:
        """Drop every lock held by ``txn_id`` (commit/abort time).

        Also erases ``txn_id`` from every other waiter's edge set, and —
        crucially — drops waiters whose edge set *empties*: a leftover
        ``{waiter: set()}`` entry would keep counting in
        :meth:`waiter_count` as a phantom waiter (the serving layer's
        overload guard sheds on that number) even though nothing blocks
        the transaction any more.
        """
        with self._lock:
            self._witness("_granted", "_held", "_waits_for")
            for resource in self._held.pop(txn_id, ()):
                holders = self._granted.get(resource)
                if holders is not None:
                    holders.pop(txn_id, None)
                    if not holders:
                        del self._granted[resource]
            self._waits_for.pop(txn_id, None)
            for waiter in list(self._waits_for):
                edges = self._waits_for[waiter]
                edges.discard(txn_id)
                if not edges:
                    del self._waits_for[waiter]
        if _sanitize.enabled():
            _sanitize.on_locks_released(txn_id)

    def clear_waits(self, txn_id: int) -> None:
        """Forget ``txn_id``'s waits-for edges without releasing its locks.

        Called when a blocked request gives up (lock timeout): the
        transaction keeps what it holds but no longer waits, so its stale
        edges cannot produce false deadlock cycles.
        """
        with self._lock:
            self._witness("_waits_for")
            self._waits_for.pop(txn_id, None)

    def locks_held(self, txn_id: int) -> int:
        """Number of resources currently locked by ``txn_id``."""
        with self._lock:
            return len(self._held.get(txn_id, ()))

    # -- introspection (DISPLAY-style snapshots, repro.obs.monitor) --------

    def lock_table(self) -> dict[object, dict[int, LockMode]]:
        """Copy of the granted-lock table: ``{resource: {txn: mode}}``."""
        with self._lock:
            return {resource: dict(holders)
                    for resource, holders in self._granted.items()}

    def waiter_count(self) -> int:
        """Number of transactions currently recorded as waiting.

        Unlike :meth:`waits_for_edges` this does not copy the graph, so the
        serving layer's overload guard can afford it on the admission path.
        :meth:`release_all` keeps the map free of empty edge sets, so every
        counted entry is a real waiter.
        """
        with self._lock:
            return len(self._waits_for)

    def waits_for_edges(self) -> dict[int, frozenset[int]]:
        """Copy of the waits-for graph: ``{waiter: blockers}``."""
        with self._lock:
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
                self.stats.trace_event("lock.deadlock",
                                       cycle=[int(t) for t in cycle])
                return cycle
        return None
