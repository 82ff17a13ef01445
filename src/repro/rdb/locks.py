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


def _stripe_latch(token: str) -> object:
    """A stripe latch: tracked when the sanitizers are armed at build time.

    Token identity is the stripe *family*, not the instance — the lockset
    discipline reasons about "some resource-stripe latch held", which is
    the same granularity the static guard inference uses.  Plain
    ``threading.Lock`` when disarmed: stripes are the lock manager's hot
    path and the tracked wrapper is not free.
    """
    if _sanitize.enabled():
        return _sanitize.TrackedLock(token)
    return threading.Lock()


class _ResourceStripe:
    """One shard of the granted-lock table, with its own latch."""

    __slots__ = ("latch", "granted")

    def __init__(self) -> None:
        self.latch = _stripe_latch("lock.resource_stripe")
        #: {resource: {txn_id: mode}}
        self.granted: dict[object, dict[int, LockMode]] = {}


class _TxnStripe:
    """One shard of the per-transaction bookkeeping (held + waits-for)."""

    __slots__ = ("latch", "held", "waits_for")

    def __init__(self) -> None:
        self.latch = _stripe_latch("lock.txn_stripe")
        #: {txn_id: set of resources held}
        self.held: dict[int, set[object]] = {}
        #: {waiter txn_id: set of blocker txn_ids}
        self.waits_for: dict[int, set[int]] = {}


class LockManager:
    """Striped lock table with per-transaction bookkeeping.

    The table is sharded the way DB2's IRLM hashes lock names: resources
    hash onto :class:`_ResourceStripe` shards of the granted-lock table and
    transaction ids onto :class:`_TxnStripe` shards of the held/waits-for
    maps, each stripe with its own latch.  A request touches exactly one
    stripe of each kind and never holds two stripe latches at once, so the
    stripes cannot deadlock against each other and concurrent requests on
    different resources no longer serialize on one hot dict lock.

    Consistency note: an operation sees each stripe atomically but the
    *cross*-stripe view (``lock_table``, ``find_deadlock``) is a sequence
    of per-stripe snapshots — the same fuzziness a real striped lock
    manager accepts, and engine entries still run under the engine latch.
    """

    def __init__(self, stats: StatsRegistry | None = None,
                 stripes: int = 16) -> None:
        self.stats = default_stats(stats)
        count = max(1, stripes)
        self._resource_stripes = [_ResourceStripe() for _ in range(count)]
        self._txn_stripes = [_TxnStripe() for _ in range(count)]

    def _resource_stripe(self, resource: object) -> _ResourceStripe:
        return self._resource_stripes[hash(resource)
                                      % len(self._resource_stripes)]

    def _txn_stripe(self, txn_id: int) -> _TxnStripe:
        return self._txn_stripes[hash(txn_id) % len(self._txn_stripes)]

    def try_acquire(self, txn_id: int, resource: object, mode: LockMode) -> bool:
        """Grant ``mode`` on ``resource`` to ``txn_id`` if compatible.

        Re-requests upgrade to the least upper bound of held and requested
        modes.  On conflict, records waits-for edges and returns ``False``.
        """
        stripe = self._resource_stripe(resource)
        with stripe.latch:
            if _sanitize.enabled():
                _sanitize.shared_access(self.stats, "LockStripe",
                                        "granted", write=True)
            holders = stripe.granted.setdefault(resource, {})
            held = holders.get(txn_id)
            effective = mode if held is None else mode_lub(held, mode)
            blockers = [
                other for other, other_mode in holders.items()
                if other != txn_id
                and not mode_compatible(effective, other_mode)
            ]
            if not blockers:
                holders[txn_id] = effective
        txn_stripe = self._txn_stripe(txn_id)
        if blockers:
            self.stats.add("lock.waits")
            self.stats.trace_event("lock.wait", txn=txn_id,
                                   resource=str(resource),
                                   mode=effective.name,
                                   blockers=len(blockers))
            with txn_stripe.latch:
                if _sanitize.enabled():
                    _sanitize.shared_access(self.stats, "LockStripe",
                                            "waits_for", write=True)
                txn_stripe.waits_for.setdefault(txn_id, set()) \
                    .update(blockers)
            return False
        with txn_stripe.latch:
            if _sanitize.enabled():
                _sanitize.shared_access(self.stats, "LockStripe",
                                        "held", write=True)
                _sanitize.shared_access(self.stats, "LockStripe",
                                        "waits_for", write=True)
            txn_stripe.held.setdefault(txn_id, set()).add(resource)
            txn_stripe.waits_for.pop(txn_id, None)
        self.stats.add("lock.acquired")
        if _sanitize.enabled():
            _sanitize.on_lock_acquired(self.stats, txn_id, resource)
        return True

    def holds(self, txn_id: int, resource: object,
              mode: LockMode | None = None) -> bool:
        """Whether ``txn_id`` holds ``resource`` (at least in ``mode``)."""
        stripe = self._resource_stripe(resource)
        with stripe.latch:
            held = stripe.granted.get(resource, {}).get(txn_id)
        if held is None:
            return False
        return mode is None or mode_lub(held, mode) == held

    def holders(self, resource: object) -> dict[int, LockMode]:
        """Snapshot of granted modes on ``resource``."""
        stripe = self._resource_stripe(resource)
        with stripe.latch:
            return dict(stripe.granted.get(resource, {}))

    def release_all(self, txn_id: int) -> None:
        """Drop every lock held by ``txn_id`` (commit/abort time).

        Also erases ``txn_id`` from every other waiter's edge set, and —
        crucially — drops waiters whose edge set *empties*: a leftover
        ``{waiter: set()}`` entry would keep counting in
        :meth:`waiter_count` as a phantom waiter (the serving layer's
        overload guard sheds on that number) even though nothing blocks
        the transaction any more.
        """
        txn_stripe = self._txn_stripe(txn_id)
        with txn_stripe.latch:
            if _sanitize.enabled():
                _sanitize.shared_access(self.stats, "LockStripe",
                                        "held", write=True)
                _sanitize.shared_access(self.stats, "LockStripe",
                                        "waits_for", write=True)
            held = txn_stripe.held.pop(txn_id, set())
            txn_stripe.waits_for.pop(txn_id, None)
        for resource in held:
            stripe = self._resource_stripe(resource)
            with stripe.latch:
                if _sanitize.enabled():
                    _sanitize.shared_access(self.stats, "LockStripe",
                                            "granted", write=True)
                holders = stripe.granted.get(resource)
                if holders is not None:
                    holders.pop(txn_id, None)
                    if not holders:
                        del stripe.granted[resource]
        for stripe in self._txn_stripes:
            with stripe.latch:
                for waiter in list(stripe.waits_for):
                    edges = stripe.waits_for[waiter]
                    edges.discard(txn_id)
                    if not edges:
                        del stripe.waits_for[waiter]
        if _sanitize.enabled():
            _sanitize.on_locks_released(txn_id)

    def clear_waits(self, txn_id: int) -> None:
        """Forget ``txn_id``'s waits-for edges without releasing its locks.

        Called when a blocked request gives up (lock timeout): the
        transaction keeps what it holds but no longer waits, so its stale
        edges cannot produce false deadlock cycles.
        """
        stripe = self._txn_stripe(txn_id)
        with stripe.latch:
            stripe.waits_for.pop(txn_id, None)

    def locks_held(self, txn_id: int) -> int:
        """Number of resources currently locked by ``txn_id``."""
        stripe = self._txn_stripe(txn_id)
        with stripe.latch:
            return len(stripe.held.get(txn_id, ()))

    # -- introspection (DISPLAY-style snapshots, repro.obs.monitor) --------

    def lock_table(self) -> dict[object, dict[int, LockMode]]:
        """Copy of the granted-lock table: ``{resource: {txn: mode}}``.

        Empty holder maps (a resource whose last lock was just released)
        are omitted, so the result reflects only live grants.
        """
        table: dict[object, dict[int, LockMode]] = {}
        for stripe in self._resource_stripes:
            with stripe.latch:
                for resource, holders in stripe.granted.items():
                    if holders:
                        table[resource] = dict(holders)
        return table

    def waiter_count(self) -> int:
        """Number of transactions currently recorded as waiting.

        Unlike :meth:`waits_for_edges` this does not copy the graph — it
        sums per-stripe dict lengths, each atomic under the GIL — so it is
        safe (and O(stripes)) to call from a monitoring thread without the
        engine latch; the serving layer's overload guard reads it on the
        admission path.  :meth:`release_all` keeps the stripes free of
        empty edge sets, so every counted entry is a real waiter.

        Deliberately *not* witnessed by the lockset sanitizer: this is the
        one latch-free read of ``waits_for``, and it is latch-free by
        design — witnessing it would (correctly, per the Eraser rules)
        empty the field's candidate lockset and trip on an access the
        engine has decided to allow.
        """
        return sum(len(stripe.waits_for) for stripe in self._txn_stripes)

    def waits_for_edges(self) -> dict[int, frozenset[int]]:
        """Copy of the waits-for graph: ``{waiter: blockers}``."""
        edges: dict[int, frozenset[int]] = {}
        for stripe in self._txn_stripes:
            with stripe.latch:
                for waiter, blockers in stripe.waits_for.items():
                    if blockers:
                        edges[waiter] = frozenset(blockers)
        return edges

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
