"""Deterministic fault plans and the injector that executes them.

A *fault plan* is a list of :class:`FaultSpec` entries built with the
:class:`FaultPlan` helpers.  Each spec triggers on the Nth occurrence of an
event class — page writes, page reads, or hits of a named crash point — so
a plan replays identically run after run; any randomness left open by a
spec (which bit to flip, where to tear a write) comes from a seeded RNG.

Crash points are plain strings fired by the components the injector is
threaded through:

``disk.write.mid`` / ``disk.write.post``
    inside / after every physical page write (``mid`` tears the page
    before crashing — the classic torn-write crash)
``wal.append.pre`` / ``wal.append.post``
    before / after any log record is hardened
``wal.commit.pre`` / ``wal.commit.post``
    before / after a COMMIT record specifically
``wal.checkpoint.post``
    after a CHECKPOINT record
``serve.request``
    inside each serving-layer request's transaction body (chaos mode:
    a ``fail_at`` spec here makes exactly one session's transaction fail
    mid-flight without touching the others)
``engine.*``
    workloads may fire their own points through :meth:`FaultInjector.hit`

Besides crashes, a point can host a *non-fatal* injected failure:
``FaultPlan.fail_at`` raises :class:`~repro.errors.FaultInjectionError`
(an ordinary engine error the transaction machinery aborts and reports)
on the Nth hit — the chaos-mode primitive for "this one request dies,
everyone else keeps serving".
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import FaultInjectionError


class SimulatedCrash(BaseException):
    """A fault plan's crash point fired.

    Derives from :class:`BaseException` so that engine-level ``except
    ReproError``/``except Exception`` handlers cannot accidentally swallow a
    simulated power failure — only the crash harness catches it.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"simulated crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``kind`` is one of ``fail_write``/``torn_write``/``flip_read``/``crash``/
    ``fail_point``; ``nth`` the 1-based occurrence of the matching event that
    triggers it.  ``point`` names the crash/failure point (``crash`` and
    ``fail_point``).  ``keep_bytes`` is how much of a torn write reaches the
    device (-1 = seeded random) and ``bit`` the absolute bit index a read
    flips (-1 = seeded random).
    """

    kind: str
    nth: int
    point: str = ""
    keep_bytes: int = -1
    bit: int = -1

    def __post_init__(self) -> None:
        if self.kind not in ("fail_write", "torn_write", "flip_read",
                             "crash", "fail_point"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.nth < 1:
            raise ValueError("fault occurrence numbers are 1-based")
        if self.kind in ("crash", "fail_point") and not self.point:
            raise ValueError(
                f"{self.kind} faults need a crash-point name")


class FaultPlan:
    """Constructors for the specs a plan is assembled from."""

    @staticmethod
    def fail_nth_write(n: int) -> FaultSpec:
        """The Nth physical page write raises ``FaultInjectionError``."""
        return FaultSpec("fail_write", n)

    @staticmethod
    def torn_nth_write(n: int, keep_bytes: int = -1) -> FaultSpec:
        """The Nth page write only partially reaches the device.

        The page's checksum records the *intended* image, so the next read
        of the page raises ``ChecksumError``.
        """
        return FaultSpec("torn_write", n, keep_bytes=keep_bytes)

    @staticmethod
    def flip_bit_on_read(n: int, bit: int = -1) -> FaultSpec:
        """The Nth page read finds a flipped bit in the stored image."""
        return FaultSpec("flip_read", n, bit=bit)

    @staticmethod
    def crash_at(point: str, hit: int = 1) -> FaultSpec:
        """Simulate a crash on the Nth hit of the named crash point."""
        return FaultSpec("crash", hit, point=point)

    @staticmethod
    def fail_at(point: str, hit: int = 1) -> FaultSpec:
        """Raise ``FaultInjectionError`` on the Nth hit of the named point.

        Unlike :meth:`crash_at` this is an *ordinary* engine error: the
        surrounding transaction aborts and the process lives on — the
        chaos-mode primitive for killing one session's work mid-flight
        while the rest of the server keeps running.
        """
        return FaultSpec("fail_point", hit, point=point)


@dataclass(frozen=True)
class WriteOutcome:
    """What the injector decided for one page write."""

    fail: bool = False
    keep_bytes: int | None = None  # None: write is intact


class FaultInjector:
    """Executes a fault plan against the storage stack.

    One injector is threaded through a single engine instance (its disk
    wrapper and log manager).  Event counters are global across the engine,
    so "the 3rd page write" means the 3rd write the *engine* performs, no
    matter which component issued it.
    """

    def __init__(self, plan: Iterable[FaultSpec] = (), seed: int = 0,
                 stats: StatsRegistry | None = None) -> None:
        self.plan = list(plan)
        self.rng = random.Random(seed)
        self.stats = default_stats(stats)
        self.writes_seen = 0
        self.reads_seen = 0
        self.point_hits: Counter[str] = Counter()
        #: journal of (kind, detail) pairs for every fault actually injected
        self.injected: list[tuple[str, str]] = []
        self.armed = True

    # -- lifecycle ---------------------------------------------------------

    def disarm(self) -> None:
        """Stop injecting (post-crash inspection / recovery phase)."""
        self.armed = False

    def arm(self) -> None:
        self.armed = True

    def _record(self, kind: str, detail: str) -> None:
        self.injected.append((kind, detail))
        self.stats.add("fault.injected")
        # Injected faults are PERFORMANCE trace events (the IFCID-style
        # "something abnormal happened here" record) so a crash post-mortem
        # can line the fault up against the suspensions around it.
        self.stats.events.performance("fault." + kind, detail=detail)

    def _active(self, kind: str, count: int) -> FaultSpec | None:
        if not self.armed:
            return None
        for spec in self.plan:
            if spec.kind == kind and spec.nth == count:
                return spec
        return None

    # -- event sinks -------------------------------------------------------

    def hit(self, point: str) -> None:
        """Fire crash point ``point``.

        Raises :class:`SimulatedCrash` when the plan says this hit kills
        the process, or :class:`~repro.errors.FaultInjectionError` for a
        non-fatal ``fail_at`` spec (chaos mode).
        """
        if not self.armed:
            return
        self.point_hits[point] += 1
        count = self.point_hits[point]
        for spec in self.plan:
            if spec.point != point or spec.nth != count:
                continue
            if spec.kind == "crash":
                self._record("crash", f"{point}#{count}")
                self.stats.add("fault.crashes")
                raise SimulatedCrash(point, count)
            if spec.kind == "fail_point":
                self._record("fail_point", f"{point}#{count}")
                raise FaultInjectionError(
                    f"injected failure at {point!r} (hit {count})")

    def on_write(self, page_id: int, data: bytes) -> WriteOutcome:
        """Decide the fate of one physical page write."""
        if not self.armed:
            return WriteOutcome()
        self.writes_seen += 1
        spec = self._active("fail_write", self.writes_seen)
        if spec is not None:
            self._record("fail_write", f"page {page_id}")
            return WriteOutcome(fail=True)
        spec = self._active("torn_write", self.writes_seen)
        if spec is not None:
            keep = spec.keep_bytes
            if keep < 0:
                keep = self.rng.randrange(1, max(2, len(data)))
            keep = min(keep, len(data))
            self._record("torn_write", f"page {page_id} keep {keep}")
            return WriteOutcome(keep_bytes=keep)
        return WriteOutcome()

    def on_read(self, page_id: int, page_size: int) -> int | None:
        """Bit to flip in the stored image before this read, if any."""
        if not self.armed:
            return None
        self.reads_seen += 1
        spec = self._active("flip_read", self.reads_seen)
        if spec is None:
            return None
        bit = spec.bit
        if bit < 0:
            bit = self.rng.randrange(page_size * 8)
        bit = bit % (page_size * 8)
        self._record("flip_read", f"page {page_id} bit {bit}")
        return bit
