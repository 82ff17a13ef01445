"""Wait-state profiling helpers (DB2 accounting class-3 analogue).

The mechanism lives in :mod:`repro.core.stats` — the ordered :data:`WAITS`
registry of named suspension classes, ``StatsRegistry.wait_timer(cls)``
wrapping every blocking site, ``StatsRegistry.request_clock()`` decomposing
each request/transaction as ``elapsed = cpuish + Σ waits`` (the load
harness checks Σ waits ≤ elapsed on every ``serve.request`` record), and
:func:`wait_breakdown`
folding the ``waits.<class>_us`` counters back into per-class totals.
This module is the *reading* side built on them: totals, profiles and
report lines for ``python -m repro.obs.report``, the load harness and
the ``python -m repro.obs.perf`` profiler.

The class inventory and its DB2 class-3 / IFCID mapping are documented in
README.md and DESIGN.md ("Instrumentation facility").
"""

from __future__ import annotations

from typing import Mapping

from repro.core.stats import (WAITS, StatsRegistry, wait_breakdown,
                              wait_counter)


def wait_profile(stats: StatsRegistry) -> dict:
    """Snapshot the registry's wait state as a JSON-safe profile.

    ``by_class`` is the per-class total, ``request_wait`` the distribution
    of per-clock totals (count / p50 / p99 / max from the
    ``waits.request_wait_us`` histogram).
    """
    by_class = wait_breakdown(stats.counters())
    profile: dict = {
        "total_us": sum(by_class.values()),
        "by_class": by_class,
    }
    histogram = stats.histogram("waits.request_wait_us")
    if histogram is not None:
        profile["request_wait"] = {
            "count": histogram.count,
            "p50_us": histogram.quantile(0.50),
            "p99_us": histogram.quantile(0.99),
            "max_us": histogram.max,
        }
    return profile


def format_breakdown(by_class: Mapping[str, int],
                     elapsed_us: int | None = None) -> list[str]:
    """Render a per-class breakdown as aligned report lines.

    When ``elapsed_us`` is given, each class also shows its share of the
    elapsed time and a trailing ``cpuish+other`` line accounts for the
    unsuspended remainder — the ``elapsed = cpuish + Σ waits`` identity
    made visible.
    """
    ordered = [(cls, by_class[cls]) for cls in WAITS if by_class.get(cls)]
    ordered.sort(key=lambda item: item[1], reverse=True)
    total = sum(micros for _, micros in ordered)
    lines: list[str] = []
    for wait_class, micros in ordered:
        if elapsed_us:
            share = 100.0 * micros / elapsed_us
            lines.append(f"  {wait_class:<20} {micros:>12,} us "
                         f"{share:>6.1f}%")
        else:
            lines.append(f"  {wait_class:<20} {micros:>12,} us")
    if elapsed_us is not None:
        other = max(0, elapsed_us - total)
        share = 100.0 * other / elapsed_us if elapsed_us else 0.0
        lines.append(f"  {'cpuish+other':<20} {other:>12,} us "
                     f"{share:>6.1f}%")
    return lines


__all__ = [
    "WAITS",
    "format_breakdown",
    "wait_breakdown",
    "wait_counter",
    "wait_profile",
]
