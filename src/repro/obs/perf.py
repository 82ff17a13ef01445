"""Wait-state profiler CLI: trace -> where did the wall-clock go.

``python -m repro.obs.perf trace.jsonl`` analyzes a JSONL event-ring
export (``repro.serve.loadgen --trace-out``, or any
:meth:`~repro.core.events.EventTrace.write_jsonl`) into the question DB2
accounting class-3 reports answer: which suspension classes ate the
elapsed time, how waits break down per request, and what the slowest
request was actually doing.  Every wait figure comes from the
``serve.request`` records: each carries its request clock's per-class
breakdown, built from the same charges as the ``waits.<class>_us``
counters.  With no arguments it runs a small live load through the serving
layer and profiles that.

Sections:

* **wait-class profile** — per-class totals over the served requests,
  sorted by time, with how many requests waited in each class and the
  class's share of total wait;
* **request profile** — per-request elapsed vs wait totals;
* **slowest request** — its breakdown as ``elapsed = cpuish + Σ waits``;
* **trace summary** — record counts per record name (faults included).
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.stats import WAITS
from repro.obs.waits import format_breakdown


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Load a JSONL trace export (blank lines tolerated)."""
    out: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


@dataclass
class RequestProfile:
    """One served request, as its ``serve.request`` record reports it."""

    label: str
    elapsed_us: int
    outcome: str
    waits: dict[str, int] = field(default_factory=dict)

    @property
    def wait_us(self) -> int:
        return sum(self.waits.values())


@dataclass
class TraceProfile:
    """Everything the report renders, reduced from one trace."""

    class_totals: Counter
    class_counts: Counter
    requests: list[RequestProfile]
    records_by_name: Counter

    @property
    def total_wait_us(self) -> int:
        return sum(self.class_totals.values())


def profile_records(records: Iterable[dict[str, Any]]) -> TraceProfile:
    """Reduce raw trace dicts into a :class:`TraceProfile`.

    ``class_counts`` counts the requests that waited in each class.
    """
    class_totals: Counter = Counter()
    class_counts: Counter = Counter()
    records_by_name: Counter = Counter()
    requests: list[RequestProfile] = []
    for record in records:
        name = record.get("name", "")
        records_by_name[name] += 1
        if name != "serve.request":
            continue
        payload = record.get("payload", {})
        waits = {wait_class: int(micros) for wait_class, micros
                 in payload.get("waits", {}).items()}
        for wait_class, micros in waits.items():
            class_totals[wait_class] += micros
            class_counts[wait_class] += 1
        requests.append(RequestProfile(
            label=record.get("request") or "?",
            elapsed_us=int(payload.get("elapsed_us", 0)),
            outcome=str(payload.get("outcome", "")),
            waits=waits,
        ))
    return TraceProfile(class_totals, class_counts, requests,
                        records_by_name)


def _class_order(totals: Counter) -> list[str]:
    known = [cls for cls in WAITS if totals.get(cls)]
    unknown = sorted(cls for cls in totals if cls not in WAITS)
    return sorted(known + unknown,
                  key=lambda cls: totals[cls], reverse=True)


def render_profile(profile: TraceProfile, top_requests: int = 10) -> str:
    """Render the full text report for one :class:`TraceProfile`."""
    lines: list[str] = []
    total_wait = profile.total_wait_us

    lines.append("== WAIT-CLASS PROFILE ==")
    if total_wait:
        lines.append(f"{'class':<22} {'total_us':>12} {'requests':>8} "
                     f"{'avg_us':>9} {'share':>7}")
        for wait_class in _class_order(profile.class_totals):
            micros = profile.class_totals[wait_class]
            count = profile.class_counts[wait_class]
            share = 100.0 * micros / total_wait
            lines.append(f"{wait_class:<22} {micros:>12,} {count:>8} "
                         f"{micros // max(count, 1):>9,} {share:>6.1f}%")
        lines.append(f"{'total':<22} {total_wait:>12,}")
    else:
        lines.append("(no suspensions recorded)")

    requests = profile.requests
    lines.append("")
    lines.append("== REQUEST PROFILE ==")
    if requests:
        elapsed = sum(r.elapsed_us for r in requests)
        waited = sum(r.wait_us for r in requests)
        lines.append(f"{len(requests)} requests, elapsed {elapsed:,} us, "
                     f"waits {waited:,} us "
                     f"({100.0 * waited / elapsed if elapsed else 0.0:.1f}% "
                     f"suspended)")
        slowest = sorted(requests, key=lambda r: r.elapsed_us,
                         reverse=True)[:top_requests]
        lines.append(f"{'request':<24} {'elapsed_us':>11} {'wait_us':>10} "
                     f"{'top wait class':<20} {'outcome'}")
        for request in slowest:
            top = max(request.waits.items(), key=lambda item: item[1],
                      default=("-", 0))
            lines.append(f"{request.label:<24} {request.elapsed_us:>11,} "
                         f"{request.wait_us:>10,} {top[0]:<20} "
                         f"{request.outcome}")

        worst = max(requests, key=lambda r: r.elapsed_us)
        lines.append("")
        lines.append("== SLOWEST REQUEST ==")
        lines.append(f"{worst.label}  elapsed {worst.elapsed_us:,} us  "
                     f"waits {worst.wait_us:,} us  [{worst.outcome}]")
        lines.extend(format_breakdown(worst.waits, worst.elapsed_us))
    else:
        lines.append("(no serve.request accounting records in trace)")

    lines.append("")
    lines.append("== TRACE SUMMARY ==")
    for name, count in sorted(profile.records_by_name.items()):
        lines.append(f"  {name:<22} {count:>8} records")
    return "\n".join(lines) + "\n"


def _live_records(clients: int, ops: int, seed: int) -> list[dict[str, Any]]:
    """Run a small load in-process and return its records."""
    from repro.core.events import EventTrace
    from repro.serve.loadgen import load_ring_size, run_load

    trace = EventTrace(load_ring_size(clients, ops))
    run_load(clients=clients, ops_per_client=ops, seed=seed, trace=trace)
    return [record.to_dict() for record in trace.records()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.perf",
        description="Wait-state profile from a JSONL event trace "
                    "(or a live in-process load when no trace is given).")
    parser.add_argument("traces", nargs="*",
                        help="JSONL trace exports (loadgen --trace-out)")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest requests to list (default 10)")
    parser.add_argument("--live-clients", type=int, default=8,
                        help="clients for the no-argument live profile")
    parser.add_argument("--live-ops", type=int, default=3,
                        help="ops per client for the live profile")
    parser.add_argument("--seed", type=int, default=3,
                        help="seed for the live profile workload")
    args = parser.parse_args(argv)

    records: list[dict[str, Any]] = []
    if args.traces:
        for path in args.traces:
            records.extend(read_jsonl(path))
    else:
        records = _live_records(args.live_clients, args.live_ops, args.seed)

    profile = profile_records(records)
    print(render_profile(profile, top_requests=args.top), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
