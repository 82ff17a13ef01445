"""Wait-state profiler CLI: trace -> where did the wall-clock go.

``python -m repro.obs.perf trace.jsonl`` analyzes a JSONL event-ring
export (``repro.serve.loadgen --trace-out``, or any
:meth:`~repro.core.events.EventTrace.write_jsonl`) into the question DB2
accounting class-3 reports answer: which suspension classes ate the
elapsed time, how waits break down per request, and what the slowest
request was actually doing.  With no arguments it runs a small live load
through the serving layer with tracing enabled and profiles that.

Sections:

* **wait-class profile** — per-class totals across the trace, sorted by
  time, with suspension counts and share of total wait;
* **request profile** — per-request elapsed vs wait totals (from the
  ACCOUNTING ``serve.request`` records, waits attributed by request label
  and emitting thread);
* **slowest-request drill-down** — the span tree of the slowest request:
  each suspension in order, offset from request start;
* **trace summary** — record counts per class, statistics intervals,
  injected faults.
"""

from __future__ import annotations

import argparse
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.stats import WAITS
from repro.obs.events import read_jsonl

_WAIT_PREFIX = "wait."


@dataclass
class RequestProfile:
    """One served request reassembled from its trace records."""

    label: str
    thread: str
    elapsed_us: int
    outcome: str
    end_ts_ns: int
    waits: dict[str, int] = field(default_factory=dict)
    suspensions: list[dict[str, Any]] = field(default_factory=list)

    @property
    def wait_us(self) -> int:
        return sum(self.waits.values())


@dataclass
class TraceProfile:
    """Everything the report renders, reduced from one trace."""

    class_totals: Counter
    class_counts: Counter
    requests: list[RequestProfile]
    records_by_class: Counter
    statistics_intervals: int
    faults: Counter

    @property
    def total_wait_us(self) -> int:
        return sum(self.class_totals.values())


def profile_records(records: Iterable[dict[str, Any]]) -> TraceProfile:
    """Reduce raw trace dicts into a :class:`TraceProfile`.

    Suspensions are attributed to requests by (emitting thread, request
    label): a worker thread's wait events accumulate until the matching
    ACCOUNTING ``serve.request`` record closes the unit of work — the same
    thread cannot interleave two requests, so the pairing is exact.
    """
    class_totals: Counter = Counter()
    class_counts: Counter = Counter()
    records_by_class: Counter = Counter()
    faults: Counter = Counter()
    statistics_intervals = 0
    pending: dict[tuple[str, str | None], list[dict[str, Any]]] = {}
    requests: list[RequestProfile] = []

    ordered = sorted(records,
                     key=lambda r: (r.get("ts_ns", 0), r.get("id", 0)))
    for record in ordered:
        event_class = record.get("class", "")
        name = record.get("name", "")
        records_by_class[event_class] += 1
        if event_class == "performance" and name.startswith(_WAIT_PREFIX):
            wait_class = name[len(_WAIT_PREFIX):]
            micros = int(record.get("payload", {}).get("us", 0))
            class_totals[wait_class] += micros
            class_counts[wait_class] += 1
            key = (record.get("thread", ""), record.get("request"))
            pending.setdefault(key, []).append(record)
        elif event_class == "performance" and name.startswith("fault."):
            faults[name] += 1
        elif event_class == "statistics":
            statistics_intervals += 1
        elif event_class == "accounting" and name == "serve.request":
            key = (record.get("thread", ""), record.get("request"))
            suspensions = pending.pop(key, [])
            waits: dict[str, int] = {}
            for suspension in suspensions:
                wait_class = suspension["name"][len(_WAIT_PREFIX):]
                waits[wait_class] = waits.get(wait_class, 0) + \
                    int(suspension.get("payload", {}).get("us", 0))
            payload = record.get("payload", {})
            requests.append(RequestProfile(
                label=record.get("request") or "?",
                thread=record.get("thread", ""),
                elapsed_us=int(payload.get("elapsed_us", 0)),
                outcome=str(payload.get("outcome", "")),
                end_ts_ns=int(record.get("ts_ns", 0)),
                waits=waits,
                suspensions=suspensions,
            ))
    return TraceProfile(class_totals, class_counts, requests,
                        records_by_class, statistics_intervals, faults)


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
        lines.append(f"{'class':<22} {'total_us':>12} {'count':>8} "
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
    else:
        lines.append("(no serve.request accounting records in trace)")

    if requests:
        worst = max(requests, key=lambda r: r.elapsed_us)
        lines.append("")
        lines.append("== SLOWEST REQUEST ==")
        lines.extend(_render_span_tree(worst))

    lines.append("")
    lines.append("== TRACE SUMMARY ==")
    for event_class in ("accounting", "statistics", "performance"):
        lines.append(f"  {event_class:<12} "
                     f"{profile.records_by_class.get(event_class, 0):>8} "
                     f"records")
    if profile.statistics_intervals:
        lines.append(f"  statistics intervals: "
                     f"{profile.statistics_intervals}")
    for fault, count in sorted(profile.faults.items()):
        lines.append(f"  {fault:<22} {count:>8} injected")
    return "\n".join(lines) + "\n"


def _render_span_tree(request: RequestProfile) -> list[str]:
    """The slowest request as a span tree: suspensions offset from start."""
    start_ns = request.end_ts_ns - request.elapsed_us * 1000
    lines = [f"{request.label}  elapsed {request.elapsed_us:,} us  "
             f"waits {request.wait_us:,} us  "
             f"[{request.outcome}]  thread {request.thread}"]
    suspensions = request.suspensions
    for index, suspension in enumerate(suspensions):
        branch = "└─" if index == len(suspensions) - 1 else "├─"
        wait_class = suspension["name"][len(_WAIT_PREFIX):]
        micros = int(suspension.get("payload", {}).get("us", 0))
        # The record is emitted when the wait *ends*; back the offset up
        # by the duration so the tree shows where each suspension began.
        offset_us = max(0, (int(suspension.get("ts_ns", 0)) - start_ns)
                        // 1000 - micros)
        lines.append(f"  {branch} +{offset_us:>8,} us  {wait_class:<20} "
                     f"{micros:>10,} us")
    if not suspensions:
        lines.append("  └─ (no suspensions: request never blocked)")
    return lines


def _live_records(clients: int, ops: int, seed: int) -> list[dict[str, Any]]:
    """Run a small traced load in-process and return its records."""
    from repro.core.events import ALL_CLASSES, EventTrace
    from repro.serve.loadgen import load_ring_size, run_load

    trace = EventTrace(load_ring_size(clients, ops), ALL_CLASSES)
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
