"""The engine report: ``python -m repro.obs.report``, the one reader of the
engine's telemetry.

The DB2 analogue is the accounting/statistics report a monitor product
prints from trace datasets.  Each argument is rendered on its own:

* a ``.jsonl`` file is an event-ring export
  (:meth:`~repro.core.events.EventTrace.write_jsonl`, e.g.
  ``repro.serve.loadgen --trace-out``), rendered as a wait-state profile:
  which suspension classes ate the elapsed time, how waits break down per
  request, and what the slowest request was doing.  Every wait figure
  comes from the ``serve.request`` records, each of which carries its
  request clock's per-class breakdown;
* any other file is a metrics artifact written by
  :func:`write_metrics_json` (the benchmark suite's
  ``benchmarks/artifacts/*.metrics.json`` or the committed
  ``BENCH_baseline.json``), rendered as counters grouped by component,
  histogram tables and the per-class wait totals.

With no arguments it serves a small demo load through the serving layer
and renders both views from that run, so the command always has something
to show::

    python -m repro.obs.report BENCH_baseline.json
    python -m repro.obs.report trace.jsonl
    python -m repro.obs.report            # demo load, both views

Per-transaction accounting and captured slow queries stay in the engine's
event ring (``repro.rdb.txn.accounting_records``,
``Database.slow_queries``).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.stats import WAITS, Histogram, StatsRegistry, wait_breakdown

# -- artifacts -----------------------------------------------------------------


def metrics_to_dict(stats: StatsRegistry) -> dict:
    """Counters, gauges and histograms as one JSON-safe dict."""
    return {
        "counters": dict(sorted(stats.counters().items())),
        "gauges": dict(sorted(stats.gauges().items())),
        "histograms": {name: histogram.as_dict()
                       for name, histogram
                       in sorted(stats.histograms().items())},
    }


def write_metrics_json(metrics: dict, path: str) -> None:
    """Write a metrics artifact dict (see :func:`metrics_to_dict`)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")


def wait_profile(stats: StatsRegistry) -> dict:
    """Snapshot the registry's wait state as a JSON-safe profile.

    ``by_class`` is the per-class total, ``request_wait`` the distribution
    of total waits per served request that waited (count / p50 / p99 /
    max from the ``waits.request_wait_us`` histogram).
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


# -- metrics artifact view -----------------------------------------------------


def render_counters(counters: dict[str, int]) -> list[str]:
    """Counters grouped by ``component.`` prefix, zero-free."""
    lines = ["== COUNTERS =="]
    groups: dict[str, list[tuple[str, int]]] = {}
    for name, value in sorted(counters.items()):
        if not value:
            continue
        component = name.split(".", 1)[0]
        groups.setdefault(component, []).append((name, value))
    for component in sorted(groups):
        lines.append(f"  [{component}]")
        for name, value in groups[component]:
            lines.append(f"    {name:<32} {value:>12}")
    if len(lines) == 1:
        lines.append("  (no counters)")
    return lines


def render_histograms(histograms: dict[str, dict]) -> list[str]:
    """One table row per histogram: count / mean / p50 / p90 / p99 / max.

    Every histogram present in the artifact is rendered — including the
    serving-layer latency distributions (``serve.request_us``,
    ``serve.queue_wait_us``) and the wait clock (``waits.request_wait_us``)
    — the report computes quantiles from whatever buckets it is handed
    rather than a fixed name list.
    """
    lines = ["== HISTOGRAMS ==",
             f"  {'name':<28} {'count':>8} {'mean':>10} "
             f"{'p50':>8} {'p90':>8} {'p99':>8} {'max':>10}"]
    if not histograms:
        lines.append("  (no histograms)")
        return lines
    for name, data in sorted(histograms.items()):
        h = Histogram.from_dict(data)
        lines.append(f"  {name:<28} {h.count:>8} {h.mean:>10.1f} "
                     f"{h.quantile(0.5):>8} {h.quantile(0.9):>8} "
                     f"{h.quantile(0.99):>8} {h.max:>10}")
    return lines


def render_waits(waits: dict) -> list[str]:
    """The DB2 class-3 section: per-class suspension totals."""
    lines = ["== WAITS (class-3 suspensions) =="]
    by_class = waits.get("by_class", {})
    if not by_class:
        lines.append("  (no suspensions charged)")
        return lines
    lines += format_breakdown(by_class)
    lines.append(f"  {'total':<20} {waits.get('total_us', 0):>12,} us")
    request_wait = waits.get("request_wait", {})
    if request_wait.get("count"):
        lines.append(f"  per-request total: p50 "
                     f"{request_wait.get('p50_us', 0):,} us  p99 "
                     f"{request_wait.get('p99_us', 0):,} us  max "
                     f"{request_wait.get('max_us', 0):,} us "
                     f"({request_wait['count']} requests)")
    return lines


def render_artifact(artifact: dict, title: str = "") -> str:
    """The full report for one metrics artifact dict."""
    lines: list[str] = []
    if title:
        lines.append(f"==== ENGINE REPORT: {title} ====")
    lines += render_counters(artifact.get("counters", {}))
    lines += render_histograms(artifact.get("histograms", {}))
    lines += render_waits(artifact.get("waits", {}))
    return "\n".join(lines)


# -- event-ring view -----------------------------------------------------------

#: Slowest requests the request profile lists.
TOP_REQUESTS = 10


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Load a JSONL event-ring export (blank lines tolerated)."""
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
    """Everything the event-ring view renders, reduced from one trace.

    ``class_counts`` counts the requests that waited in each class.
    """

    class_totals: Counter
    class_counts: Counter
    requests: list[RequestProfile]
    records_by_name: Counter


def profile_records(records: Iterable[dict[str, Any]]) -> TraceProfile:
    """Reduce exported ring records into a :class:`TraceProfile`."""
    profile = TraceProfile(Counter(), Counter(), [], Counter())
    for record in records:
        name = record.get("name", "")
        profile.records_by_name[name] += 1
        if name != "serve.request":
            continue
        payload = record.get("payload", {})
        waits = {wait_class: int(micros) for wait_class, micros
                 in payload.get("waits", {}).items()}
        profile.class_totals.update(waits)
        profile.class_counts.update(waits.keys())
        profile.requests.append(RequestProfile(
            label=record.get("request") or "?",
            elapsed_us=int(payload.get("elapsed_us", 0)),
            outcome=str(payload.get("outcome", "")),
            waits=waits,
        ))
    return profile


def render_profile(profile: TraceProfile, title: str = "") -> str:
    """The wait-state profile of one trace: wait classes, requests, the
    slowest request's breakdown and the records per name."""
    lines: list[str] = []
    if title:
        lines.append(f"==== WAIT PROFILE: {title} ====")
    totals = profile.class_totals
    total_wait = sum(totals.values())

    lines.append("== WAIT-CLASS PROFILE ==")
    if total_wait:
        lines.append(f"{'class':<22} {'total_us':>12} {'requests':>8} "
                     f"{'avg_us':>9} {'share':>7}")
        known = [cls for cls in WAITS if totals.get(cls)]
        unknown = sorted(cls for cls in totals if cls not in WAITS)
        for wait_class in sorted(known + unknown, key=totals.__getitem__,
                                 reverse=True):
            micros = totals[wait_class]
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
                         reverse=True)
        lines.append(f"{'request':<24} {'elapsed_us':>11} {'wait_us':>10} "
                     f"{'top wait class':<20} {'outcome'}")
        for request in slowest[:TOP_REQUESTS]:
            top = max(request.waits.items(), key=lambda item: item[1],
                      default=("-", 0))
            lines.append(f"{request.label:<24} {request.elapsed_us:>11,} "
                         f"{request.wait_us:>10,} {top[0]:<20} "
                         f"{request.outcome}")

        worst = slowest[0]
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
    return "\n".join(lines)


# -- CLI -----------------------------------------------------------------------


def _demo() -> tuple[dict, list[dict[str, Any]]]:
    """Serve a tiny load on an in-memory engine; return its metrics
    artifact and its exported ring records.

    The load goes through the *serving layer* — not straight engine
    calls — so the demo populates the serving-layer histograms
    (``serve.request_us``, ``serve.queue_wait_us``), the wait clock and
    the ``serve.request`` records, exactly what a real run carries.
    """
    from repro.core.config import EngineConfig
    from repro.core.engine import Database
    from repro.serve.server import DatabaseServer

    db = Database(EngineConfig(serve_workers=2))
    db.create_table("demo", [("id", "bigint"), ("doc", "xml")])
    server = DatabaseServer(db).start()
    try:
        with server.session() as session:
            for i in range(5):
                session.insert("demo", (i, f"<order id='{i}'><item n='{i}'>"
                                           f"widget</item></order>"))
            session.query("demo", "doc", "/order/item")
    finally:
        server.shutdown(drain=True)
    artifact = {**metrics_to_dict(db.stats), "waits": wait_profile(db.stats)}
    return artifact, [record.to_dict() for record in db.stats.events.records()]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    reports: list[str] = []
    if not argv:
        artifact, records = _demo()
        title = "demo workload (live)"
        reports.append(render_artifact(artifact, title=title))
        reports.append(render_profile(profile_records(records), title=title))
    for path in argv:
        try:
            if path.endswith(".jsonl"):
                report = render_profile(profile_records(read_jsonl(path)),
                                        title=path)
            else:
                with open(path, encoding="utf-8") as handle:
                    report = render_artifact(json.load(handle), title=path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {path!r}: {exc}", file=sys.stderr)
            return 1
        reports.append(report)
    try:
        print("\n\n".join(reports))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    sys.exit(main())
