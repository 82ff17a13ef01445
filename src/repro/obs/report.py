"""Human-readable engine report: ``python -m repro.obs.report``.

The DB2 analogue is the accounting/statistics report a monitor product
prints from trace datasets.  Input is either one or more metrics artifacts
written by :func:`repro.obs.exporters.write_metrics_json` (e.g. the
benchmark suite's ``benchmarks/artifacts/*.metrics.json`` or the committed
``BENCH_baseline.json``), or — with no arguments — a small built-in demo
workload run on an in-memory engine, so the command always has something
to show::

    python -m repro.obs.report benchmarks/artifacts/*.metrics.json
    python -m repro.obs.report            # demo workload, live engine

The report renders counters grouped by component, histogram tables
(count / mean / p50 / p90 / p99 / max) and the per-class wait totals.
Per-transaction accounting and captured slow queries stay in the engine's
event ring (``repro.rdb.txn.accounting_records``,
``Database.slow_queries``).
"""

from __future__ import annotations

import json
import sys

from repro.core.stats import Histogram


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
    from repro.obs.waits import format_breakdown
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


def _demo_artifact() -> dict:
    """Run a tiny workload on an in-memory engine and export it.

    The demo goes through the *serving layer* — not straight engine
    calls — so the report's own smoke path populates the post-serving-layer
    histograms (``serve.request_us``, ``serve.queue_wait_us``) and the wait
    clock, exactly the distributions a real artifact carries.
    """
    from repro.core.config import EngineConfig
    from repro.core.engine import Database
    from repro.obs.exporters import metrics_to_dict
    from repro.obs.waits import wait_profile
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
    return {**metrics_to_dict(db.stats), "waits": wait_profile(db.stats)}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    reports: list[str] = []
    if not argv:
        reports.append(render_artifact(_demo_artifact(),
                                       title="demo workload (live)"))
    for path in argv:
        try:
            with open(path, encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read metrics artifact {path!r}: {exc}",
                  file=sys.stderr)
            return 1
        reports.append(render_artifact(artifact, title=path))
    try:
        print("\n\n".join(reports))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    sys.exit(main())
