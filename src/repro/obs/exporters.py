"""Metric exposition: Prometheus text format and JSON artifacts.

Two renderings of the same :class:`~repro.core.stats.StatsRegistry` state
(plus :func:`write_trace`, the span-tree artifact benchmarks attach to
their runs):

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# TYPE`` comments, ``_total`` counters, cumulative ``le`` histogram
  buckets), so a scrape endpoint or a file drop works with standard
  tooling;
* :func:`metrics_to_dict` / :func:`engine_metrics` — JSON-safe dicts, the
  artifact format the benchmarks commit (``BENCH_baseline.json``) and the
  report CLI (:mod:`repro.obs.report`) consumes.

Metric names keep the engine's ``component.metric`` convention in JSON and
are mangled to ``repro_component_metric`` for Prometheus.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from repro.core.stats import StatsRegistry
from repro.obs.tracer import Span, Tracer, trace_to_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> obs)
    from repro.core.engine import Database

#: Prefix for every Prometheus series exported by the engine.
PROMETHEUS_PREFIX = "repro"

#: Curated HELP strings for the series operators actually alert on; every
#: other series gets a generated one-liner naming its registry entry.
_HELP_OVERRIDES = {
    "serve.request_us": "End-to-end request latency in microseconds "
                        "(submit to finish, queue wait included)",
    "serve.queue_wait_us": "Admission-queue wait per request in "
                           "microseconds",
    "waits.request_wait_us": "Total suspension time per request/txn wait "
                             "clock in microseconds (all wait classes)",
}


def _mangle(name: str) -> str:
    """``component.metric`` -> Prometheus-legal ``component_metric``."""
    return name.replace(".", "_").replace("-", "_")


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline, per spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    """Escape a label value (backslash, double quote, newline)."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _help_text(name: str, kind: str) -> str:
    override = _HELP_OVERRIDES.get(name)
    if override is not None:
        return override
    return f"Engine {kind} {name} (see repro.core.stats registries)"


def render_prometheus(stats: StatsRegistry,
                      prefix: str = PROMETHEUS_PREFIX) -> str:
    """Counters, gauges and histograms in Prometheus text format.

    Every series carries ``# HELP``/``# TYPE`` metadata (HELP text
    escaped per the exposition format).  Counters get a ``_total``
    suffix; histograms emit the standard cumulative ``_bucket{le="..."}``
    series (power-of-two bounds plus ``+Inf``) with ``_sum`` and
    ``_count``.
    """
    lines: list[str] = []
    for name, value in sorted(stats.counters().items()):
        series = f"{prefix}_{_mangle(name)}_total"
        lines.append(f"# HELP {series} "
                     f"{_escape_help(_help_text(name, 'counter'))}")
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {value}")
    for name, value in sorted(stats.gauges().items()):
        series = f"{prefix}_{_mangle(name)}"
        lines.append(f"# HELP {series} "
                     f"{_escape_help(_help_text(name, 'gauge'))}")
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {value}")
    for name, histogram in sorted(stats.histograms().items()):
        series = f"{prefix}_{_mangle(name)}"
        lines.append(f"# HELP {series} "
                     f"{_escape_help(_help_text(name, 'histogram'))}")
        lines.append(f"# TYPE {series} histogram")
        for bound, cumulative in histogram.cumulative_buckets():
            lines.append(f'{series}_bucket{{le="'
                         f'{_escape_label(str(bound))}"}} {cumulative}')
        lines.append(f'{series}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{series}_sum {histogram.sum}")
        lines.append(f"{series}_count {histogram.count}")
    return "\n".join(lines) + "\n"


def metrics_to_dict(stats: StatsRegistry) -> dict:
    """Counters, gauges and histograms as one JSON-safe dict."""
    return {
        "counters": dict(sorted(stats.counters().items())),
        "gauges": dict(sorted(stats.gauges().items())),
        "histograms": {name: histogram.as_dict()
                       for name, histogram
                       in sorted(stats.histograms().items())},
    }


def engine_metrics(db: "Database") -> dict:
    """The full metrics artifact for a live engine.

    Extends :func:`metrics_to_dict` with the accounting and slow-query
    records retained in the event ring, and a monitor snapshot —
    everything the report CLI can render from a file instead of a live
    engine.
    """
    from repro.obs.monitor import Monitor
    from repro.obs.waits import wait_profile
    from repro.rdb.txn import accounting_records

    artifact = metrics_to_dict(db.stats)
    artifact["accounting"] = [record.to_dict()
                              for record in accounting_records(db.stats)]
    artifact["slow_queries"] = [record.to_dict()
                                for record in db.slow_queries]
    artifact["waits"] = wait_profile(db.stats)
    artifact["snapshot"] = Monitor(db).snapshot().to_dict()
    return artifact


def write_prometheus(stats: StatsRegistry, path: str,
                     prefix: str = PROMETHEUS_PREFIX) -> None:
    """Write :func:`render_prometheus` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(stats, prefix=prefix))


def write_metrics_json(metrics: dict, path: str) -> None:
    """Write a metrics artifact dict (see :func:`engine_metrics`)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_trace(path: str, trace: Span | Tracer) -> str:
    """Write a span tree as a JSON artifact; returns the path written."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_to_json(trace))
        handle.write("\n")
    return path
