"""Metric exposition: JSON artifacts.

:func:`metrics_to_dict` renders a :class:`~repro.core.stats.StatsRegistry`
as a JSON-safe dict — the artifact format the benchmarks commit
(``BENCH_baseline.json``) and the report CLI (:mod:`repro.obs.report`)
consumes; :func:`write_trace` writes the span-tree artifact benchmarks
attach to their runs.  Metric names keep the engine's
``component.metric`` convention.
"""

from __future__ import annotations

import json
import os

from repro.core.stats import StatsRegistry
from repro.obs.tracer import Span, Tracer, trace_to_json


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


def write_trace(path: str, trace: Span | Tracer) -> str:
    """Write a span tree as a JSON artifact; returns the path written."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_to_json(trace))
        handle.write("\n")
    return path
