"""Query-level observability: tracing, EXPLAIN ANALYZE, and the readers of
the event ring.

The paper's infrastructure box (Fig. 1) lists *instrumentation* among the
relational assets the XML engine inherits.  :mod:`repro.core.stats` provides
the flat counter bag and :mod:`repro.core.events` the one bounded ring that
records every finished unit of work (transactions, served requests, slow
queries) and every injected fault.  This package adds the views on top of
them:

* :class:`~repro.obs.tracer.Span` / :class:`~repro.obs.tracer.Tracer` — a
  span tree whose every open node is a charge sink of the installing
  thread (``StatsRegistry.charge``, the rule transaction accounting and
  a served request's wait clock use too), so "how many page reads did
  this B+tree probe cost" falls out of the existing accounting; span
  trees export as JSON
  (:meth:`Span.to_dict`, :func:`~repro.obs.exporters.write_trace`);
* :class:`~repro.obs.explain.ExplainResult` — the DB2-style EXPLAIN ANALYZE
  surface returned by :meth:`repro.core.engine.Database.explain_analyze`:
  the chosen :class:`~repro.query.plan.AccessPlan` annotated with actual
  row/entry/page counts per operator;
* :class:`~repro.obs.slowlog.SlowQueryRecord` — an auto-captured offender
  query (plan + span tree + counter deltas), read back from the ring by
  ``Database.slow_queries``;
* :mod:`repro.obs.exporters` — JSON exposition of
  counters/gauges/histograms;
* :mod:`repro.obs.waits` — the reading side of the wait clocks: per-class
  suspension breakdowns (DB2 accounting class-3 analogue) folded from the
  ``waits.*_us`` counters charged by ``StatsRegistry.wait_timer``;
* :mod:`repro.obs.perf` — ``python -m repro.obs.perf``, the wait-state
  profiler over a JSONL ring export, read from the ``serve.request``
  records' wait clocks (imported lazily — it pulls in the serving layer
  for its live mode, so it is deliberately *not* re-exported here);
* :mod:`repro.obs.report` — ``python -m repro.obs.report``, the
  human-readable statistics report (counters, histograms, waits).

None of these views reads engine structures off the engine latch: they
run on the thread that drives the engine, or over the stats registry and
its event ring, which carry a lock of their own.

Tracing is opt-in: components call ``self.stats.trace("name")`` which is a
reusable no-op unless a :class:`Tracer` is installed on the registry, so the
uninstrumented cost is ~zero.
"""

from repro.core.events import EventRecord, EventTrace
from repro.obs.explain import ExplainResult
from repro.obs.exporters import metrics_to_dict, write_metrics_json, write_trace
from repro.obs.slowlog import SlowQueryRecord
from repro.obs.tracer import Span, Tracer, trace_to_json
from repro.obs.waits import format_breakdown, wait_breakdown, wait_profile

__all__ = [
    "EventRecord", "EventTrace", "ExplainResult", "SlowQueryRecord", "Span",
    "Tracer", "format_breakdown", "metrics_to_dict", "trace_to_json",
    "wait_breakdown", "wait_profile", "write_metrics_json", "write_trace",
]
