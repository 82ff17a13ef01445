"""Query-level observability: tracing, EXPLAIN ANALYZE, and the report
that reads the metrics and the event ring.

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
  trees export as JSON (:meth:`Span.to_dict`);
* :class:`~repro.obs.explain.ExplainResult` — the one captured-query
  type: the DB2-style EXPLAIN ANALYZE surface returned by
  :meth:`repro.core.engine.Database.explain_analyze` (the chosen
  :class:`~repro.query.plan.AccessPlan` annotated with actual
  row/entry/page counts per operator), and the record of a query over a
  slow-query threshold, read back from the ring by
  ``Database.slow_queries``;
* :mod:`repro.obs.report` — ``python -m repro.obs.report``, the one
  reader: a metrics artifact (counters, histograms, waits; written by
  :func:`~repro.obs.report.metrics_to_dict` /
  :func:`~repro.obs.report.write_metrics_json`) or a JSONL ring export
  (the wait-state profile of the ``serve.request`` records).  It is
  imported on its own, not re-exported here, so ``python -m`` runs it
  cleanly.

None of these views reads engine structures off the engine latch: they
run on the thread that drives the engine, or over the stats registry and
its event ring, which carry a lock of their own.

Tracing is opt-in: components call ``self.stats.trace("name")`` which is a
reusable no-op unless a :class:`Tracer` is installed on the registry, so the
uninstrumented cost is ~zero.
"""

from repro.core.events import EventRecord, EventTrace
from repro.obs.explain import ExplainResult
from repro.obs.tracer import Span, Tracer

__all__ = ["EventRecord", "EventTrace", "ExplainResult", "Span", "Tracer"]
