"""EXPLAIN ANALYZE: the chosen access plan annotated with actual costs.

DB2's EXPLAIN facility is part of the relational infrastructure the paper
builds on; :meth:`repro.core.engine.Database.explain_analyze` is its analogue
here.  The query runs for real under a :class:`~repro.obs.tracer.Tracer`,
and the result pairs the planner's :class:`~repro.query.plan.AccessPlan`
(§4.3, Table 2) with the span tree of what actually happened: per-operator
row counts, index entries scanned, logical page touches and physical I/O.

The same type is the one captured-query record: a query
``Database.xpath`` finds over an ``EngineConfig.slow_query_*`` threshold
is captured the same way and recorded in the event ring with the
thresholds it exceeded (``Database.slow_queries`` reads them back).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import Span
from repro.query.plan import AccessPlan

#: Counters worth calling out per operator in the text rendering.
_HEADLINE_COUNTERS = (
    "exec.docs_evaluated", "exec.candidates", "exec.anchors_verified",
    "btree.entries_scanned", "buffer.hits", "buffer.misses",
    "disk.page_reads", "xscan.events",
)


@dataclass
class ExplainResult:
    """One captured query: an EXPLAIN ANALYZE run or a slow query."""

    plan: AccessPlan
    #: The query's result rows, as :meth:`Database.xpath` returns them
    #: (EXPLAIN ANALYZE executes for real).
    #: A captured slow query keeps none, so the event ring holds no rows.
    matches: list
    #: Root of the captured span tree; its counters are the query's
    #: counter deltas.  Its first child is the span the query ran in.
    root: Span
    #: ``{counter name: (observed delta, threshold)}`` for every
    #: slow-query threshold the query exceeded (empty for EXPLAIN).
    exceeded: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def query(self) -> Span:
        """The span the query ran in: its attributes name the table,
        column, path text, access method and row count."""
        return self.root.children[0]

    @property
    def row_count(self) -> int:
        return self.query.attrs["rows"]

    @property
    def counters(self) -> dict[str, int]:
        """The query's counter deltas."""
        return self.root.counters

    def span(self, name: str) -> Span | None:
        """First span named ``name`` in the captured tree."""
        return self.root.find(name)

    def operator_costs(self) -> dict[str, dict[str, int]]:
        """Per-operator counter deltas, keyed by span name.

        Repeated operators (e.g. one ``xscan.run`` per candidate document)
        are summed, which is what a DB2 operator row would show.
        """
        out: dict[str, dict[str, int]] = {}
        # Sum sibling operators but never a span into its own ancestors:
        # deltas are inclusive, so only same-name repetition aggregates.
        seen_on_path: set[str] = set()

        def visit_exclusive(span: Span) -> None:
            added = False
            if span.kind == "span" and span.name not in seen_on_path:
                bucket = out.setdefault(span.name, {})
                for counter, delta in span.counters.items():
                    bucket[counter] = bucket.get(counter, 0) + delta
                seen_on_path.add(span.name)
                added = True
            for child in span.children:
                visit_exclusive(child)
            if added:
                seen_on_path.discard(span.name)

        visit_exclusive(self.root)
        return out

    def format(self) -> str:
        """DB2-style EXPLAIN ANALYZE text: plan, then actuals.  A slow
        query opens with its ``SLOW QUERY`` header and the thresholds it
        exceeded instead."""
        if self.exceeded:
            attrs = self.query.attrs
            lines = [f"SLOW QUERY {attrs['path']!r} on {attrs['table']}."
                     f"{attrs['column']} [{attrs['method']}] "
                     f"rows={attrs['rows']}"]
            lines.extend(f"  exceeded {name}: {value} > {limit}"
                         for name, (value, limit)
                         in sorted(self.exceeded.items()))
        else:
            lines = ["EXPLAIN ANALYZE"]
        lines.extend("  " + line for line in self.plan.explain().splitlines())
        lines.append(f"  actual rows: {self.row_count}")
        lines.append("operators (actual):")
        for name, counters in self.operator_costs().items():
            headline = [f"{key}={counters[key]}"
                        for key in _HEADLINE_COUNTERS if key in counters]
            suffix = f" [{' '.join(headline)}]" if headline else ""
            lines.append(f"  {name}{suffix}")
        lines.append("trace:")
        lines.extend("  " + line
                     for line in self.root.format().splitlines())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe rendering (plan summary + span tree)."""
        out = {
            "plan": {
                "method": self.plan.method.value,
                "path": str(self.plan.path),
                "exact": self.plan.exact,
                "probes": [
                    [source.describe() for source in group]
                    for group in self.plan.source_groups
                ],
            },
            "rows": self.row_count,
            "trace": self.root.to_dict(),
        }
        if self.exceeded:
            out["exceeded"] = dict(sorted(self.exceeded.items()))
        return out

    def to_json(self, indent: int | None = 2) -> str:
        import json
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:
        return self.format()
