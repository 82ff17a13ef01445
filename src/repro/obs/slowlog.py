"""Slow-query records: auto-captured evidence for queries over a budget.

The DB2 analogue is the performance trace one turns on *after* noticing a
problem; here the engine watches every ``Database.xpath`` call's counter
deltas against the ``EngineConfig.slow_query_*`` thresholds and, for
offenders, records the whole story — chosen access plan, span tree, counter
deltas, and which thresholds were exceeded — as a ``db.slow_query``
record in the engine's event ring.  ``Database.slow_queries``
reads them back as :class:`SlowQueryRecord` objects.  Queries under
threshold leave no trace behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import Span


@dataclass(frozen=True)
class SlowQueryRecord:
    """One captured slow query."""

    table: str
    column: str
    path: str
    method: str
    rows: int
    #: Counter deltas over the whole query (planning + execution + join).
    counters: dict[str, int] = field(default_factory=dict)
    #: ``{counter name: (observed delta, threshold)}`` for every threshold
    #: the query exceeded.
    exceeded: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: The planner's explanation of the chosen access plan.
    plan_text: str = ""
    #: Root of the span tree captured while the query ran.
    root: Span = field(default_factory=lambda: Span("slow_query"))

    def format(self) -> str:
        """Human-readable rendering (report CLI / debugging)."""
        lines = [f"SLOW QUERY {self.path!r} on {self.table}.{self.column} "
                 f"[{self.method}] rows={self.rows}"]
        for name, (value, limit) in sorted(self.exceeded.items()):
            lines.append(f"  exceeded {name}: {value} > {limit}")
        lines.extend("  " + line for line in self.plan_text.splitlines())
        lines.append("  trace:")
        lines.extend("    " + line for line in self.root.format().splitlines())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe rendering (exporters and artifacts)."""
        return {
            "table": self.table,
            "column": self.column,
            "path": self.path,
            "method": self.method,
            "rows": self.rows,
            "counters": dict(sorted(self.counters.items())),
            "exceeded": {name: [value, limit]
                         for name, (value, limit)
                         in sorted(self.exceeded.items())},
            "plan": self.plan_text,
            "trace": self.root.to_dict(),
        }

