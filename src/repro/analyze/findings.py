"""Findings: what a checker reports and how a finding is identified.

A finding pins an engine-invariant violation to a file and line.  Its
*fingerprint* deliberately excludes the line number: suppression baselines
must survive unrelated edits to the same file, so a finding is identified by
(checker code, file, enclosing scope, checker-specific detail) instead of by
position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a violated invariant is for the engine."""

    ERROR = "error"      # protocol violation: can corrupt data or deadlock
    WARNING = "warning"  # risky pattern: correct today, fragile under change

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


@dataclass(frozen=True)
class Finding:
    """One invariant violation located in the analyzed tree.

    ``detail`` is the stable, position-independent token the checker chose
    (a metric name, a callee, a lock-class pair); together with ``code``,
    ``path`` and ``scope`` it forms the baseline fingerprint.
    """

    code: str            # e.g. "PIN002"
    checker: str         # e.g. "pin-leak"
    path: str            # path relative to the analysis root
    line: int
    column: int
    message: str
    severity: Severity = Severity.ERROR
    scope: str = ""      # dotted qualname of the enclosing class/function
    detail: str = ""     # checker-specific stable token
    related: tuple[tuple[str, int], ...] = field(default_factory=tuple)
    #: interprocedural witness: rendered ``path:line: step`` lines from the
    #: reported site down to the primitive call that proves the finding
    #: (empty for intraprocedural findings); shown by ``--explain``.
    call_path: tuple[str, ...] = field(default_factory=tuple)

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used by the suppression baseline."""
        return f"{self.code}:{self.path}:{self.scope}:{self.detail}"

    def render(self) -> str:
        """One-line human-readable report."""
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.code} [{self.severity.value}] {self.message}")

    def render_call_path(self, indent: str = "    ") -> str:
        """Multi-line witnessing call path (``--explain``)."""
        return "\n".join(f"{indent}{step}" for step in self.call_path)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form (``--format json``)."""
        return {
            "code": self.code,
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "severity": self.severity.value,
            "scope": self.scope,
            "fingerprint": self.fingerprint,
            "related": [list(pair) for pair in self.related],
            "call_path": list(self.call_path),
        }
