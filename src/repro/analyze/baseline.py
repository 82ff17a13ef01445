"""Suppression baseline: documented, reviewed exceptions to the checkers.

A finding the team has looked at and decided to keep is *baselined*: its
line-independent fingerprint goes into a checked-in text file together with
a mandatory reason.  CI fails on any finding not in the baseline, so new
violations cannot ride in silently, while the baseline file itself is the
documentation trail for every intentional exception.

File format — one entry per line::

    PIN002  repro/rdb/buffer.py:BufferPool.new_page:self.pool.new_page  # no raiser in between

i.e. ``CODE<whitespace>fingerprint-without-code  # reason``.  Blank lines
and ``#`` comment lines are ignored.  Entries *must* carry a reason: an
undocumented entry is itself an error (the baseline is documentation, not a
mute button).  Race findings (``RACE*``/``LATCH*``) are held to a stricter
form — their comment must start with ``reason:`` — because a baselined race
is a claim about *runtime behaviour* ("only one thread ever writes this",
"every caller holds the engine latch") that review has to be able to find
and challenge; a bare remark does not qualify.  Nothing checks the claim
at runtime: the stated invariant is what review holds the code to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analyze.findings import Finding


class BaselineError(ValueError):
    """Malformed or undocumented baseline entry."""


@dataclass(frozen=True)
class BaselineEntry:
    fingerprint: str
    reason: str
    lineno: int = 0


class Baseline:
    """Set of documented suppressions loaded from a baseline file."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()) -> None:
        self.entries: dict[str, BaselineEntry] = {
            entry.fingerprint: entry for entry in entries}
        self._matched: set[str] = set()

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        entries: list[BaselineEntry] = []
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            body, sep, reason = line.partition("#")
            reason = reason.strip()
            if not sep or not reason:
                raise BaselineError(
                    f"{path}:{lineno}: baseline entry has no reason — every "
                    f"suppression must document why it is intentional")
            # Split on the first whitespace run only: fingerprints may
            # themselves contain spaces (e.g. WAL002's 'except Exception:').
            parts = body.split(None, 1)
            if len(parts) != 2:
                raise BaselineError(
                    f"{path}:{lineno}: expected 'CODE fingerprint  # reason'")
            code, rest = parts[0], parts[1].strip()
            if code.startswith(("RACE", "LATCH")) and \
                    not reason.lower().startswith("reason:"):
                raise BaselineError(
                    f"{path}:{lineno}: baselined {code} entries must carry "
                    f"a '# reason: ...' comment stating the runtime claim "
                    f"that makes the race intentional")
            entries.append(BaselineEntry(f"{code}:{rest}", reason, lineno))
        return cls(entries)

    def suppresses(self, finding: Finding) -> bool:
        entry = self.entries.get(finding.fingerprint)
        if entry is not None:
            self._matched.add(finding.fingerprint)
            return True
        return False

    def split(self, findings: Iterable[Finding]
              ) -> tuple[list[Finding], list[Finding]]:
        """Partition into (new, baselined) findings."""
        new: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            (suppressed if self.suppresses(finding) else new).append(finding)
        return new, suppressed

    def stale_entries(self, codes: set[str] | None = None
                      ) -> list[BaselineEntry]:
        """Entries that matched nothing: the violation was fixed, so the
        suppression must be deleted.  ``codes`` limits the answer to the
        codes a run checked (None: every code) — an entry for a code the
        run did not select could not have matched."""
        return [entry for fingerprint, entry in sorted(self.entries.items())
                if fingerprint not in self._matched
                and (codes is None or fingerprint.split(":")[0] in codes)]


def prune_stale(path: Path, stale_fingerprints: set[str]) -> int:
    """Rewrite the baseline at ``path`` without the stale entries.

    Comment and blank lines survive untouched; only entry lines whose
    fingerprint is in ``stale_fingerprints`` are dropped.  Returns the
    number of lines removed.
    """
    kept: list[str] = []
    dropped = 0
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            body = line.partition("#")[0].split(None, 1)
            if len(body) == 2 and f"{body[0]}:{body[1].strip()}" in \
                    stale_fingerprints:
                dropped += 1
                continue
        kept.append(raw)
    path.write_text("\n".join(kept) + "\n")
    return dropped


def write_baseline(path: Path, findings: Iterable[Finding]) -> int:
    """Write ``findings`` as a baseline skeleton; reasons must be filled in."""
    lines = [
        "# repro.analyze suppression baseline.",
        "# Every entry must end with '# <reason>' documenting why the",
        "# finding is intentional; undocumented entries fail the load.",
        "",
    ]
    count = 0
    seen: set[str] = set()
    for finding in sorted(findings, key=lambda f: f.fingerprint):
        if finding.fingerprint in seen:
            continue  # fingerprints are the identity; lines are not
        seen.add(finding.fingerprint)
        fingerprint_rest = finding.fingerprint[len(finding.code) + 1:]
        lines.append(f"{finding.code}  {fingerprint_rest}"
                     f"  # TODO: document why this is intentional")
        count += 1
    path.write_text("\n".join(lines) + "\n")
    return count
