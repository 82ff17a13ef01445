"""Command line driver: ``python -m repro.analyze [paths...]``.

Exit status: 0 — clean (every finding baselined or none); 2 — new findings,
or stale baseline entries for a code the run checked (``--prune-stale``
deletes them instead); 1 — usage/baseline error.  Designed for CI: the
``analyze`` job runs ``python -m repro.analyze src`` and fails the build
on any non-baselined invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analyze.baseline import (Baseline, BaselineError, prune_stale,
                                    write_baseline)
from repro.analyze.excsafety import ExceptionSafetyChecker
from repro.analyze.framework import Checker, run_checkers
from repro.analyze.lockorder import LockOrderChecker
from repro.analyze.pins import PinLeakChecker
from repro.analyze.races import LatchBlockingChecker, SharedStateRaceChecker
from repro.analyze.statshygiene import StatsHygieneChecker
from repro.analyze.waldiscipline import WalDisciplineChecker

#: default baseline filename looked up next to the current directory.
DEFAULT_BASELINE = "analyze-baseline.txt"


def all_checkers() -> list[Checker]:
    """Fresh instances of every shipped checker (they carry per-run state)."""
    return [
        PinLeakChecker(),
        LockOrderChecker(),
        WalDisciplineChecker(),
        StatsHygieneChecker(),
        ExceptionSafetyChecker(),
        SharedStateRaceChecker(),
        LatchBlockingChecker(),
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Engine-aware static analysis: machine-checks the "
                    "buffer/lock/WAL/stats protocols every component of the "
                    "XML engine must obey.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"suppression baseline file (default: "
                             f"./{DEFAULT_BASELINE} when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline file "
                             "(reasons must then be documented by hand)")
    parser.add_argument("--select", default=None,
                        help="comma-separated checker names or finding "
                             "codes to run (e.g. pin-leak,LOCK001)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--explain", action="store_true",
                        help="print the witnessing call path under every "
                             "interprocedural finding")
    parser.add_argument("--list-checkers", action="store_true",
                        help="list shipped checkers (and each finding code "
                             "they emit) and exit")
    parser.add_argument("--prune-stale", action="store_true",
                        help="rewrite the baseline file dropping entries "
                             "that no longer match any finding")
    return parser


def _select(checkers: list[Checker], spec: str | None
            ) -> tuple[list[Checker], set[str] | None]:
    if spec is None:
        return checkers, None
    wanted = {token.strip() for token in spec.split(",") if token.strip()}
    selected: list[Checker] = []
    codes: set[str] = set()
    for checker in checkers:
        if checker.name in wanted:
            selected.append(checker)
            codes.update(checker.codes)
            continue
        hit = wanted & set(checker.codes)
        if hit:
            selected.append(checker)
            codes.update(hit)
    if not selected:
        raise SystemExit(f"--select matched no checker: {spec!r}")
    return selected, codes


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    checkers = all_checkers()
    if args.list_checkers:
        for checker in checkers:
            print(f"{checker.name:18s} {'/'.join(checker.codes):16s} "
                  f"{checker.description}")
            for code in checker.codes:
                about = checker.code_descriptions.get(code, "")
                if about:
                    print(f"  {code:16s} {about}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 1
    checkers, code_filter = _select(checkers, args.select)

    parse_errors: list[str] = []
    findings = run_checkers(
        checkers, paths, root=Path.cwd(),
        on_error=lambda path, exc: parse_errors.append(f"{path}: {exc}"))
    if code_filter is not None:
        findings = [f for f in findings if f.code in code_filter]

    baseline_path = args.baseline
    if baseline_path is None:
        candidate = Path.cwd() / DEFAULT_BASELINE
        baseline_path = candidate if candidate.exists() or \
            args.write_baseline else None

    if args.write_baseline:
        if baseline_path is None:  # pragma: no cover - defaulted above
            baseline_path = Path.cwd() / DEFAULT_BASELINE
        count = write_baseline(baseline_path, findings)
        print(f"wrote {count} entries to {baseline_path} "
              f"(document each reason before committing)")
        return 0

    baseline = Baseline()
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (BaselineError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    new, suppressed = baseline.split(findings)
    stale = baseline.stale_entries(code_filter)

    if args.format == "json":
        print(json.dumps({
            "findings": [f.as_dict() for f in new],
            "baselined": [f.as_dict() for f in suppressed],
            "stale_baseline_entries": [e.fingerprint for e in stale],
            "parse_errors": parse_errors,
        }, indent=2))
    else:
        for error in parse_errors:
            print(f"parse error: {error}", file=sys.stderr)
        for finding in new:
            print(finding.render())
            if args.explain and finding.call_path:
                print(finding.render_call_path())
        if suppressed:
            print(f"{len(suppressed)} finding(s) suppressed by baseline "
                  f"{baseline_path}")
        for entry in stale:
            print(f"stale baseline entry (violation fixed — delete it, or "
                  f"run --prune-stale): {entry.fingerprint}  "
                  f"# {entry.reason}")
        if not new and not stale:
            print(f"repro.analyze: clean "
                  f"({len(checkers)} checkers, "
                  f"{len(suppressed)} baselined finding(s))")
        else:
            print(f"repro.analyze: {len(new)} new finding(s), "
                  f"{len(stale)} stale baseline entr"
                  f"{'y' if len(stale) == 1 else 'ies'}")
    if args.prune_stale and stale and baseline_path is not None:
        dropped = prune_stale(baseline_path,
                              {entry.fingerprint for entry in stale})
        print(f"pruned {dropped} stale entr{'y' if dropped == 1 else 'ies'} "
              f"from {baseline_path}")
    return 2 if new or (stale and not args.prune_stale) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
