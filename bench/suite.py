"""The whole suite: every workload of BENCHMARK.json, one fresh process each.

Each workload runs through the same command line the benchmark driver uses,
so what the suite prints is what the driver measures.  ``--aa`` runs the
untraced suite twice and holds the two runs of the same commit against the
bounds the manifest fixes; that is the check a bound has to pass before
anybody may use it to reject a change.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

from bench.harness import nproc
from bench.manifest import ROOT

RUN = str(Path(__file__).resolve().parent / "run.py")


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    """One driver-style run in a fresh process; returns its last-line JSON."""
    command = [sys.executable, RUN, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name} (trace={trace}) exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["notes"] = [line for line in lines if line.startswith("#")]
    return record


def run_suite(spec: dict, seed: int, seconds: float, trace: int,
              quick: bool) -> dict[str, dict]:
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        record = run_workload(name, seed, seconds, trace, quick)
        results[name] = record
        print(f"\n{record['notes'][0]}")
        print(f"# attempted={record['attempted']} failed={record['failed']}")
        for metric, entry in record["metrics"].items():
            print(f"{name:12s} {metric:36s} {entry['value']:16.6f} "
                  f"{entry['unit']}")
    return results


def compare(spec: dict, first: dict, second: dict) -> bool:
    """Print the two runs side by side; True when every pair is in bound."""
    within = True
    print(f"\n{'workload':12s} {'metric':28s} {'A':>14s} {'B':>14s} "
          f"{'|B-A|/A':>9s} {'bound':>6s}")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            change = abs(b - a) / a
            ok = change <= metric["bound"]
            within &= ok
            print(f"{name:12s} {metric['name']:28s} {a:14.6f} {b:14.6f} "
                  f"{change:9.4f} {metric['bound']:6.2f}"
                  f"{'' if ok else '  OUTSIDE'}")
    return within


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _numbers(results: dict[str, dict]) -> dict:
    return {name: {"attempted": record["attempted"],
                   "failed": record["failed"],
                   "metrics": {metric: entry["value"] for metric, entry
                               in record["metrics"].items()}}
            for name, record in results.items()}


def main(args, spec: dict, seconds: float) -> int:
    runs = [run_suite(spec, args.seed, seconds, 0, args.quick)
            for _ in range(2 if args.aa else 1)]
    traced = run_suite(spec, args.seed, seconds, 1, args.quick) \
        if args.traced else None
    within = compare(spec, *runs) if args.aa else True
    if args.out:
        record = {"seed": args.seed, "seconds": seconds, "nproc": nproc(),
                  "python": platform.python_version(), "git_sha": git_sha(),
                  "end_to_end": [_numbers(run) for run in runs]}
        if traced is not None:
            record["per_layer"] = _numbers(traced)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(record["failed"] for run in [*runs, traced or {}]
                 for record in run.values())
    if failed or not within:
        print(f"\nFAILED: {failed} wrong answers"
              f"{'' if within else ', A/A outside a bound'}")
        return 1
    return 0
