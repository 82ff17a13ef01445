"""The repo benchmark: ``python3 bench/run.py``.

One workload, as the benchmark driver runs it::

    python3 bench/run.py --workload ingest --seed 0 --seconds 10 --trace 0

prints each metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is non-zero when any answer was wrong.

Without ``--workload`` it runs the whole suite, one fresh process per
workload (see ``bench/suite.py``): ``--traced`` adds the per-layer runs,
``--aa`` runs the suite twice and compares the two against the bounds in
``BENCHMARK.json``, ``--quick`` shrinks everything to a smoke test.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Under ``--quick`` op counts shrink by this factor.
QUICK_SCALE = 50
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="op counts / 50, one set-up sample")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also make the per-layer runs")
    parser.add_argument("--aa", action="store_true",
                        help="suite: run twice, compare against the bounds")
    parser.add_argument("--out", help="suite: write the numbers here as JSON")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fresh_setups(args: argparse.Namespace) -> list[float]:
    """``setup_s`` of further fresh processes, one after the other."""
    command = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The script's own directory leaves the import path: bench/trace.py
    # must not stand in for the standard library's ``trace``.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from bench import manifest
    errors = manifest.validate_file()
    if errors:
        print("BENCHMARK.json: " + "; ".join(errors), file=sys.stderr)
        return 2
    spec = manifest.load()
    seconds = args.seconds if args.seconds is not None else \
        (0.4 if args.quick else spec["run_seconds"])

    if args.workload is None:
        from bench import suite
        return suite.main(args, spec, seconds)

    from bench import harness
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    scale = QUICK_SCALE if args.quick else 1
    if args.setup_only:
        bench = harness.set_up(args.workload, args.seed, scale, PROCESS_START)
        bench.server.shutdown()
        print(repr(bench.setup_s))
        return 0

    more = (lambda: []) if args.quick else (lambda: fresh_setups(args))
    record = harness.run(args.workload, args.seed, seconds, bool(args.trace),
                         scale, PROCESS_START, more)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = record.pop("metrics")
    emitted = [(name, unit) for name, (_value, unit) in metrics.items()]
    if emitted != [(m["name"], m["unit"]) for m in declared]:
        raise SystemExit("metric names or units differ from BENCHMARK.json")
    print(f"# {args.workload} seed={args.seed} seconds={seconds} "
          f"trace={args.trace} samples={record.pop('samples')} "
          f"(timings from the {record.pop('quiet_samples')} least off the "
          f"CPU) nproc={harness.nproc()}")
    for key in ("setup_samples", "traced"):
        if key in record:
            print(f"# {key}: {json.dumps(record.pop(key))}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
