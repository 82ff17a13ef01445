"""Smoke test of the benchmark: ``python -m pytest bench/ -q``.

Not part of tier-1 (whose ``testpaths`` is ``tests``).  Checks that
BENCHMARK.json has the shape the contract demands, that the validator
refuses broken manifests, and that what ``bench/run.py`` emits is named
exactly as the manifest says.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import manifest

RUN = str(manifest.ROOT / "bench" / "run.py")
SPEC = manifest.load()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_manifest_meets_the_contract():
    assert manifest.validate_file() == []
    assert SPEC["paths"] == ["bench"]
    names = WORKLOADS + [m["name"] for key in ("end_to_end", "per_layer")
                         for m in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))


def _broken(change) -> list[str]:
    spec = copy.deepcopy(SPEC)
    change(spec)
    return manifest.validate(spec)


@pytest.mark.parametrize("change", [
    lambda s: s.update(extra=1),
    lambda s: s.pop("per_layer"),
    lambda s: s["end_to_end"].pop(0),                      # no setup_s
    lambda s: s["end_to_end"][1].update(bound=0.3),
    lambda s: s["end_to_end"][1].update(bound=0),
    lambda s: s["end_to_end"][1].update(better="faster"),
    lambda s: s["end_to_end"][1].update(unit="per second"),
    lambda s: s["per_layer"][0].update(bound=0.1),
    lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
    lambda s: s["workloads"][0].update(name="-ingest"),
    lambda s: s["workloads"][0].update(why="two\nlines"),
    lambda s: s["workloads"].__delitem__(slice(1, None)),
    lambda s: s.update(run_seconds=61),
    lambda s: s.update(run_seconds=10.0),
    lambda s: s.update(paths=["../bench"]),
    lambda s: s.update(command=["python3", "/abs/run.py"]),
    lambda s: s.update(command=["python3", "benchmarks/run.py"]),
])
def test_validator_refuses(change):
    assert _broken(change)


def _run(*args: str, cwd=manifest.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, timeout=120,
                          capture_output=True, text=True)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_names_equal_the_manifest(workload, trace, key):
    done = _run(RUN, "--workload", workload, "--quick", "--seed", "3",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True and record["failed"] == 0
    assert record["attempted"] >= 1
    emitted = [(name, entry["unit"])
               for name, entry in record["metrics"].items()]
    assert emitted == [(m["name"], m["unit"]) for m in SPEC[key]]
    assert all(isinstance(entry["value"], (int, float))
               for entry in record["metrics"].values())


def test_fails_without_the_engine_source(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` there is no
    engine to measure: non-zero exit, no result line."""
    shutil.copy(manifest.MANIFEST_PATH, tmp_path)
    shutil.copytree(manifest.ROOT / "bench", tmp_path / "bench")
    done = _run("bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
