"""Serving-layer load benchmark: concurrent-client latency under the pool.

Drives the :mod:`repro.serve` thread-pool server with hundreds of client
threads issuing the mixed load-harness workload (auto-commit inserts,
explicit hot-row update transactions, cached XPath queries) and reports
p50/p99 request and queue-wait latency from the engine's histograms.  A
second scenario deliberately undersizes the pool and admission queue to
measure behaviour at the shed point.  Each run re-verifies the zero
lost/duplicated-commit invariant against the accounting records, so the
numbers are only reported for correct runs.

The JSON latency report lands in ``benchmarks/artifacts/`` — the same
artifact the CI concurrency job uploads.
"""

import json
import os

from conftest import ARTIFACTS_DIR, print_table

from repro.serve.loadgen import run_load

SCENARIOS = [
    # (name, clients, ops, workers, queue_limit)
    ("light", 32, 4, 4, 64),
    ("standard", 128, 5, 8, 128),
    ("overloaded", 128, 4, 2, 8),
]


def export_report(name: str, report) -> str:
    os.makedirs(ARTIFACTS_DIR, exist_ok=True)
    path = os.path.join(ARTIFACTS_DIR, f"serve_load_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[report] wrote {path}")
    return path


def test_serve_load_latency():
    rows = []
    for name, clients, ops, workers, queue_limit in SCENARIOS:
        report = run_load(clients=clients, ops_per_client=ops, seed=17,
                          workers=workers, queue_limit=queue_limit)
        assert report.verified, report.verify_errors
        export_report(name, report)
        total = clients * ops
        rows.append([
            name, f"{clients}x{ops}", workers, queue_limit,
            report.committed_inserts + report.hot_commits + report.queries,
            report.shed, report.timed_out,
            report.p50_request_us, report.p99_request_us,
            report.p50_queue_wait_us, report.p99_queue_wait_us,
            f"{total / report.wall_seconds:,.0f}",
        ])
    print_table(
        "Serving layer under concurrent clients "
        "(latencies in microseconds)",
        ["scenario", "load", "workers", "queue", "ok-ops", "shed",
         "timed-out", "req p50", "req p99", "wait p50", "wait p99",
         "ops/s offered"],
        rows)


def test_serve_shed_point():
    """Overload sheds with the typed error instead of queueing unboundedly."""
    report = run_load(clients=96, ops_per_client=4, seed=23,
                      workers=1, queue_limit=2)
    assert report.verified, report.verify_errors
    assert report.shed > 0, "undersized queue never shed"
    rows = [[report.shed, report.counters.get("serve.shed_queue_full", 0),
             report.counters.get("serve.shed_overload", 0),
             report.p99_queue_wait_us]]
    print_table("Shed point (1 worker, queue limit 2, 96 clients)",
                ["shed total", "queue full", "overload guard", "wait p99"],
                rows)
