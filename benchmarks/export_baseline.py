"""Export the counter-based perf baseline (``BENCH_baseline.json``).

Runs a deterministic miniature of the E-series workloads — bulk insert
with tree packing (E1/E4), navigational and scan queries (E2/E5), value
index probes (E6), node-level updates (E3), and a transactional mix with
an aborted delete — on a fixed configuration, then writes the engine's
counters, gauges and histograms through
:func:`repro.obs.report.metrics_to_dict` — the artifact
``python -m repro.obs.report`` renders.

The engine is deterministic, so the counter values are stable across runs
and machines; the committed ``BENCH_baseline.json`` is the reference a
perf-affecting change diffs against (``python -m repro.obs.report
BENCH_baseline.json`` renders it)::

    PYTHONPATH=src python benchmarks/export_baseline.py [output.json]

Besides the deterministic artifact, the export runs timed *scenarios* on
separate engine instances — ``commits_per_sec`` (one insert per
committed transaction), ``wal_bytes_per_commit``, and
``tracing_overhead`` (the same commit loop with an event ring that
records nothing and with the engine's default ring, timed in nine
interleaved pairs; its ratio is the median per-pair ratio) — recorded
under the artifact's ``scenarios`` key.  Wall-clock numbers vary by
machine, so the CI drift gate compares only
``counters``/``gauges``/``histograms`` and ignores ``scenarios``; the same
exemption covers ``waits_profile``, where this exporter moves the
wall-clock-derived ``waits.*`` counters and the ``waits.request_wait_us``
histogram so the deterministic keys stay deterministic.  The CI
observability job separately gates ``tracing_overhead``: the default
ring must stay within 5% of the record-nothing reference.
"""

import statistics
import sys
import time

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.events import EventTrace
from repro.obs.report import metrics_to_dict, wait_profile, write_metrics_json

#: Fixed workload shape — change deliberately; the baseline diffs on it.
DOCS = 96
BASELINE_CONFIG = EngineConfig(
    buffer_pool_pages=8,
    record_size_limit=512,
    slow_query_events=64,
    slow_query_entries_scanned=256,
)


def _document(i: int) -> str:
    items = "".join(
        f"<item n='{j}'><name>part-{i}-{j}</name>"
        f"<price>{(i * 7 + j) % 90 + 10}</price></item>"
        for j in range(1 + i % 8))
    return f"<order id='{i}'><customer>c{i % 6}</customer>{items}</order>"


def run_workload(db: Database) -> None:
    db.create_table("orders", [("id", "bigint"), ("doc", "xml")])
    db.create_xpath_index("price_ix", "orders", "doc",
                          "/order/item/price", "double")

    # E1/E4: bulk load under transactions (accounting + WAL + packing).
    rids = []
    for i in range(DOCS):
        rids.append(db.run_in_txn(
            lambda eng, txn, i=i: eng.insert(
                "orders", (i, _document(i)), txn_id=txn.txn_id)))

    # E2/E5: navigation and scans (QuickXScan histograms, slow queries).
    db.xpath("orders", "doc", "/order/customer")
    db.xpath("orders", "doc", "/order/item/name")
    db.xpath("orders", "doc", "/order/item[price > 50]")

    # E6: value-index probes against the same predicate.
    from repro.query.plan import AccessMethod
    db.xpath("orders", "doc", "/order/item[price > 50]",
             method=AccessMethod.DOCID_LIST)

    # E3: node-level update on one document — replace the text child of
    # the first matched <customer> element.
    results = db.xpath("orders", "doc", "/order/customer")
    updater = db.updater("orders", "doc")
    target = results[0]
    assert target.node_id is not None
    text_id = updater.child_ids(target.docid, target.node_id)[0]
    updater.replace_text(target.docid, text_id, "c-updated")

    # Transactional mix: an aborted delete exercises logical undo.
    txn = db.txns.begin()
    db.delete_row("orders", rids[-1], txn_id=txn.txn_id)
    txn.abort()
    db.run_in_txn(lambda eng, t: eng.delete_row(
        "orders", rids[0], txn_id=t.txn_id))

    db.checkpoint()


#: Commits per timed commit-path scenario run.
SCENARIO_COMMITS = 64


def _commit_scenario() -> dict:
    """Time ``SCENARIO_COMMITS`` single-insert commits on a fresh engine.

    Runs on its own :class:`Database` (own stats) so scenario counters
    never leak into the deterministic baseline artifact.
    """
    db = Database(BASELINE_CONFIG)
    db.create_table("bench", [("id", "bigint"), ("doc", "xml")])
    started = time.perf_counter()
    for i in range(SCENARIO_COMMITS):
        db.run_in_txn(lambda eng, txn, i=i: eng.insert(
            "bench", (i, _document(i)), txn_id=txn.txn_id))
    elapsed = time.perf_counter() - started
    counters = db.stats.counters()
    db.close()
    return {
        "commits": SCENARIO_COMMITS,
        "wall_seconds": round(elapsed, 6),
        "commits_per_sec": round(SCENARIO_COMMITS / elapsed, 1)
        if elapsed > 0 else 0.0,
        "wal_bytes": counters.get("wal.bytes", 0),
    }


#: Event-ring modes the overhead scenario times, in run order.
_TRACE_MODES = ("reference", "default")

#: Commits per overhead-scenario run: long enough (about 0.6 s on a
#: 2-vCPU VM) that scheduler jitter amortizes below the 5% CI gate; at
#: 192 commits (about 0.1 s) single pairs ranged from 0.49 to 2.2.
OVERHEAD_COMMITS = 1024

#: Interleaved (reference, default) pairs the overhead scenario times.
OVERHEAD_PAIRS = 9


class _RecordNothing(EventTrace):
    """An event ring that records nothing: the overhead reference."""

    def emit(self, name, *, request=None, txn_id=None, **payload):
        return None


def _traced_commit_run(mode: str) -> float:
    """One timed commit loop under the given ring mode; returns seconds.

    ``reference`` records nothing (every emit returns at once),
    ``default`` keeps the engine's own ring (one accounting record per
    transaction).
    """
    db = Database(BASELINE_CONFIG)
    db.create_table("bench", [("id", "bigint"), ("doc", "xml")])
    if mode == "reference":
        _RecordNothing().install(db.stats)
    started = time.perf_counter()
    for i in range(OVERHEAD_COMMITS):
        db.run_in_txn(lambda eng, txn, i=i: eng.insert(
            "bench", (i, _document(i)), txn_id=txn.txn_id))
    elapsed = time.perf_counter() - started
    db.close()
    return elapsed


def run_tracing_overhead(pairs: int = OVERHEAD_PAIRS) -> dict:
    """Commit-loop timing per trace mode, in interleaved pairs.

    Each pair times both modes back to back, alternating which runs
    first, so a background hiccup or a drifting machine hits both halves
    of a pair alike and neither mode always runs on a warmer machine; one
    discarded warmup round per mode pays the import/allocator cold-start
    before anything is timed.  The ``default`` mode's ``overhead_ratio``
    is the median of the per-pair default/reference ratios — the number
    the CI observability job gates (<= 1.05).
    """
    for mode in _TRACE_MODES:  # warmup, discarded
        _traced_commit_run(mode)
    times: dict[str, list[float]] = {mode: [] for mode in _TRACE_MODES}
    for pair in range(pairs):
        order = _TRACE_MODES if pair % 2 == 0 else _TRACE_MODES[::-1]
        for mode in order:
            times[mode].append(_traced_commit_run(mode))
    ratios = [default / reference for default, reference
              in zip(times["default"], times["reference"], strict=True)
              if reference > 0]
    out: dict = {
        mode: {
            "commits": OVERHEAD_COMMITS,
            "runs_seconds": [round(t, 6) for t in times[mode]],
        }
        for mode in _TRACE_MODES
    }
    out["default"]["pair_ratios"] = [round(ratio, 4) for ratio in ratios]
    out["default"]["overhead_ratio"] = \
        round(statistics.median(ratios), 4) if ratios else 0.0
    return out


def run_scenarios() -> dict:
    """Timed scenarios (wall-clock; excluded from the CI drift gate)."""
    single = _commit_scenario()
    return {
        "commits_per_sec": {
            "single_commit": single,
        },
        "wal_bytes_per_commit": {
            "single_commit": round(
                single["wal_bytes"] / single["commits"], 1),
        },
        "tracing_overhead": run_tracing_overhead(),
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = argv[0] if argv else "BENCH_baseline.json"
    db = Database(BASELINE_CONFIG)
    run_workload(db)
    artifact = metrics_to_dict(db.stats)
    # The wait clock measures real time, so its metrics are the one part
    # of the artifact that is *not* deterministic across machines.  Move
    # them out of the drift-gated counters/histograms keys into the
    # exempt waits_profile section (same treatment as scenarios).
    artifact["waits_profile"] = {
        "counters": {name: artifact["counters"].pop(name)
                     for name in sorted(artifact["counters"])
                     if name.startswith("waits.")},
        "request_wait_us": artifact["histograms"].pop(
            "waits.request_wait_us", None),
        "profile": wait_profile(db.stats),
    }
    artifact["workload"] = {
        "name": "bench-baseline",
        "docs": DOCS,
        "config": {
            "buffer_pool_pages": BASELINE_CONFIG.buffer_pool_pages,
            "record_size_limit": BASELINE_CONFIG.record_size_limit,
        },
    }
    artifact["scenarios"] = run_scenarios()
    write_metrics_json(artifact, out)
    counters = artifact["counters"]
    rate = artifact["scenarios"]["commits_per_sec"]
    print(f"wrote {out}: {len(counters)} counters, "
          f"{len(artifact['histograms'])} histograms")
    print(f"commits/sec: {rate['single_commit']['commits_per_sec']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
