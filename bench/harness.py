"""One benchmark run: set-up, the timed closed loop, checks, metrics.

A run with ``trace=False`` times an untraced closed loop for ``seconds`` and
reports the end-to-end metrics.  A run with ``trace=True`` splits the time:
the first half is the same untraced loop, from which the engine's own
``db.stats`` counters and the client-side per-type latencies are read; the
second half runs with :mod:`bench.trace` installed and gives each layer's
self time.  Traced time per op over untraced time per op, minus one, is the
tracing overhead.

Counters that must repeat exactly from run to run (bytes stored and logged,
page reads, B-tree probes, ...) are read after a fixed number of ops, not at
the end of the timed loop, so they do not depend on how fast the box is.

The sandbox is a shared virtual machine whose hypervisor at times takes
the CPU away for tens of milliseconds, many times a second.  Beside each
op's wall time the client therefore notes the process's CPU time over the
same interval; the difference is time the op spent off the CPU (stolen,
preempted or asleep).  The end-to-end timings come from the half of the ops
that were off the CPU least; every op still counts for correctness.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.engine import Database
from repro.errors import ReproError
from repro.lang.parser import parse_xpath
from repro.serve import DatabaseServer

from bench import rungs
from bench.trace import LAYERS, Tracer
from bench.workloads import (OUT_DIR, WORKLOADS, Workload, create_schema,
                             engine_config)

_now = time.perf_counter_ns


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- set-up ------------------------------------------------------------------

@dataclass
class Bench:
    workload: Workload
    db: Database
    server: DatabaseServer
    clients: int
    table_build_ms: float
    setup_s: float


def set_up(name: str, seed: int, scale: int, process_start: float) -> Bench:
    """Everything before the first timed op; ``setup_s`` counts from
    ``process_start`` (``time.perf_counter()`` at the top of ``run.py``), so
    it includes importing the engine."""
    started = time.perf_counter()
    parse_xpath("/a")           # first parse builds the LALR tables
    table_build_ms = (time.perf_counter() - started) * 1e3
    cores = nproc()
    workload = WORKLOADS[name](seed, scale)
    db = Database(engine_config(cores))
    create_schema(db)
    workload.preload(db)
    db.checkpoint()
    server = DatabaseServer(db).start()
    gc.collect()
    return Bench(workload, db, server, workload.clients(cores),
                 table_build_ms, time.perf_counter() - process_start)


# -- the closed loop ---------------------------------------------------------

@dataclass
class Reading:
    """The engine's counters at one instant."""

    counters: dict[str, int]
    wal_bytes: int
    stored_bytes: int
    user_bytes: int
    results: int


class Done(NamedTuple):
    """One completed op as its client saw it."""

    kind: str
    wall_ns: int
    #: Wall time minus the process's CPU time over the same interval.
    off_cpu_ns: int
    request: int
    user_bytes: int     # XML text acknowledged
    user_nodes: int


@dataclass
class Tally:
    """What one client saw during one timed phase."""

    ops: list[Done] = field(default_factory=list)
    failed: int = 0
    results: int = 0

    @property
    def user_bytes(self) -> int:
        return sum(op.user_bytes for op in self.ops)


@dataclass
class Phase(Tally):
    """All clients of one timed phase, and the engine after ``fixed_ops``."""

    reading: Reading | None = None

    def quiet(self) -> list[Done]:
        """The half of the ops of each kind that were off the CPU least
        (per kind, so the mix of kinds stays what it was)."""
        by_kind: dict[str, list[Done]] = {}
        for op in self.ops:
            by_kind.setdefault(op.kind, []).append(op)
        return [op for ops in by_kind.values()
                for op in sorted(ops, key=lambda op: op.off_cpu_ns)
                [:(len(ops) + 1) // 2]]

    def quiet_ns(self, *kinds: str) -> list[int]:
        return sorted(op.wall_ns for op in self.quiet()
                      if not kinds or op.kind in kinds)


def read_engine(bench: Bench, user_bytes: int, results: int) -> Reading:
    db = bench.db
    return Reading(db.stats.counters(), db.log.bytes_written,
                   db.disk.allocated_bytes, user_bytes, results)


def run_phase(bench: Bench, streams: list, seconds: float, min_ops: int,
              reading_at: int, tracer: Tracer | None = None) -> Phase:
    """Drive every client until ``seconds`` have passed and each has done
    ``min_ops`` ops.  The engine is read when every client has done exactly
    ``reading_at`` ops: they meet at a barrier, between two ops."""
    phase = Phase()
    tallies = [Tally() for _ in streams]

    def take_reading() -> None:
        phase.reading = read_engine(bench, sum(t.user_bytes for t in tallies),
                                    sum(t.results for t in tallies))

    barrier = threading.Barrier(len(streams), action=take_reading)
    deadline = _now() + int(seconds * 1e9)
    errors: list[BaseException] = []

    def client(index: int) -> None:
        tally = tallies[index]
        session = bench.server.session()
        try:
            for op in streams[index]:
                request = len(tally.ops) * len(streams) + index + 1
                if tracer is not None:
                    tracer.set_request(request)
                cpu_ns = time.process_time_ns()
                started = _now()
                try:
                    result = op.call(session)
                    ok = True
                except (ReproError, ValueError):
                    ok = False
                ended = _now()
                cpu_ns = time.process_time_ns() - cpu_ns
                ok = ok and op.settle(result)
                wall_ns = ended - started
                tally.ops.append(Done(op.kind, wall_ns, wall_ns - cpu_ns,
                                      request, op.user_bytes if ok else 0,
                                      op.user_nodes if ok else 0))
                if not ok:
                    tally.failed += 1
                elif isinstance(result, list):
                    tally.results += len(result)
                if len(tally.ops) == reading_at:
                    barrier.wait(timeout=120)
                if len(tally.ops) >= min_ops and ended >= deadline:
                    break
        except BaseException as error:  # re-raised on the caller's thread
            errors.append(error)
            barrier.abort()
        finally:
            session.close()

    if len(streams) == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    for tally in tallies:
        phase.ops += tally.ops
        phase.failed += tally.failed
        phase.results += tally.results
    return phase


# -- metrics -----------------------------------------------------------------

def percentile(values: list[int], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(bench: Bench, phase: Phase, setup_samples: list[float],
               peak_rss_kib: int) -> dict[str, tuple[float, str]]:
    samples = phase.quiet_ns()
    reading = phase.reading
    user_bytes = bench.workload.setup_bytes + reading.user_bytes
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (bench.clients * 1e9 * len(samples) / sum(samples),
                      "1/s"),
        "latency_p50_ms": (statistics.median(samples) / 1e6, "ms"),
        "latency_p95_ms": (percentile(samples, 0.95) / 1e6, "ms"),
        "stored_bytes_per_user_byte": (reading.stored_bytes / user_bytes,
                                       "ratio"),
        "wal_bytes_per_user_byte": (reading.wal_bytes / user_bytes, "ratio"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MiB"),
    }


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def per_layer(bench: Bench, base: Reading, plain: Phase, counted: int,
              traced: list[Done], summary: dict, replay_docs_per_s: float
              ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json, in its order.

    ``plain`` is the untraced phase, whose engine counters were read after
    ``counted`` ops; ``traced`` are the traced ops ``summary`` covers.
    """
    out: dict[str, tuple[float, str]] = {}
    ops = len(traced)
    self_ns = summary["self_ns"]
    busy = summary["entry_busy_ns"]
    calls = summary["entry_calls"]
    items = summary["entry_items"]
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = (self_ns[layer] / 1e3 / ops, "us/op")

    def per_call(*entries: str) -> float:
        return _ratio(sum(busy.get(e, 0) for e in entries) / 1e3,
                      sum(calls.get(e, 0) for e in entries))

    # Events a stored document (or, for index keys, one record) fed to
    # QuickXScan: the items its traced event generators yielded.
    traversed = items.get("StoredDocument.events", 0) \
        + items.get("StoredDocument.node_events", 0)
    out["xdm.parser.mb_per_s"] = (
        _ratio(sum(op.user_bytes for op in traced) / 1e6,
               self_ns["xdm.parser"] / 1e9), "MB/s")
    out["xmlstore.packing.nodes_per_s"] = (
        _ratio(sum(op.user_nodes for op in traced),
               self_ns["xmlstore.packing"] / 1e9), "1/s")
    out["xmlstore.traversal.events_per_s"] = (
        _ratio(traversed, self_ns["xmlstore.traversal"] / 1e9), "1/s")
    out["xpath.quickxscan.events_per_s"] = (
        _ratio(traversed + items.get("record_local_events", 0),
               self_ns["xpath.quickxscan"] / 1e9), "1/s")
    out["rdb.btree.search_us"] = (
        per_call("BTree.search", "BTree.search_one", "BTree.seek_ge",
                 "BTree.scan", "BTree.scan_prefix"), "us/call")
    out["rdb.btree.insert_us"] = (per_call("BTree.insert"), "us/call")
    out["rdb.wal.append_us"] = (per_call("LogManager.append"), "us/call")
    out["rdb.wal.replay_docs_per_s"] = (replay_docs_per_s, "1/s")

    # Exact work counts over the first ``fixed_ops // 4`` untraced ops.
    now = plain.reading
    n = counted
    delta = {name: value - base.counters.get(name, 0)
             for name, value in now.counters.items()}
    count = lambda name: delta.get(name, 0)  # noqa: E731
    per_op = lambda name: count(name) / n  # noqa: E731
    fetches = count("buffer.hits") + count("buffer.misses")
    out["rdb.wal.bytes_per_op"] = (
        (now.wal_bytes - base.wal_bytes) / n, "B/op")
    out["rdb.wal.flushes_per_op"] = (per_op("wal.flushes"), "1/op")
    out["rdb.buffer.fetches_per_op"] = (fetches / n, "1/op")
    out["rdb.buffer.hit_rate"] = (
        _ratio(count("buffer.hits"), fetches), "ratio")
    out["rdb.buffer.evictions_per_op"] = (per_op("buffer.evictions"), "1/op")
    out["rdb.disk.page_reads_per_op"] = (per_op("disk.page_reads"), "1/op")
    out["rdb.disk.page_writes_per_op"] = (per_op("disk.page_writes"), "1/op")
    out["rdb.btree.searches_per_op"] = (per_op("btree.searches"), "1/op")
    out["rdb.btree.entries_scanned_per_op"] = (
        per_op("btree.entries_scanned"), "1/op")
    out["rdb.btree.inserts_per_op"] = (per_op("btree.inserts"), "1/op")
    out["xpath.quickxscan.events_per_op"] = (per_op("xscan.events"), "1/op")
    out["query.candidates_per_result"] = (
        _ratio(count("exec.docs_evaluated") + count("exec.anchors_verified"),
               now.results - base.results), "ratio")
    for name, prefix in (("xpath.cache.parse_hit_rate", "xpath.parse"),
                         ("xpath.cache.compile_hit_rate", "xpath.compile"),
                         ("serve.stmt_hit_rate", "serve.stmt")):
        hits = count(f"{prefix}_hits")
        out[name] = (_ratio(hits, hits + count(f"{prefix}_misses")), "ratio")

    # Waiting and retries, as the engine's wait clock charged them.
    for name, counter in (
            ("serve.queue_wait_us_per_op", "waits.admission_queue_us"),
            ("serve.latch_wait_us_per_op", "waits.latch_wait_us"),
            ("rdb.locks.wait_us_per_op", "waits.lock_wait_us"),
            ("rdb.wal.force_wait_us_per_op", "waits.wal_force_us")):
        out[name] = (per_op(counter), "us/op")
    out["rdb.locks.waits_per_op"] = (per_op("lock.waits"), "1/op")
    out["rdb.txn.retries_per_op"] = (per_op("txn.retries"), "1/op")
    for kind, op_kinds in (("read", ("query",)),
                           ("write", ("insert", "replace"))):
        values = plain.quiet_ns(*op_kinds)
        out[f"serve.{kind}_p50_ms"] = (
            statistics.median(values) / 1e6 if values else 0.0, "ms")
        out[f"serve.{kind}_p95_ms"] = (
            percentile(values, 0.95) / 1e6 if values else 0.0, "ms")
    calm = plain.quiet_ns()
    out["serve.request_p99_ms"] = (percentile(calm, 0.99) / 1e6, "ms")

    out["rdb.codec.roundtrip_ns_per_field"] = (
        rungs.codec_roundtrip_ns(bench.workload.seed), "ns")
    out["core.stats.add_ns"] = (rungs.stats_add_ns(), "ns")
    out["lang.table_build_ms"] = (bench.table_build_ms, "ms")
    out["bench.trace_overhead_share"] = (
        statistics.mean(op.wall_ns for op in traced)
        / statistics.mean(calm) - 1, "ratio")
    return out


# -- one run -----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, scale: int,
        process_start: float, more_setups=lambda: []) -> dict:
    """Run one workload and return the record ``run.py`` prints.

    ``more_setups()`` is called after the run has ended and returns further
    ``setup_s`` samples (from fresh processes); ``setup_s`` is the median.
    """
    bench = set_up(name, seed, scale, process_start)
    workload = bench.workload
    streams = [workload.client(i, bench.clients)
               for i in range(bench.clients)]
    base = read_engine(bench, 0, 0)
    try:
        if not trace:
            plain = run_phase(bench, streams, seconds, workload.fixed_ops,
                              workload.fixed_ops)
            phases = [plain]
        else:
            counted = max(2, workload.fixed_ops // 4)
            plain = run_phase(bench, streams, seconds / 2, counted, counted)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(bench, streams, seconds / 2, counted, 0,
                                   tracer)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checked, check_failed, extra = workload.finish(bench.db, bench.server)
    finally:
        bench.server.shutdown()
    failed = sum(p.failed for p in phases) + check_failed
    record = {"correct": failed == 0,
              "attempted": sum(len(p.ops) for p in phases) + checked,
              "failed": failed, "samples": len(plain.ops),
              "quiet_samples": len(plain.quiet_ns())}
    if not trace:
        setups = [bench.setup_s, *more_setups()]
        record["setup_samples"] = setups
        record["metrics"] = end_to_end(bench, plain, setups, peak_rss_kib)
        return record
    quiet = traced.quiet()
    summary = tracer.summary({op.request for op in quiet})
    tracer.dump(OUT_DIR / f"spans-{name}", workload=name, seed=seed,
                ops=len(traced.ops))
    record["metrics"] = per_layer(bench, base, plain, counted, quiet, summary,
                                  extra.get("replay_docs_per_s", 0.0))
    per_op = 1e3 * len(quiet)
    record["traced"] = {
        "ops": len(traced.ops), "quiet_ops": len(quiet),
        "spans": summary["spans"],
        "request_us_per_op": summary["root_ns"] / per_op,
        "self_sum_us_per_op": sum(summary["self_ns"].values()) / per_op,
        "orphan_us_per_op": summary["orphan_ns"] / per_op}
    return record
