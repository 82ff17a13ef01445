"""Concurrent load harness for the serving layer, plus its CLI.

:class:`LoadHarness` drives a :class:`~repro.serve.server.DatabaseServer`
with N real client threads running a seeded mixed workload:

* **inserts** — auto-commit document inserts, each with a unique key; the
  client records the key only when the server *acknowledged* the commit;
* **hot updates** — explicit begin / X-lock one of a small set of hot
  DocIDs / commit across three requests, holding the lock between
  requests: this is where genuine multi-session contention (lock waits,
  deadlock victims, retries) comes from;
* **queries** — `Session.query` XPath reads over the seeded corpus.

Every client classifies its failures with the typed taxonomy
(:class:`~repro.errors.ServerOverloadedError` → shed, backoff and move on;
:class:`~repro.errors.DeadlineExceededError` → out of time;
deadlock/timeout → retryable) and the harness then **verifies the
no-lost-no-duplicated-commit invariant** two independent ways: the base
table must contain exactly the acknowledged keys (each once), and the
event ring must hold exactly one committed insert accounting record per
acknowledged key.  The report carries p50/p99 request and queue-wait
latency read from the ``serve.*`` histograms.

CLI (used by the CI concurrency job to produce the latency artifact)::

    PYTHONPATH=src python -m repro.serve.loadgen \\
        --clients 100 --ops 5 --seed 7 --out latency-report.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.config import DEFAULT_CONFIG, EngineConfig
from repro.core.engine import Database
from repro.core.events import EventTrace
from repro.core.stats import wait_breakdown, wait_counter
from repro.errors import (DeadlineExceededError, ReproError,
                          ServerClosedError, ServerOverloadedError)
from repro.rdb.locks import LockMode
from repro.rdb.txn import accounting_records
from repro.serve.server import DatabaseServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.session import Session

TABLE = "docs"
COLUMN = "doc"
QUERY_PATH = "/Product/Name"

_DOC = ("<Product id=\"{key}\"><Name>item {key}</Name>"
        "<Price>{price}</Price></Product>")


def serving_config(base: EngineConfig = DEFAULT_CONFIG,
                   **overrides) -> EngineConfig:
    """A config for a load run: no automatic checkpoints, and a lock-wait
    budget sized for hot locks held across queued requests."""
    sized = {
        "checkpoint_interval": 0,
        # Hot locks are held across queued requests, so waiters need more
        # simulated budget than the single-threaded default before they
        # declare a timeout (each backoff step yields the latch for
        # ``LOCK_YIELD_S`` real seconds, see repro.serve.server).
        "lock_wait_budget": 512,
    }
    sized.update(overrides)
    return replace(base, **sized)


#: Event-ring size of a load engine built without an explicit ring.
MIN_LOAD_RING = 4096


def load_ring_size(clients: int, ops_per_client: int) -> int:
    """An event ring that holds every record a load run can produce.

    The verification pass reads every transaction's accounting record back
    from the ring.  An op is at most three requests (a hot update's
    begin/lock/commit), each retried a few times; each request leaves its
    own record and its transaction's, and a slow query one more.  The size
    is a generous cap: the ring only holds what was emitted.
    """
    return max(MIN_LOAD_RING, clients * ops_per_client * 256)


def build_database(config: EngineConfig, hot_docs: int = 8,
                   injector: object | None = None,
                   trace: EventTrace | None = None) -> tuple[Database, list]:
    """Fresh engine with the load schema and ``hot_docs`` seeded rows.

    ``trace`` (default: an accounting ring of :data:`MIN_LOAD_RING`
    records) is installed before anything runs, so it holds the seed
    transaction's record too.  Returns the database and the seeded hot
    DocIDs (the rows hot-update clients fight over).
    """
    db = Database(config, injector=injector)
    (trace or EventTrace(MIN_LOAD_RING)).install(db.stats)
    db.create_table(TABLE, [("key", "varchar"), (COLUMN, "xml")])

    def seed(db: Database, txn) -> list:
        rids = [db.insert(TABLE, (f"hot-{i}",
                                  _DOC.format(key=f"hot-{i}", price=i)),
                          txn_id=txn.txn_id)
                for i in range(hot_docs)]
        return rids

    db.run_in_txn(seed)
    hot_ids = list(range(hot_docs))
    return db, hot_ids


@dataclass
class ClientStats:
    """One simulated client's outcome tally."""

    client_id: int
    committed_keys: list = field(default_factory=list)
    queries: int = 0
    hot_commits: int = 0
    shed: int = 0
    deadline_expired: int = 0
    retried: int = 0
    #: retryable contention errors (deadlock/lock timeout) that survived
    #: every retry — expected under overload, not an invariant breach.
    timed_out: int = 0
    failures: list = field(default_factory=list)


@dataclass
class LoadReport:
    """Aggregated outcome of one load run (JSON-safe via ``to_dict``)."""

    clients: int
    ops_per_client: int
    wall_seconds: float
    committed_inserts: int
    queries: int
    hot_commits: int
    shed: int
    deadline_expired: int
    retried: int
    timed_out: int
    failures: list
    p50_request_us: int
    p99_request_us: int
    p50_queue_wait_us: int
    p99_queue_wait_us: int
    verified: bool
    verify_errors: list
    counters: dict
    #: class-3-style wait profile: per-class totals plus the total-wait
    #: distribution of the served requests that waited
    #: (`waits.request_wait_us`, one observation per request).
    waits_by_class: dict = field(default_factory=dict)
    wait_total_us: int = 0
    p50_request_wait_us: int = 0
    p99_request_wait_us: int = 0

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "ops_per_client": self.ops_per_client,
            "wall_seconds": round(self.wall_seconds, 3),
            "committed_inserts": self.committed_inserts,
            "queries": self.queries,
            "hot_commits": self.hot_commits,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "retried": self.retried,
            "timed_out": self.timed_out,
            "failures": self.failures,
            "latency_us": {
                "request_p50": self.p50_request_us,
                "request_p99": self.p99_request_us,
                "queue_wait_p50": self.p50_queue_wait_us,
                "queue_wait_p99": self.p99_queue_wait_us,
            },
            "verified": self.verified,
            "verify_errors": self.verify_errors,
            "waits": {
                "total_us": self.wait_total_us,
                "request_wait_p50_us": self.p50_request_wait_us,
                "request_wait_p99_us": self.p99_request_wait_us,
                "by_class": self.waits_by_class,
            },
            "counters": self.counters,
        }


class LoadHarness:
    """Drives one :class:`DatabaseServer` with concurrent client threads."""

    def __init__(self, db: Database, server: DatabaseServer,
                 hot_ids: list) -> None:
        self.db = db
        self.server = server
        self.hot_ids = hot_ids

    def run(self, clients: int, ops_per_client: int, seed: int = 0,
            deadline: float = 5.0, retry_limit: int = 3,
            seeded_insert_txns: int = 1) -> LoadReport:
        """Run the workload and verify the commit invariant.

        Each client gets a deterministic RNG derived from ``seed`` (thread
        *interleaving* stays nondeterministic — that is the point — but
        each client's op stream is reproducible).
        """
        tallies = [ClientStats(i) for i in range(clients)]
        threads = [
            threading.Thread(target=self._client,
                             args=(tallies[i], ops_per_client,
                                   seed * 1_000_003 + i, deadline,
                                   retry_limit),
                             name=f"client-{i}")
            for i in range(clients)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started
        self.server.shutdown(drain=True)
        return self._report(tallies, ops_per_client, wall,
                            seeded_insert_txns)

    # -- the client ----------------------------------------------------------

    def _client(self, tally: ClientStats, ops: int, seed: int,
                deadline: float, retry_limit: int) -> None:
        rng = random.Random(seed)
        try:
            with self.server.session() as session:
                for op_index in range(ops):
                    self._one_op(session, tally, rng, op_index, deadline,
                                 retry_limit)
        except ReproError as error:  # pragma: no cover - unexpected
            tally.failures.append(f"session: {type(error).__name__}: "
                                  f"{error}")

    def _one_op(self, session: "Session", tally: ClientStats,
                rng, op_index: int, deadline: float,
                retry_limit: int) -> None:
        roll = rng.random()
        for attempt in range(retry_limit + 1):
            try:
                if roll < 0.4:
                    key = f"c{tally.client_id}-op{op_index}"
                    doc = _DOC.format(key=key, price=op_index)
                    session.insert(TABLE, (key, doc), deadline=deadline)
                    tally.committed_keys.append(key)
                elif roll < 0.7:
                    self._hot_update(session, rng, deadline)
                    tally.hot_commits += 1
                else:
                    session.query(TABLE, COLUMN, QUERY_PATH,
                                  deadline=deadline)
                    tally.queries += 1
                return
            except ServerOverloadedError:
                tally.shed += 1
                # Client-side shed backoff burns the op's deadline budget
                # without touching the engine — charged as deadline.sleep.
                with self.db.stats.wait_timer("deadline.sleep"):
                    time.sleep(0.001 * (attempt + 1))
            except DeadlineExceededError:
                tally.deadline_expired += 1
                return
            except ReproError as error:
                if self.server.is_retryable(error):
                    if attempt < retry_limit:
                        tally.retried += 1
                        continue
                    tally.timed_out += 1  # contention outlasted the retries
                    return
                tally.failures.append(
                    f"client {tally.client_id} op {op_index}: "
                    f"{type(error).__name__}: {error}")
                return
        tally.shed += 1  # every attempt was shed: give up on this op

    def _hot_update(self, session: "Session", rng,
                    deadline: float) -> None:
        """Explicit txn holding an X lock on a hot DocID across requests."""
        docid = rng.choice(self.hot_ids)
        session.begin(deadline=deadline)
        try:
            session.lock(("doc", TABLE, docid), LockMode.X,
                         deadline=deadline)
            session.commit(deadline=deadline)
        except ReproError:
            # A failed lock/execute already aborted the txn; a commit
            # whose deadline expired in the queue did not — make sure the
            # session is clean before the error is classified upstream.
            self._ensure_rolled_back(session)
            raise

    def _ensure_rolled_back(self, session: "Session") -> None:
        """Best-effort rollback of a leaked explicit transaction."""
        while session.txn is not None and not session.closed:
            try:
                session.rollback()
            except ServerOverloadedError:
                with self.db.stats.wait_timer("deadline.sleep"):
                    time.sleep(0.001)
            except ServerClosedError:
                return

    # -- verification and reporting ------------------------------------------

    def _report(self, tallies: list, ops_per_client: int, wall: float,
                seeded_insert_txns: int) -> LoadReport:
        verify_errors = self.verify_commits(tallies, seeded_insert_txns)
        stats = self.db.stats
        snapshot = stats.counters()
        # Attribution soundness for the wait clocks: summed
        # per-transaction wait charges, and summed per-request clocks, can
        # never exceed the global per-class counter they flowed through.
        acct_waits: dict = {}
        for record in accounting_records(stats):
            for name, value in record.counters.items():
                if name.startswith("waits."):
                    acct_waits[name] = acct_waits.get(name, 0) + value
        request_waits: dict = {}
        waited_requests = 0
        for record in stats.events.records("serve.request"):
            waits = record.payload["waits"]
            # Wait regions are disjoint sub-intervals of the request, each
            # rounded down to whole microseconds, so their sum fits inside
            # the elapsed time unless a suspension was charged twice.
            waited, elapsed_us = sum(waits.values()), \
                record.payload["elapsed_us"]
            if waited > 0:
                waited_requests += 1
            if waited > elapsed_us:
                verify_errors.append(
                    f"request {record.request} charged {waited}us of waits "
                    f"into {elapsed_us}us elapsed: {sorted(waits.items())}")
            for wait_class, micros in waits.items():
                name = wait_counter(wait_class)
                request_waits[name] = request_waits.get(name, 0) + micros
        for source, charged in (("accounting", acct_waits),
                                ("request clocks", request_waits)):
            for name, total in sorted(charged.items()):
                if total > snapshot.get(name, 0):
                    verify_errors.append(
                        f"{source} over-charged wait counter {name}: "
                        f"records sum to {total}, global is "
                        f"{snapshot.get(name, 0)}")
        request_hist = stats.histogram("serve.request_us")
        queue_hist = stats.histogram("serve.queue_wait_us")
        wait_hist = stats.histogram("waits.request_wait_us")
        # One wait clock per served request: the histogram holds exactly
        # one observation per request that waited (countable only while
        # the ring still holds every request record).
        observed = wait_hist.count if wait_hist else 0
        if not stats.events.dropped and observed != waited_requests:
            verify_errors.append(
                f"waits.request_wait_us holds {observed} observations for "
                f"{waited_requests} served requests that waited")
        waits_by_class = wait_breakdown(snapshot)
        failures = [f for tally in tallies for f in tally.failures]
        counters = {name: value for name, value in snapshot.items()
                    if name.startswith(("serve.", "txn.", "lock.", "wal.",
                                        "waits."))}
        return LoadReport(
            clients=len(tallies),
            ops_per_client=ops_per_client,
            wall_seconds=wall,
            committed_inserts=sum(len(t.committed_keys) for t in tallies),
            queries=sum(t.queries for t in tallies),
            hot_commits=sum(t.hot_commits for t in tallies),
            shed=sum(t.shed for t in tallies),
            deadline_expired=sum(t.deadline_expired for t in tallies),
            retried=sum(t.retried for t in tallies),
            timed_out=sum(t.timed_out for t in tallies),
            failures=failures,
            p50_request_us=request_hist.quantile(0.5) if request_hist
            else 0,
            p99_request_us=request_hist.quantile(0.99) if request_hist
            else 0,
            p50_queue_wait_us=queue_hist.quantile(0.5) if queue_hist else 0,
            p99_queue_wait_us=queue_hist.quantile(0.99) if queue_hist
            else 0,
            verified=not verify_errors and not failures,
            verify_errors=verify_errors,
            counters=counters,
            waits_by_class=waits_by_class,
            wait_total_us=sum(waits_by_class.values()),
            p50_request_wait_us=wait_hist.quantile(0.5)
            if wait_hist and wait_hist.count else 0,
            p99_request_wait_us=wait_hist.quantile(0.99)
            if wait_hist and wait_hist.count else 0,
        )

    def verify_commits(self, tallies: list,
                       seeded_insert_txns: int = 1) -> list:
        """No-lost-no-duplicated-commits check (two independent views).

        1. The base table holds exactly the acknowledged keys plus the
           seeded rows, each exactly once: a key acknowledged but absent
           is a *lost* commit, present twice a *duplicated* one, and a
           non-acknowledged client key present means an abort leaked.
        2. The event ring holds exactly one committed accounting record
           with inserted rows per acknowledged insert (plus the seed txns):
           the attribution view must agree with the storage view.  A ring
           too small for the run cannot tell, and says so.
        """
        errors: list = []
        dropped = self.db.stats.events.dropped
        if dropped:
            errors.append(f"event ring wrapped ({dropped} records dropped): "
                          f"size it with load_ring_size()")
        acknowledged: dict = {}
        for tally in tallies:
            for key in tally.committed_keys:
                if key in acknowledged:
                    errors.append(f"key {key!r} acknowledged twice")
                acknowledged[key] = tally.client_id
        seed_keys = set()
        seen: dict = {}
        for _rid, row in self.db.tables[TABLE].scan_rids():
            key = row[0]
            seen[key] = seen.get(key, 0) + 1
            if key.startswith("hot-"):
                seed_keys.add(key)
        for key, count in sorted(seen.items()):
            if count > 1:
                errors.append(f"key {key!r} stored {count} times "
                              f"(duplicated commit)")
            if key not in acknowledged and key not in seed_keys:
                errors.append(f"key {key!r} stored but never acknowledged "
                              f"(aborted insert leaked)")
        for key in sorted(acknowledged):
            if key not in seen:
                errors.append(f"key {key!r} acknowledged but not stored "
                              f"(lost commit)")
        committed_insert_records = sum(
            1 for record in accounting_records(self.db.stats)
            if record.outcome == "committed"
            and record.counters.get("ts.records_inserted", 0) > 0
            and record.counters.get("wal.records", 0) > 0)
        expected = len(acknowledged) + seeded_insert_txns
        if committed_insert_records != expected:
            errors.append(
                f"accounting shows {committed_insert_records} committed "
                f"insert transactions, clients acknowledged "
                f"{len(acknowledged)} (+{seeded_insert_txns} seed)")
        return errors


def run_load(clients: int = 100, ops_per_client: int = 5, seed: int = 0,
             workers: int = 8, queue_limit: int = 64,
             deadline: float = 5.0, trace: EventTrace | None = None,
             **config_overrides) -> LoadReport:
    """Build engine + server, run the workload, tear down, report.

    The run records into ``trace`` — by default a fresh ring of
    :func:`load_ring_size` records; pass your own to keep it, and export it
    with :meth:`~repro.core.events.EventTrace.write_jsonl` afterwards.
    """
    config = serving_config(serve_workers=workers,
                            serve_queue_limit=queue_limit,
                            **config_overrides)
    if trace is None:
        trace = EventTrace(load_ring_size(clients, ops_per_client))
    db, hot_ids = build_database(config, trace=trace)
    server = DatabaseServer(db).start()
    harness = LoadHarness(db, server, hot_ids)
    report = harness.run(clients, ops_per_client, seed=seed,
                         deadline=deadline)
    db.close()
    return report


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="serving-layer load harness (latency + invariant "
                    "verification)")
    parser.add_argument("--clients", type=int, default=100)
    parser.add_argument("--ops", type=int, default=5,
                        help="operations per client")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--deadline", type=float, default=5.0,
                        help="per-request deadline in seconds")
    parser.add_argument("--out", type=str, default="",
                        help="write the JSON report here")
    parser.add_argument("--trace-out", type=str, default="",
                        help="write the run's event ring here as JSONL "
                             "(feed it to python -m repro.obs.report)")
    options = parser.parse_args(argv)
    trace = EventTrace(load_ring_size(options.clients, options.ops))
    report = run_load(clients=options.clients, ops_per_client=options.ops,
                      seed=options.seed, workers=options.workers,
                      queue_limit=options.queue_limit,
                      deadline=options.deadline,
                      trace=trace)
    if options.trace_out:
        count = trace.write_jsonl(options.trace_out)
        print(f"# wrote {count} trace records to {options.trace_out}",
              file=sys.stderr)
    rendered = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(rendered)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    return 0 if report.verified else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
