"""Each static checker pinned to a seeded engine mutant it kills.

The mutants are the rows of DESIGN.md's two kill tables: the race table
(rows ``m1``-``m15``, serving-layer mutants) and the non-race table (rows
named after the gate each mutant was written for).  Each one is a list of
text substitutions applied to an in-memory copy of one real module, and
only the row's checkers run over ``src/`` with that copy in place.  A row
a static checker kills asserts that exactly its codes fire; a race row
killed only at runtime, or by no gate, asserts the race checkers stay
silent, so the tables cannot drift from what the checkers do.  Engine
rows that no static checker kills are left out: behavioural tests kill
them.  Every anchor must occur exactly once in today's module: a refactor
that moves the mutated code fails here instead of quietly retiring a row.
"""

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import pytest

from repro.analyze.excsafety import ExceptionSafetyChecker
from repro.analyze.framework import (Checker, Program, SourceModule,
                                     iter_python_files)
from repro.analyze.lockorder import LockOrderChecker
from repro.analyze.pins import PinLeakChecker
from repro.analyze.races import LatchBlockingChecker, SharedStateRaceChecker
from repro.analyze.statshygiene import StatsHygieneChecker
from repro.analyze.waldiscipline import WalDisciplineChecker

SRC = Path(__file__).resolve().parents[2] / "src"
BUFFER = "repro/rdb/buffer.py"
DOCUMENT = "repro/cc/document.py"
ENGINE = "repro/core/engine.py"
SERVER = "repro/serve/server.py"
SESSION = "repro/serve/session.py"
STATS = "repro/core/stats.py"
TABLESPACE = "repro/rdb/tablespace.py"
TXN = "repro/rdb/txn.py"
WAL = "repro/rdb/wal.py"

RACES = (SharedStateRaceChecker, LatchBlockingChecker)


@dataclass(frozen=True)
class Mutant:
    name: str
    what: str
    module: str
    #: (anchor, replacement) pairs, applied in order
    subs: tuple[tuple[str, str], ...]
    checkers: tuple[type[Checker], ...]
    #: the codes that kill it; empty when no static checker does
    codes: tuple[str, ...]


def race(number: int, what: str, module: str, old: str, new: str,
         code: str | None) -> Mutant:
    return Mutant(f"m{number}", what, module, ((old, new),), RACES,
                  (code,) if code else ())


RACE_MUTANTS = (
    race(1, "_process runs the work without db.latch", SERVER,
         "                with self.db.latch:\n"
         "                    # Charged inside",
         "                if True:\n"
         "                    # Charged inside",
         None),
    race(2, "StatsRegistry.add without _lock", STATS,
         "        with self._lock:\n"
         "            self._counters[name] += amount",
         "        if True:\n"
         "            self._counters[name] += amount",
         "RACE001"),
    race(3, "observe without _lock", STATS,
         "        with self._lock:\n"
         "            histogram = self._histograms.get(name)",
         "        if True:\n"
         "            histogram = self._histograms.get(name)",
         "RACE001"),
    race(4, "set_high_water without _lock", STATS,
         "        with self._lock:\n"
         "            if value > self._gauges.get(name, 0):",
         "        if True:\n"
         "            if value > self._gauges.get(name, 0):",
         "RACE001"),
    race(5, "session() without _state_lock", SERVER,
         "        with self._state_lock:\n"
         "            if self._state != \"serving\":",
         "        if True:\n"
         "            if self._state != \"serving\":",
         "RACE001"),
    race(6, "session() checks _state and inserts into _sessions in two "
            "_state_lock regions", SERVER,
         "not accepting sessions\")\n"
         "            # Registered",
         "not accepting sessions\")\n"
         "        with self._state_lock:\n"
         "            # Registered",
         None),
    race(7, "_note_crash tests _crashed and writes it in a second "
            "region", SERVER,
         "            if self._crashed is None:\n"
         "                self._crashed = crash\n",
         "            if self._crashed is not None:\n"
         "                return\n"
         "        with self._state_lock:\n"
         "            self._crashed = crash\n",
         "RACE002"),
    race(8, "the same as 7, but through a local variable", SERVER,
         "            if self._crashed is None:\n"
         "                self._crashed = crash\n",
         "            first = self._crashed is None\n"
         "        if first:\n"
         "            with self._state_lock:\n"
         "                self._crashed = crash\n",
         "RACE002"),
    race(9, "time.sleep inside state's _state_lock region", SERVER,
         "        with self._state_lock:\n"
         "            return self._state\n",
         "        with self._state_lock:\n"
         "            time.sleep(0.001)\n"
         "            return self._state\n",
         "LATCH001"),
    race(10, "shutdown takes the tokens under _state_lock", SERVER,
         "        for _ in range(self.token_count):\n"
         "            self._take_token()\n",
         "        with self._state_lock:\n"
         "            for _ in range(self.token_count):\n"
         "                self._take_token()\n",
         "LATCH001"),
    race(11, "_release_session takes db.latch inside _state_lock", SERVER,
         "                                            None) is not None\n"
         "        with self.db.latch:\n"
         "            self._rollback_abandoned(session)\n",
         "                                            None) is not None\n"
         "            with self.db.latch:\n"
         "                self._rollback_abandoned(session)\n",
         "LATCH001"),
    race(12, "_release_session rolls back without db.latch", SERVER,
         "        with self.db.latch:\n"
         "            self._rollback_abandoned(session)\n"
         "        # Whoever removes",
         "        if True:\n"
         "            self._rollback_abandoned(session)\n"
         "        # Whoever removes",
         None),
    race(13, "Session.lock grants on the client thread", SESSION,
         "        self.execute(lambda db, txn: txn.lock(resource, mode),\n"
         "                     deadline=deadline, "
         "label=f\"lock:{resource!r}\")\n",
         "        txn = self._require_txn()\n"
         "        txn.deadline = self._server.resolve_deadline(deadline)\n"
         "        try:\n"
         "            txn.lock(resource, mode)\n"
         "        finally:\n"
         "            txn.deadline = None\n",
         None),
    race(14, "DatabaseServer.__init__ creates a lock GUARDED_BY does not "
             "name", SERVER,
         "        self._session_ids = itertools.count(1)\n",
         "        self._session_ids = itertools.count(1)\n"
         "        self._ids_lock = threading.Lock()\n",
         "RACE003"),
    race(15, "StatsRegistry's GUARDED_BY misspells _gauges", STATS,
         '"_counters", "_gauges", "_histograms"',
         '"_counters", "_guages", "_histograms"',
         "RACE003"),
)

ENGINE_MUTANTS = (
    Mutant("S1", "BTree internal lookup drops its unpin", "repro/rdb/btree.py",
           (("        finally:\n"
             "            self.pool.unpin(page_id)\n\n    def _leaf_for",
             "        finally:\n"
             "            pass\n\n    def _leaf_for"),),
           (PinLeakChecker,), ("PIN002",)),
    Mutant("X1b", "TableSpace.live_bytes unpins after a raiser, outside a "
                  "finally", TABLESPACE,
           (("            with self.pool.page(page_id) as data:\n"
             "                total += SlottedPage(data).live_bytes()\n",
             "            data = self.pool.fetch(page_id)\n"
             "            total += SlottedPage(data).live_bytes()\n"
             "            self.pool.unpin(page_id)\n"),),
           (PinLeakChecker, ExceptionSafetyChecker), ("PIN002",)),
    Mutant("R1", "try_read_via_row locks row then doc, try_write doc then row",
           DOCUMENT,
           (("        return self.locks.try_acquire(txn_id, "
             "row_resource(table, rid),\n"
             "                                      LockMode.S)\n",
             "        if not self.locks.try_acquire(txn_id, "
             "row_resource(table, rid),\n"
             "                                      LockMode.S):\n"
             "            return False\n"
             "        return self.locks.try_acquire(\n"
             "            txn_id, doc_resource(self.column, rid.page_id), "
             "LockMode.S)\n"),
            ("        if not self.locks.try_acquire(txn_id, "
             "row_resource(table, rid),\n"
             "                                      LockMode.X):\n"
             "            return False\n"
             "        return self.locks.try_acquire(txn_id, "
             "doc_resource(self.column, docid),\n"
             "                                      LockMode.X)\n",
             "        if not self.locks.try_acquire(txn_id, "
             "doc_resource(self.column, docid),\n"
             "                                      LockMode.X):\n"
             "            return False\n"
             "        return self.locks.try_acquire(txn_id, "
             "row_resource(table, rid),\n"
             "                                      LockMode.X)\n")),
           (LockOrderChecker,), ("LOCK001",)),
    Mutant("P2", "_new_data_page's unpin moved out of its finally",
           TABLESPACE,
           (("        try:\n            SlottedPage.format(data)\n"
             "        finally:\n"
             "            self.pool.unpin(page_id, dirty=True)\n",
             "        SlottedPage.format(data)\n"
             "        self.pool.unpin(page_id, dirty=True)\n"),),
           (PinLeakChecker,), ("PIN002",)),
    Mutant("W1", "flush_all() before the INSERT append", ENGINE,
           (("            self._append(txn_id, LogOp.INSERT, table,",
             "            self.pool.flush_all()\n"
             "            self._append(txn_id, LogOp.INSERT, table,"),),
           (WalDisciplineChecker,), ("WAL001",)),
    Mutant("W2", "close flushes pages before the CHECKPOINT record", ENGINE,
           (("        self.checkpoint()\n        # Only now",
             "        self.pool.flush_all()\n"
             "        self.checkpoint()\n        # Only now"),),
           (WalDisciplineChecker,), ("WAL001",)),
    Mutant("E1", "an INSERT is applied and its pages flushed before its "
                 "record is logged", ENGINE,
           (("            self._append(txn_id, LogOp.INSERT, table, payload,\n"
             "                         validate_against.encode()\n"
             "                         if validate_against else b\"\")\n"
             "            rid = self._apply_insert(definition, row, "
             "documents)\n",
             "            rid = self._apply_insert(definition, row, "
             "documents)\n"
             "            self.pool.flush_all()\n"
             "            self._append(txn_id, LogOp.INSERT, table, payload,\n"
             "                         validate_against.encode()\n"
             "                         if validate_against else b\"\")\n"),),
           (WalDisciplineChecker,), ("WAL001",)),
    Mutant("WAL002", "close() swallows a checkpoint error", ENGINE,
           (("        self.checkpoint()\n        # Only now",
             "        try:\n            self.checkpoint()\n"
             "        except Exception:\n            pass\n"
             "        # Only now"),),
           (WalDisciplineChecker,), ("WAL002",)),
    Mutant("WAL002b", "_latch_sleep's fallback catches every exception",
           SERVER,
           (("        except RuntimeError:\n            if delay > 0:",
             "        except Exception:\n            if delay > 0:"),),
           (WalDisciplineChecker,), ("WAL002",)),
    Mutant("L2", "Session.insert retries its IX lock inside an except "
                 "handler", SESSION,
           (("            txn.lock((\"table\", table), LockMode.IX)\n",
             "            try:\n"
             "                txn.lock((\"table\", table), LockMode.IX)\n"
             "            except TransactionError:\n"
             "                txn.lock((\"table\", table), LockMode.IX)\n"),),
           (LockOrderChecker,), ("LOCK002",)),
    Mutant("X2", "try_lock grants before its active check, and the back-out "
                 "release after the check is not in a finally", TXN,
           (("        self._check_active()\n"
             "        return self._locks.try_acquire(self.txn_id, resource, "
             "mode)\n",
             "        granted = self._locks.try_acquire(self.txn_id, "
             "resource, mode)\n"
             "        if self.state is not TxnState.ACTIVE:\n"
             "            self._check_active()\n"
             "            self._locks.release_all(self.txn_id)\n"
             "        return granted\n"),),
           (ExceptionSafetyChecker,), ("EXC002",)),
    Mutant("ST1", "flush_all's span name loses its component", BUFFER,
           (("self.stats.trace(\"buffer.flush_all\")",
             "self.stats.trace(\"flush_all\")"),),
           (StatsHygieneChecker,), ("STAT001",)),
    Mutant("ST2", "wal.records becomes wal.record", WAL,
           (("        self.stats.add(\"wal.records\")\n"
             "        self.stats.add(\"wal.bytes\", encoded_len)",
             "        self.stats.add(\"wal.record\")\n"
             "        self.stats.add(\"wal.bytes\", encoded_len)"),),
           (StatsHygieneChecker,), ("STAT002",)),
    Mutant("ST2b", "a token waiter failed at close counts "
                   "serve.shed_close", SERVER,
           (("            self.stats.add(\"serve.shed_closed\")\n"
             "            raise ServerClosedError(\n"
             "                f\"server shut down before",
             "            self.stats.add(\"serve.shed_close\")\n"
             "            raise ServerClosedError(\n"
             "                f\"server shut down before"),),
           (StatsHygieneChecker,), ("STAT002",)),
    Mutant("ST3", "the wal.record_bytes histogram renamed", WAL,
           (("self.stats.observe(\"wal.record_bytes\", encoded_len)",
             "self.stats.observe(\"wal.record_size\", encoded_len)"),),
           (StatsHygieneChecker,), ("STAT003", "STAT005")),
    Mutant("ST3b", "the eviction-residency histogram renamed", BUFFER,
           (("self.stats.observe(\"buffer.eviction_residency\",",
             "self.stats.observe(\"buffer.residency\","),),
           (StatsHygieneChecker,), ("STAT003", "STAT005")),
    Mutant("ST3c", "a typo at one of lock.acquire_wait_steps' two observe "
                   "sites", TXN,
           (("                self._stats.observe(\"lock.acquire_wait_steps\", "
             "waited)",
             "                self._stats.observe(\"lock.acquire_wait_step\", "
             "waited)"),),
           (StatsHygieneChecker,), ("STAT003",)),
    Mutant("ST4", "lock.wait no longer timed", TXN,
           (("                with self._stats.wait_timer(\"lock.wait\"):\n"
             "                    yield_hook()\n",
             "                yield_hook()\n"),),
           (StatsHygieneChecker,), ("STAT005",)),
    Mutant("ST4b", "the retry backoff sleep left untimed", ENGINE,
           (("                                with self.stats.wait_timer(\n"
             "                                        \"txn.retry_backoff\"):\n"
             "                                    sleep(delay)\n",
             "                                sleep(delay)\n"),),
           (StatsHygieneChecker,), ("STAT004", "STAT005")),
    Mutant("ST5", "the naive automaton no longer records its peak gauge",
           "repro/xpath/automaton.py",
           (("        self.stats.set_high_water(\"automaton.peak_instances\", "
             "peak)\n", ""),),
           (StatsHygieneChecker,), ("STAT005",)),
)


@cache
def shipped_modules() -> dict[str, SourceModule]:
    """Every module of ``src/``, parsed once for all rows."""
    modules = (SourceModule(path, SRC) for path in iter_python_files([SRC]))
    return {module.relpath: module for module in modules}


def fingerprints(checkers: tuple[type[Checker], ...],
                 replaced: SourceModule | None = None) -> dict[str, str]:
    """Fingerprint -> code of every finding ``checkers`` report over
    ``src/``, with ``replaced`` standing in for its shipped module."""
    modules = dict(shipped_modules())
    if replaced is not None:
        modules[replaced.relpath] = replaced
    program = Program()
    instances = [checker() for checker in checkers]
    for checker in instances:
        checker.begin(program)
    findings = []
    for module in modules.values():
        program.add(module)
        for checker in instances:
            findings.extend(checker.check_module(module))
    for checker in instances:
        findings.extend(checker.finish())
    return {finding.fingerprint: finding.code for finding in findings}


@cache
def shipped_fingerprints(checkers: tuple[type[Checker], ...]
                         ) -> dict[str, str]:
    return fingerprints(checkers)


@pytest.mark.parametrize("mutant", RACE_MUTANTS + ENGINE_MUTANTS,
                         ids=lambda mutant: mutant.name)
def test_checkers_kill_exactly_the_static_rows(mutant):
    text = (SRC / mutant.module).read_text()
    for old, new in mutant.subs:
        assert text.count(old) == 1, \
            f"mutant {mutant.name}'s anchor moved: update the kill table"
        text = text.replace(old, new)
    before = shipped_fingerprints(mutant.checkers)
    after = fingerprints(mutant.checkers,
                         SourceModule(SRC / mutant.module, SRC, text=text))
    new_codes = {code for fingerprint, code in after.items()
                 if fingerprint not in before}
    assert new_codes == set(mutant.codes), \
        f"mutant {mutant.name} is killed by {sorted(new_codes)}, " \
        f"the table says {list(mutant.codes)}"
