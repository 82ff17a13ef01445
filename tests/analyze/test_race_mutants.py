"""Each race checker pinned to a seeded serving-layer mutant it kills.

The mutants are the rows of the race kill table in DESIGN.md's latch
inventory.  Each one is a text substitution applied to an in-memory copy
of the real module, and only the race checkers (RACE001/RACE002 and
LATCH001) run over it.  A row a static checker kills asserts that its code
fires; a row killed only at runtime, or by no gate, asserts the checkers
stay silent, so the table cannot drift from what the checkers do.  Every
anchor must occur exactly once in today's module: a refactor that moves
the mutated code fails here instead of quietly retiring a row.
"""

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analyze.framework import Program, SourceModule
from repro.analyze.races import LatchBlockingChecker, SharedStateRaceChecker

SRC = Path(__file__).resolve().parents[2] / "src"
SERVER = "repro/serve/server.py"
STATS = "repro/core/stats.py"
SESSION = "repro/serve/session.py"


@dataclass(frozen=True)
class Mutant:
    number: int
    what: str
    module: str
    old: str
    new: str
    #: the race code that kills it; None when no static checker does
    code: str | None


MUTANTS = (
    Mutant(1, "_process runs request.work without db.latch", SERVER,
           "                with self.db.latch:\n"
           "                    # Charged inside",
           "                if True:\n"
           "                    # Charged inside",
           None),
    Mutant(2, "StatsRegistry.add without _lock", STATS,
           "        with self._lock:\n"
           "            self._counters[name] += amount",
           "        if True:\n"
           "            self._counters[name] += amount",
           "RACE001"),
    Mutant(3, "observe without _lock", STATS,
           "        with self._lock:\n"
           "            histogram = self._histograms.get(name)",
           "        if True:\n"
           "            histogram = self._histograms.get(name)",
           "RACE001"),
    Mutant(4, "set_high_water without _lock", STATS,
           "        with self._lock:\n"
           "            if value > self._gauges.get(name, 0):",
           "        if True:\n"
           "            if value > self._gauges.get(name, 0):",
           "RACE001"),
    Mutant(5, "session() without _state_lock", SERVER,
           "        with self._state_lock:\n"
           "            if self._state != \"serving\":",
           "        if True:\n"
           "            if self._state != \"serving\":",
           "RACE001"),
    Mutant(6, "session() checks _state and inserts into _sessions in two "
              "_state_lock regions", SERVER,
           "not accepting sessions\")\n"
           "            # Registered",
           "not accepting sessions\")\n"
           "        with self._state_lock:\n"
           "            # Registered",
           None),
    Mutant(7, "_note_crash tests _crashed and writes it in a second "
              "region", SERVER,
           "            if self._crashed is None:\n"
           "                self._crashed = crash\n",
           "            if self._crashed is not None:\n"
           "                return\n"
           "        with self._state_lock:\n"
           "            self._crashed = crash\n",
           "RACE002"),
    Mutant(8, "the same as 7, but through a local variable", SERVER,
           "            if self._crashed is None:\n"
           "                self._crashed = crash\n",
           "            first = self._crashed is None\n"
           "        if first:\n"
           "            with self._state_lock:\n"
           "                self._crashed = crash\n",
           None),
    Mutant(9, "time.sleep inside state's _state_lock region", SERVER,
           "        with self._state_lock:\n"
           "            return self._state\n",
           "        with self._state_lock:\n"
           "            time.sleep(0.001)\n"
           "            return self._state\n",
           "LATCH001"),
    Mutant(10, "shutdown joins workers under _state_lock", SERVER,
           "        for thread in self._threads:\n"
           "            thread.join()\n",
           "        with self._state_lock:\n"
           "            for thread in self._threads:\n"
           "                thread.join()\n",
           "LATCH001"),
    Mutant(11, "_release_session takes db.latch inside _state_lock", SERVER,
           "                                            None) is not None\n"
           "        with self.db.latch:\n"
           "            self._rollback_abandoned(session)\n",
           "                                            None) is not None\n"
           "            with self.db.latch:\n"
           "                self._rollback_abandoned(session)\n",
           "LATCH001"),
    Mutant(12, "_release_session rolls back without db.latch", SERVER,
           "        with self.db.latch:\n"
           "            self._rollback_abandoned(session)\n"
           "        # Whoever removes",
           "        if True:\n"
           "            self._rollback_abandoned(session)\n"
           "        # Whoever removes",
           None),
    Mutant(13, "Session.lock grants on the client thread", SESSION,
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
)


def race_fingerprints(relpath: str, text: str) -> dict[str, str]:
    """Fingerprint -> code of every race finding in one module's text."""
    program = Program()
    checkers = [SharedStateRaceChecker(), LatchBlockingChecker()]
    for checker in checkers:
        checker.begin(program)
    program.add(SourceModule(SRC / relpath, SRC, text=text))
    return {finding.fingerprint: finding.code
            for checker in checkers for finding in checker.finish()}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"m{m.number}")
def test_race_checkers_kill_exactly_the_static_rows(mutant):
    original = (SRC / mutant.module).read_text()
    assert original.count(mutant.old) == 1, \
        f"mutant {mutant.number}'s anchor moved: update the kill table"
    before = race_fingerprints(mutant.module, original)
    after = race_fingerprints(mutant.module,
                              original.replace(mutant.old, mutant.new))
    new_codes = sorted(code for fingerprint, code in after.items()
                       if fingerprint not in before)
    if mutant.code is None:
        assert new_codes == [], \
            f"mutant {mutant.number} is now killed statically: {new_codes}"
    else:
        assert mutant.code in new_codes, \
            f"{mutant.code} no longer kills mutant {mutant.number}"
