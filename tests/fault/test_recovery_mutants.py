"""Recovery mutant table: seeded defects in replay, undo and txn numbering,
each pinned to the tier-1 tests that kill it.

Every row applies anchored text substitutions to an in-memory copy of one
module, executes the copy, and swaps the mutated method into the live
class for the duration of one test; each of the row's killing tests must
then fail.  Every anchor must occur exactly once in today's module, so a
refactor that moves the mutated code fails here instead of quietly
retiring a row.  DESIGN.md's recovery mutant table lists the same rows.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.core.engine import Database
from repro.rdb.txn import TransactionManager
from tests.core import test_recovery_history as history
from tests.fault import test_crash_recovery as crash

SRC = Path(__file__).resolve().parents[2] / "src"
ENGINE = "repro/core/engine.py"
TXN = "repro/rdb/txn.py"

LOSER_PASS = ("        for txn in reversed(list(db.txns.active.values())):\n"
              "            txn.abort()\n")


def second_crash(tmp_path):
    crash.TestRestartedEngineKeepsItsHistory() \
        .test_second_crash_recovers_both_generations(tmp_path)


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    owner: type
    method: str
    #: (anchor, replacement) pairs, applied in order
    subs: tuple[tuple[str, str], ...]
    killers: tuple[Callable, ...]


MUTANTS = (
    Mutant("abort-no-op", ENGINE, Database, "replay",
           (("                db.txns.active[record.txn_id].abort()\n",
             "                pass\n"),),
           (history.test_aborted_insert_consumes_its_docid_in_replay,
            history.test_committed_delete_after_an_aborted_delete_removes_the_same_row)),
    Mutant("no-loser-pass", ENGINE, Database, "replay",
           ((LOSER_PASS, ""),),
           (history.test_losers_abort_newest_begin_record_first,
            history.test_a_second_restart_recovers_the_same_state)),
    Mutant("loser-abort-unlogged", ENGINE, Database, "replay",
           ((LOSER_PASS, ""),
            ("        db.log = db.txns.log = log\n",
             LOSER_PASS + "        db.log = db.txns.log = log\n")),
           (history.test_a_second_restart_recovers_the_same_state,
            second_crash)),
    Mutant("losers-oldest-first", ENGINE, Database, "replay",
           (("reversed(list(db.txns.active.values()))",
             "list(db.txns.active.values())"),),
           (history.test_losers_abort_newest_begin_record_first,)),
    Mutant("adopt-no-bump", TXN, TransactionManager, "adopt",
           (("itertools.count(1 + max((r.txn_id for r in records), default=0))",
             "itertools.count(1)"),),
           (history.test_txn_ids_stay_unique_across_restarts,)),
    Mutant("delete-undo-forgets-move", ENGINE, Database, "delete_row",
           (("                    txn.moved[rid] = self._apply_insert(",
             "                    self._apply_insert("),),
           (history.test_undo_of_an_insert_follows_its_row_moved_by_a_later_undo,)),
    Mutant("insert-undo-ignores-move", ENGINE, Database, "insert",
           (("table, txn.moved.get(rid, rid)", "table, rid"),),
           (history.test_undo_of_an_insert_follows_its_row_moved_by_a_later_undo,)),
)


def mutated(mutant: Mutant, subs=None) -> object:
    """The row's method, compiled from the mutated module copy (``subs``
    overrides the row's substitutions)."""
    path = SRC / mutant.module
    text = path.read_text()
    for old, new in mutant.subs if subs is None else subs:
        assert text.count(old) == 1, \
            f"mutant {mutant.name}'s anchor moved: update the table"
        text = text.replace(old, new)
    # Named as the real module: dataclasses look their module up by name.
    namespace = {"__name__": mutant.owner.__module__}
    exec(compile(text, str(path), "exec"), namespace)
    return vars(namespace[mutant.owner.__name__])[mutant.method]


@pytest.mark.parametrize("mutant, killer", [
    pytest.param(mutant, killer, id=f"{mutant.name}-{killer.__name__}")
    for mutant in MUTANTS for killer in mutant.killers])
def test_killer_fails_under_mutant(mutant, killer, monkeypatch, tmp_path):
    monkeypatch.setattr(mutant.owner, mutant.method, mutated(mutant))
    try:
        killer(tmp_path)
    except Exception:  # an assertion or the engine's own error: killed
        return
    pytest.fail(f"mutant {mutant.name} survived {killer.__name__}")


@pytest.mark.parametrize("mutant", [
    pytest.param(mutant, id=mutant.name) for mutant in MUTANTS])
def test_unmutated_copy_passes_the_killers(mutant, monkeypatch, tmp_path):
    """The control: the same copy without the substitutions kills
    nothing, so a kill is the mutant's doing, not the copy's."""
    monkeypatch.setattr(mutant.owner, mutant.method, mutated(mutant, ()))
    for killer in mutant.killers:
        killer(tmp_path)
