"""Interprocedural findings no single-function analysis could produce.

Every fixture here splits the violation across at least two functions —
the acquisition, the hazard, and the primitive evidence live in different
bodies — and asserts both that the right code fires and that ``--explain``
reconstructs the witnessing call chain down to the primitive site.
"""

import json
import textwrap

from repro.analyze.cli import main
from repro.analyze.excsafety import ExceptionSafetyChecker
from repro.analyze.framework import run_checkers
from repro.analyze.lockorder import LockOrderChecker
from repro.analyze.pins import PinLeakChecker
from repro.analyze.waldiscipline import WalDisciplineChecker


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def run_on(tmp_path, checker, relpath, source):
    path = write(tmp_path, relpath, source)
    return run_checkers([checker], [path], root=tmp_path)


class TestInterproceduralPins:
    def test_unpinned_helper_result_outside_finally_is_flagged(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "store.py", """\
            class Store:
                def _grab(self, pid):
                    return self.pool.fetch(pid)
                def read(self, pid):
                    frame = self._grab(pid)
                    value = frame.decode()
                    self.pool.unpin(pid)
                    return value
            """)
        assert [f.code for f in findings] == ["PIN002"]
        assert findings[0].scope == "Store.read"
        # --explain path: the call site, then the primitive pin.
        assert len(findings[0].call_path) == 2
        assert "self._grab" in findings[0].call_path[0]
        assert "pool.fetch" in findings[0].call_path[1]

    def test_finally_protected_helper_pin_is_clean(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "store.py", """\
            class Store:
                def _grab(self, pid):
                    return self.pool.fetch(pid)
                def read(self, pid):
                    frame = self._grab(pid)
                    try:
                        return frame.decode()
                    finally:
                        self.pool.unpin(pid)
            """)
        assert findings == []

    def test_forwarding_the_pin_again_is_clean(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "store.py", """\
            class Store:
                def _grab(self, pid):
                    return self.pool.fetch(pid)
                def grab_for_caller(self, pid):
                    return self._grab(pid)
            """)
        assert findings == []


class TestInterproceduralLockOrder:
    def test_cycle_through_helpers_is_flagged(self, tmp_path):
        # Neither function acquires two classes directly; the opposite
        # orders only exist through the helpers' summaries.
        findings = run_on(tmp_path, LockOrderChecker(), "locks.py", """\
            class P:
                def _row(self, mgr, txn):
                    mgr.try_acquire(txn, ("row", 1), "X")
                def _doc(self, mgr, txn):
                    mgr.try_acquire(txn, ("doc", 1), "X")
                def forward(self, mgr, txn):
                    self._row(mgr, txn)
                    self._doc(mgr, txn)
                def backward(self, mgr, txn):
                    self._doc(mgr, txn)
                    self._row(mgr, txn)
            """)
        assert [f.code for f in findings] == ["LOCK001"]
        assert findings[0].detail == "doc/row"
        assert findings[0].call_path  # interprocedural witness attached

    def test_consistent_order_through_helpers_is_clean(self, tmp_path):
        findings = run_on(tmp_path, LockOrderChecker(), "locks.py", """\
            class P:
                def _row(self, mgr, txn):
                    mgr.try_acquire(txn, ("row", 1), "X")
                def _doc(self, mgr, txn):
                    mgr.try_acquire(txn, ("doc", 1), "X")
                def one(self, mgr, txn):
                    self._row(mgr, txn)
                    self._doc(mgr, txn)
                def two(self, mgr, txn):
                    self._row(mgr, txn)
                    self._doc(mgr, txn)
            """)
        assert findings == []

    def test_handler_lock_via_callee_is_flagged(self, tmp_path):
        findings = run_on(tmp_path, LockOrderChecker(), "locks.py", """\
            class P:
                def _relock(self, mgr, txn):
                    mgr.try_acquire(txn, ("row", 1), "X")
                def recover(self, mgr, txn):
                    try:
                        work()
                    except KeyError:
                        self._relock(mgr, txn)
            """)
        assert [f.code for f in findings] == ["LOCK002"]
        assert "self._relock" in findings[0].message
        assert any("try_acquire" in step for step in findings[0].call_path)


class TestInterproceduralWal:
    def test_flush_via_helper_without_append_is_flagged(self, tmp_path):
        findings = run_on(tmp_path, WalDisciplineChecker(), "ckpt.py", """\
            class Pool:
                def _force(self):
                    self.disk_flush_page(1)

                def flush_page(self, pid):
                    pass

            class Engine:
                def _sync(self, pool):
                    pool.flush_page(3)
                def quiesce(self, pool):
                    self.kick(pool)
                def kick(self, pool):
                    self._sync(pool)
            """)
        # Engine._sync flushes directly (WAL001 primitive); Engine.kick and
        # Engine.quiesce reach it through calls with no preceding append.
        codes = sorted(f.code for f in findings)
        assert codes == ["WAL001", "WAL001", "WAL001"]
        by_scope = {f.scope: f for f in findings}
        assert set(by_scope) == {"Engine._sync", "Engine.kick",
                                 "Engine.quiesce"}
        assert by_scope["Engine.quiesce"].call_path  # chain down to flush

    def test_flush_helper_dominated_by_append_is_clean(self, tmp_path):
        findings = run_on(tmp_path, WalDisciplineChecker(), "ckpt.py", """\
            class Engine:
                def _sync(self, pool):
                    self.log.append(("CKPT",))
                    pool.flush_page(3)
                def quiesce(self, pool):
                    self.log.append(("CKPT",))
                    self._sync(pool)
            """)
        assert findings == []

    def test_wal_writing_callee_dominates(self, tmp_path):
        # The dominator itself is interprocedural: _harden writes the WAL,
        # so calling it before the flush satisfies the discipline.
        findings = run_on(tmp_path, WalDisciplineChecker(), "ckpt.py", """\
            class Engine:
                def _harden(self):
                    self.log.append(("CKPT",))
                def quiesce(self, pool):
                    self._harden()
                    pool.flush_page(3)
            """)
        assert findings == []


class TestExceptionSafety:
    def test_finally_protected_window_is_clean(self, tmp_path):
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "txn.py", """\
            class Writer:
                def _validate(self, row):
                    if row is None:
                        raise ValueError
                def update(self, mgr, txn, row):
                    mgr.try_acquire(txn, ("row", 1), "X")
                    try:
                        self._validate(row)
                    finally:
                        mgr.release_all(txn)
            """)
        assert findings == []

    def test_raiser_after_release_is_clean(self, tmp_path):
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "txn.py", """\
            class Writer:
                def _validate(self, row):
                    if row is None:
                        raise ValueError
                def update(self, mgr, txn, row):
                    mgr.try_acquire(txn, ("row", 1), "X")
                    mgr.release_all(txn)
                    self._validate(row)
            """)
        assert findings == []

    def test_pin_window_is_pin002_alone(self, tmp_path):
        # A raiser inside an unprotected pin window is a PIN002 finding;
        # the exception-safety checker has nothing to add to it.
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "store.py", """\
            class Store:
                def decode(self, raw):
                    if not raw:
                        raise ValueError
                    return raw
                def read(self, pid):
                    data = self.pool.fetch(pid)
                    value = self.decode(data)
                    self.pool.unpin(pid)
                    return value
            """)
        assert findings == []

    def test_raiser_between_lock_and_release_is_exc002(self, tmp_path):
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "txn.py", """\
            class Writer:
                def _validate(self, row):
                    if row is None:
                        raise ValueError("no row")
                def update(self, mgr, txn, row):
                    mgr.try_acquire(txn, ("row", 1), "X")
                    self._validate(row)
                    mgr.release_all(txn)
            """)
        assert [f.code for f in findings] == ["EXC002"]
        assert findings[0].severity.value == "warning"
        assert "self._validate" in findings[0].call_path[1]

    def test_lock_without_local_release_is_out_of_scope(self, tmp_path):
        # Txn-end release owns the lifetime; nothing to report here.
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "txn.py", """\
            class Writer:
                def _validate(self, row):
                    if row is None:
                        raise ValueError
                def update(self, mgr, txn, row):
                    mgr.try_acquire(txn, ("row", 1), "X")
                    self._validate(row)
            """)
        assert findings == []


class TestCli:
    FIXTURE = """\
        class Writer:
            def _validate(self, row):
                if row is None:
                    raise ValueError("no row")
            def update(self, mgr, txn, row):
                mgr.try_acquire(txn, ("row", 1), "X")
                self._validate(row)
                mgr.release_all(txn)
        """

    def test_explain_prints_call_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "txn.py", self.FIXTURE)
        exit_code = main(["txn.py", "--select", "EXC002", "--explain"])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "EXC002" in out
        # Indented witness lines under the finding.
        assert "    txn.py:" in out
        assert "raise" in out

    def test_without_explain_no_call_paths(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "txn.py", self.FIXTURE)
        exit_code = main(["txn.py", "--select", "EXC002"])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "EXC002" in out
        assert "    txn.py:" not in out

    def test_json_includes_fingerprint_and_call_path(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "txn.py", self.FIXTURE)
        exit_code = main(["txn.py", "--select", "EXC002",
                          "--format", "json"])
        assert exit_code == 2
        payload = json.loads(capsys.readouterr().out)
        [finding] = payload["findings"]
        assert finding["fingerprint"].startswith("EXC002:txn.py:")
        assert len(finding["call_path"]) >= 2
        assert "raise" in finding["call_path"][-1]

    def test_list_checkers_prints_per_code_descriptions(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for code in ("PIN002", "LOCK001", "LOCK002", "WAL001",
                     "WAL002", "EXC002"):
            assert code in out
        # Per-code one-liners are indented under their checker.
        assert "  EXC002" in out
        assert "  LOCK002" in out
