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
from repro.analyze.txnscope import TxnScopeChecker
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
    def test_pin_through_helper_is_flagged(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "store.py", """\
            class Store:
                def _grab(self, pid):
                    frame = self.pool.fetch(pid)
                    return frame
                def read(self, pid):
                    frame = self._grab(pid)
                    value = frame.decode()
                    return value
            """)
        # _grab itself hands off (clean); read inherits the pin and leaks
        # it — only the decoded value escapes, never the frame.
        codes = [f.code for f in findings]
        assert codes == ["PIN001"]
        assert findings[0].scope == "Store.read"
        # --explain path: the call site, then the primitive pin.
        assert len(findings[0].call_path) == 2
        assert "self._grab" in findings[0].call_path[0]
        assert "pool.fetch" in findings[0].call_path[1]

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
    SOURCE = """\
        class Codec:
            def decode(self, raw):
                if not raw:
                    raise ValueError("empty page")
                return raw

        class Store:
            def read(self, pid):
                data = self.pool.fetch(pid)
                value = self.decode(data)
                self.pool.unpin(pid)
                return value

            def decode(self, raw):
                if not raw:
                    raise ValueError("empty page")
                return raw
        """

    def test_raiser_between_pin_and_unpin_is_exc001(self, tmp_path):
        findings = run_on(tmp_path, ExceptionSafetyChecker(),
                          "store.py", self.SOURCE)
        assert [f.code for f in findings] == ["EXC001"]
        finding = findings[0]
        assert finding.scope == "Store.read"
        assert finding.severity.value == "error"
        # The chain names the pin, the risky call, and ends at the raise.
        assert "pin" in finding.call_path[0]
        assert "self.decode" in finding.call_path[1]
        assert "raise" in finding.call_path[-1]

    def test_raiser_after_a_returns_pin_helper_is_exc001(self, tmp_path):
        # The same window, but the pin comes from a helper that hands the
        # frame back: the chain runs through the helper's hand-off.
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "store.py", """\
            class Store:
                def _grab(self, pid):
                    return self.pool.fetch(pid)
                def decode(self, raw):
                    if not raw:
                        raise ValueError("empty page")
                    return raw
                def read(self, pid):
                    data = self._grab(pid)
                    value = self.decode(data)
                    self.pool.unpin(pid)
                    return value
            """)
        assert [f.code for f in findings] == ["EXC001"]
        finding = findings[0]
        assert finding.scope == "Store.read"
        assert finding.detail == "self._grab@self.decode"
        assert "pins via self._grab()" in finding.call_path[0]
        assert "pin handed to caller" in finding.call_path[1]
        assert "self.decode" in finding.call_path[2]
        assert "raise" in finding.call_path[-1]

    def test_finally_protected_window_is_clean(self, tmp_path):
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "store.py", """\
            class Store:
                def decode(self, raw):
                    if not raw:
                        raise ValueError
                    return raw
                def read(self, pid):
                    data = self.pool.fetch(pid)
                    try:
                        return self.decode(data)
                    finally:
                        self.pool.unpin(pid)
            """)
        assert findings == []

    def test_raiser_after_release_is_clean(self, tmp_path):
        findings = run_on(tmp_path, ExceptionSafetyChecker(), "store.py", """\
            class Store:
                def decode(self, raw):
                    if not raw:
                        raise ValueError
                    return raw
                def read(self, pid):
                    data = self.pool.fetch(pid)
                    self.pool.unpin(pid)
                    return self.decode(data)
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


class TestTxnScope:
    def test_unscoped_public_mutator_is_flagged(self, tmp_path):
        findings = run_on(tmp_path, TxnScopeChecker(), "engine.py", """\
            class Database:
                def rename_table(self, old, new):
                    self._rewrite_catalog(old, new)
                def _rewrite_catalog(self, old, new):
                    self.log.append(self.next_txn, ("RENAME", old, new))
            """)
        assert [f.code for f in findings] == ["TXN001"]
        finding = findings[0]
        assert finding.detail == "Database.rename_table"
        assert "self._rewrite_catalog" in finding.call_path[0]
        assert "writes WAL" in finding.call_path[-1]

    def test_txn_id_parameter_is_a_scope(self, tmp_path):
        findings = run_on(tmp_path, TxnScopeChecker(), "engine.py", """\
            class Database:
                def insert(self, table, row, txn_id):
                    self.log.append(txn_id, ("INSERT", table, row))
            """)
        assert findings == []

    def test_begin_call_establishes_scope(self, tmp_path):
        findings = run_on(tmp_path, TxnScopeChecker(), "engine.py", """\
            class Database:
                def rename_table(self, old, new):
                    txn = self.txns.begin()
                    self.log.append(txn.txn_id, ("RENAME", old, new))
            """)
        assert findings == []

    def test_autonomous_ddl_append_is_exempt(self, tmp_path):
        findings = run_on(tmp_path, TxnScopeChecker(), "engine.py", """\
            class Database:
                def create_table(self, name, columns):
                    self.log.append(-1, ("DDL", name, columns))
            """)
        assert findings == []

    def test_delegating_to_a_scoped_helper_is_clean(self, tmp_path):
        # The reachability walk stops at barriers: the helper receives a
        # txn_id, so the mutation below it is the helper's business.
        findings = run_on(tmp_path, TxnScopeChecker(), "engine.py", """\
            class Database:
                def compact(self):
                    self._rewrite(self.current_txn)
                def _rewrite(self, txn_id):
                    self.log.append(txn_id, ("COMPACT",))
            """)
        assert findings == []

    def test_private_methods_are_not_entry_points(self, tmp_path):
        findings = run_on(tmp_path, TxnScopeChecker(), "engine.py", """\
            class Database:
                def _internal(self):
                    self.log.append(self.cur, ("X",))
            """)
        assert findings == []


class TestCli:
    FIXTURE = """\
        class Codec:
            def decode(self, raw):
                if not raw:
                    raise ValueError("empty")
                return raw

        class Store:
            def decode(self, raw):
                if not raw:
                    raise ValueError("empty")
                return raw
            def read(self, pid):
                data = self.pool.fetch(pid)
                value = self.decode(data)
                self.pool.unpin(pid)
                return value
        """

    def test_explain_prints_call_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "store.py", self.FIXTURE)
        exit_code = main(["store.py", "--select", "EXC001", "--explain"])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "EXC001" in out
        # Indented witness lines under the finding.
        assert "    store.py:" in out
        assert "raise" in out

    def test_without_explain_no_call_paths(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "store.py", self.FIXTURE)
        exit_code = main(["store.py", "--select", "EXC001"])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "EXC001" in out
        assert "    store.py:" not in out

    def test_json_includes_fingerprint_and_call_path(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "store.py", self.FIXTURE)
        exit_code = main(["store.py", "--select", "EXC001",
                          "--format", "json"])
        assert exit_code == 2
        payload = json.loads(capsys.readouterr().out)
        [finding] = payload["findings"]
        assert finding["fingerprint"].startswith("EXC001:store.py:")
        assert len(finding["call_path"]) >= 2
        assert "raise" in finding["call_path"][-1]

    def test_list_checkers_prints_per_code_descriptions(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for code in ("PIN001", "PIN002", "LOCK001", "LOCK002", "WAL001",
                     "WAL002", "EXC001", "EXC002", "TXN001"):
            assert code in out
        # Per-code one-liners are indented under their checker.
        assert "  EXC001" in out
        assert "  TXN001" in out
