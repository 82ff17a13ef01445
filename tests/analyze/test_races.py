"""RACE001/RACE002/LATCH001 against seeded fixture trees.

The fixtures are deliberately racy (or deliberately disciplined) snippets
written to ``tmp_path`` — the analyzer never imports them.  Each fixture
class declares its own guards (``GUARDED_BY``).  Each test pins one rule:
where the finding lands, what the ``--explain`` witness says, and which
disciplined idioms must stay quiet.
"""

import textwrap

import pytest

from repro.analyze.baseline import Baseline, BaselineError
from repro.analyze.cli import main
from repro.analyze.framework import run_checkers
from repro.analyze.races import LatchBlockingChecker, SharedStateRaceChecker


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def run_on(tmp_path, checker, relpath, source):
    path = write(tmp_path, relpath, source)
    return run_checkers([checker], [path], root=tmp_path)


def line_of(path, needle):
    for number, text in enumerate(path.read_text().splitlines(), start=1):
        if needle in text:
            return number
    raise AssertionError(f"{needle!r} not in {path}")


RACY_WRITE = """\
    import threading

    class Server:
        GUARDED_BY = {"_state_lock": ("jobs",)}

        def __init__(self):
            self._state_lock = threading.Lock()
            self.jobs = 0

        def start(self):
            for index in range(4):
                threading.Thread(target=self._worker_loop).start()

        def _worker_loop(self):
            while True:
                self._step()

        def _step(self):
            self.jobs += 1

        def view(self):
            with self._state_lock:
                return self.jobs
    """


class TestRace001:
    def test_unguarded_write_on_a_worker_thread_fires(self, tmp_path):
        path = write(tmp_path, "mod.py", RACY_WRITE)
        findings = run_checkers([SharedStateRaceChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["RACE001"]
        finding = findings[0]
        assert finding.scope == "Server._step"
        assert finding.detail == "Server.jobs/write"
        assert finding.line == line_of(path, "self.jobs += 1")
        assert "written without its declared guard '_state_lock'" \
            in finding.message

    def test_explain_witness_cites_the_declaration(self, tmp_path):
        path = write(tmp_path, "mod.py", RACY_WRITE)
        findings = run_checkers([SharedStateRaceChecker()], [path],
                                root=tmp_path)
        witness = findings[0].call_path
        assert len(witness) == 2
        assert witness[0] == (
            f"mod.py:{line_of(path, 'GUARDED_BY')}: Server.GUARDED_BY "
            f"declares 'jobs' guarded by '_state_lock'")
        assert witness[1] == (
            f"mod.py:{line_of(path, 'self.jobs += 1')}: Server._step — "
            f"Server.jobs written without '_state_lock' held")

    def test_unguarded_read_of_a_guarded_field_fires(self, tmp_path):
        findings = run_on(tmp_path, SharedStateRaceChecker(), "mod.py", """\
            import threading

            class Server:
                GUARDED_BY = {"_state_lock": ("jobs",)}

                def __init__(self):
                    self._state_lock = threading.Lock()
                    self.jobs = 0

                def start(self):
                    for index in range(4):
                        threading.Thread(target=self._worker).start()

                def _worker(self):
                    with self._state_lock:
                        self.jobs += 1

                def health(self):
                    return self.jobs
            """)
        assert [f.code for f in findings] == ["RACE001"]
        assert findings[0].detail == "Server.jobs/read"
        assert findings[0].scope == "Server.health"
        assert "Server.jobs read without '_state_lock' held" \
            in findings[0].call_path[-1]

    def test_undeclared_field_is_not_checked(self, tmp_path):
        findings = run_on(tmp_path, SharedStateRaceChecker(), "mod.py", """\
            import threading

            class Server:
                GUARDED_BY = {"_state_lock": ("jobs",)}

                def __init__(self):
                    self._state_lock = threading.Lock()
                    self.jobs = 0

                def start(self):
                    for index in range(4):
                        threading.Thread(target=self._worker).start()

                def _worker(self):
                    self.hits += 1

                def view(self):
                    return self.hits
            """)
        assert findings == []

    def test_fully_latched_class_is_clean(self, tmp_path):
        findings = run_on(tmp_path, SharedStateRaceChecker(), "mod.py", """\
            import threading

            class Server:
                GUARDED_BY = {"_state_lock": ("jobs",)}

                def __init__(self):
                    self._state_lock = threading.Lock()
                    self.jobs = 0

                def start(self):
                    for index in range(4):
                        threading.Thread(target=self._worker).start()

                def _worker(self):
                    with self._state_lock:
                        self.jobs += 1

                def view(self):
                    with self._state_lock:
                        return self.jobs
            """)
        assert findings == []

    def test_repr_reads_are_exempt(self, tmp_path):
        findings = run_on(tmp_path, SharedStateRaceChecker(), "mod.py", """\
            import threading

            class Server:
                GUARDED_BY = {"_state_lock": ("jobs",)}

                def __init__(self):
                    self._state_lock = threading.Lock()
                    self.jobs = 0

                def start(self):
                    for index in range(4):
                        threading.Thread(target=self._worker).start()

                def _worker(self):
                    with self._state_lock:
                        self.jobs += 1

                def __repr__(self):
                    return "<Server %d>" % self.jobs
            """)
        assert findings == []


RACE002_SEED = """\
    import threading

    class Server:
        GUARDED_BY = {"_state_lock": ("state",)}

        def __init__(self):
            self._state_lock = threading.Lock()
            self.state = "new"

        def start(self):
            for index in range(2):
                threading.Thread(target=self._drain).start()

        def _drain(self):
            with self._state_lock:
                self.state = "draining"

        def submit(self):
            with self._state_lock:
                if self.state != "running":
                    return None
            with self._state_lock:
                self.state = "busy"
            return True
    """


class TestRace002:
    def test_check_then_act_across_guard_release_fires(self, tmp_path):
        path = write(tmp_path, "mod.py", RACE002_SEED)
        findings = run_checkers([SharedStateRaceChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["RACE002"]
        finding = findings[0]
        assert finding.scope == "Server.submit"
        assert finding.detail == "Server.state/check-then-act"
        assert finding.line == line_of(path, 'self.state = "busy"')
        assert "may be stale" in finding.message
        assert "tested under '_state_lock'" in finding.call_path[0]
        assert "guard released and re-acquired" in finding.call_path[1]

    def test_double_checked_idiom_is_the_cure(self, tmp_path):
        findings = run_on(tmp_path, SharedStateRaceChecker(), "mod.py", """\
            import threading

            class Server:
                GUARDED_BY = {"_state_lock": ("state",)}

                def __init__(self):
                    self._state_lock = threading.Lock()
                    self.state = "new"

                def start(self):
                    for index in range(2):
                        threading.Thread(target=self._drain).start()

                def _drain(self):
                    with self._state_lock:
                        self.state = "draining"

                def submit(self):
                    with self._state_lock:
                        if self.state != "running":
                            return None
                    with self._state_lock:
                        if self.state != "running":
                            return None
                        self.state = "busy"
                    return True
            """)
        assert findings == []

    def test_check_through_a_local_fires(self, tmp_path):
        path = write(tmp_path, "mod.py", RACE002_SEED.replace(
            """            with self._state_lock:
                if self.state != "running":
                    return None
            with self._state_lock:""",
            """            with self._state_lock:
                running = self.state == "running"
            if not running:
                return None
            with self._state_lock:"""))
        findings = run_checkers([SharedStateRaceChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["RACE002"]
        assert findings[0].line == line_of(path, 'self.state = "busy"')

    def test_local_never_tested_is_quiet(self, tmp_path):
        path = write(tmp_path, "mod.py", RACE002_SEED.replace(
            """            with self._state_lock:
                if self.state != "running":
                    return None
            with self._state_lock:""",
            """            with self._state_lock:
                previous = self.state
            with self._state_lock:"""))
        findings = run_checkers([SharedStateRaceChecker()], [path],
                                root=tmp_path)
        assert findings == []


class TestLatch001:
    def test_direct_sleep_under_a_lock_fires(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            import time

            class Pacer:
                def nap(self):
                    with self._lock:
                        time.sleep(0.01)
            """)
        findings = run_checkers([LatchBlockingChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["LATCH001"]
        finding = findings[0]
        assert finding.scope == "Pacer.nap"
        assert finding.detail == "_lock/time.sleep"
        assert "sleep() suspends the thread" in finding.message
        assert "Pacer.nap acquires '_lock'" in finding.call_path[0]

    def test_blocking_callee_is_proven_via_effect_summaries(self, tmp_path):
        findings = run_on(tmp_path, LatchBlockingChecker(), "mod.py", """\
            class Waiter:
                def hold(self):
                    with self._lock:
                        self._settle()

                def _settle(self):
                    self._done.wait(1.0)
            """)
        assert [f.code for f in findings] == ["LATCH001"]
        finding = findings[0]
        assert "may block (via Waiter._settle)" in finding.message
        # acquire line + call line + the summaries' witness chain into
        # the callee that actually waits.
        assert len(finding.call_path) >= 3
        assert any("wait" in line for line in finding.call_path[2:])

    @pytest.mark.parametrize("receiver", ["_tokens", "admission_semaphore"])
    def test_token_acquire_under_a_lock_fires(self, tmp_path, receiver):
        # Taking a concurrency token waits for a holder to give one back:
        # inside a lock region it stalls every thread that needs the lock.
        path = write(tmp_path, "mod.py", f"""\
            import threading

            class Server:
                def __init__(self):
                    self._state_lock = threading.Lock()
                    self.{receiver} = threading.BoundedSemaphore(4)

                def drain(self):
                    with self._state_lock:
                        self.{receiver}.acquire()
            """)
        findings = run_checkers([LatchBlockingChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["LATCH001"]
        finding = findings[0]
        assert finding.scope == "Server.drain"
        assert finding.line == line_of(path, f"self.{receiver}.acquire()")
        assert f"{receiver.lower()}.acquire() blocks" in finding.message

    def test_engine_latch_may_flush_by_design(self, tmp_path):
        findings = run_on(tmp_path, LatchBlockingChecker(), "mod.py", """\
            class Engine:
                def checkpoint(self):
                    with self.db.latch:
                        self.pool.flush_all()
            """)
        assert findings == []

    def test_non_latch_lock_must_not_flush(self, tmp_path):
        findings = run_on(tmp_path, LatchBlockingChecker(), "mod.py", """\
            class Engine:
                def hasty(self):
                    with self._io_lock:
                        self.pool.flush_all()
            """)
        assert [f.code for f in findings] == ["LATCH001"]
        assert "forces pages to disk" in findings[0].message
        assert findings[0].detail == "_io_lock/self.pool.flush_all"

    def test_lock_nested_in_a_non_engine_latch_region_fires(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            class Server:
                def release(self, session):
                    with self._state_lock:
                        self._sessions.pop(session.session_id, None)
                        with self.db.latch:
                            session.rollback()
            """)
        findings = run_checkers([LatchBlockingChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["LATCH001"]
        finding = findings[0]
        assert finding.line == line_of(path, "with self.db.latch:")
        assert finding.detail == "_state_lock/with db.latch"
        assert "'db.latch' is acquired while '_state_lock' is held" \
            in finding.message
        assert "nested `with db.latch`" in finding.call_path[1]

    def test_engine_latch_may_enclose_another_lock(self, tmp_path):
        # The documented order is engine latch first (shutdown notes a
        # crash under _state_lock while it holds db.latch).
        findings = run_on(tmp_path, LatchBlockingChecker(), "mod.py", """\
            class Server:
                def shutdown(self, crash):
                    with self.db.latch:
                        with self._state_lock:
                            self._crashed = crash
            """)
        assert findings == []

    def test_lock_free_sleep_is_fine(self, tmp_path):
        findings = run_on(tmp_path, LatchBlockingChecker(), "mod.py", """\
            import time

            class Pacer:
                def nap(self):
                    time.sleep(0.01)
            """)
        assert findings == []


class TestCliAndBaseline:
    def test_explain_renders_the_declaration_witness(self, tmp_path, capsys):
        write(tmp_path, "tree/mod.py", RACY_WRITE)
        assert main([str(tmp_path / "tree"), "--select", "RACE001",
                     "--explain"]) == 2
        out = capsys.readouterr().out
        assert "RACE001" in out
        assert "Server.GUARDED_BY declares 'jobs' guarded by" in out
        assert "without '_state_lock' held" in out

    def test_race_baseline_entries_must_state_a_runtime_claim(
            self, tmp_path, capsys):
        write(tmp_path, "tree/mod.py", RACY_WRITE)
        baseline = tmp_path / "baseline.txt"
        assert main([str(tmp_path / "tree"), "--select", "thread-races",
                     "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        # A bare remark is enough for PIN/LOCK codes but not for races.
        text = baseline.read_text().replace(
            "# TODO: document why this is intentional", "# looks fine")
        baseline.write_text(text)
        try:
            Baseline.load(baseline)
        except BaselineError as exc:
            assert "reason:" in str(exc)
        else:
            raise AssertionError("undocumented RACE001 entry loaded")
        assert main([str(tmp_path / "tree"),
                     "--baseline", str(baseline)]) == 1
        assert "reason:" in capsys.readouterr().err

        baseline.write_text(text.replace(
            "# looks fine",
            "# reason: single writer by construction; every writer runs "
            "on the worker thread"))
        assert main([str(tmp_path / "tree"), "--select", "thread-races",
                     "--baseline", str(baseline)]) == 0
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_prune_stale_rewrites_the_baseline(self, tmp_path, capsys):
        tree = write(tmp_path, "tree/mod.py", RACY_WRITE)
        baseline = tmp_path / "baseline.txt"
        assert main([str(tmp_path / "tree"), "--select", "thread-races",
                     "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        baseline.write_text(baseline.read_text().replace(
            "# TODO: document why this is intentional",
            "# reason: fixture for the prune test"))
        # Fix the race; the entry is now stale and --prune-stale drops it
        # while the header comments survive.
        tree.write_text(textwrap.dedent(RACY_WRITE).replace(
            "        self.jobs += 1",
            "        with self._state_lock:\n            self.jobs += 1"))
        assert main([str(tmp_path / "tree"), "--select", "thread-races",
                     "--baseline", str(baseline), "--prune-stale"]) == 0
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "pruned 1 stale entry" in out
        text = baseline.read_text()
        assert "RACE001" not in text
        assert "# repro.analyze suppression baseline." in text

    def test_shipped_sources_are_race_clean(self):
        """The acceptance gate: the race checkers exit 0 on ``src``."""
        assert main(["src", "--select", "RACE001,RACE002,LATCH001"]) == 0
