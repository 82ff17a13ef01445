"""Declared guards: reading ``GUARDED_BY``, keeping it honest, locksets.

Fixtures are plain-text trees (never imported).  Each test pins one rule
of how :mod:`repro.analyze.races` reads a class's ``GUARDED_BY`` literal:
the RACE003 findings that keep the declaration in step with the class,
the methods exempt from RACE001, and the entry locksets that let a helper
inherit the lock its callers hold.
"""

import ast
import textwrap

from repro.analyze.framework import Program, SourceModule, run_checkers
from repro.analyze.races import (SharedStateRaceChecker, entry_locks,
                                 guard_token)


def write(tmp_path, source, relpath="mod.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def race_findings(tmp_path, source):
    return run_checkers([SharedStateRaceChecker()],
                        [write(tmp_path, source)], root=tmp_path)


def graph_of(tmp_path, source):
    program = Program()
    program.add(SourceModule(write(tmp_path, source), tmp_path))
    return program.callgraph()


def fid_of(graph, qualname):
    return next(info.fid for info in graph.iter_functions()
                if info.qualname == qualname)


DECLARED = """\
    import threading

    class Registry:
        GUARDED_BY = {"_lock": ("_counts",)}

        def __init__(self):
            self._lock = threading.Lock()
            self._counts = {}

        def add(self, name):
            with self._lock:
                self._counts[name] = self._counts.get(name, 0) + 1
    """


class TestDeclarations:
    def test_declared_and_guarded_class_is_clean(self, tmp_path):
        assert race_findings(tmp_path, DECLARED) == []

    def test_undeclared_lock_fires(self, tmp_path):
        findings = race_findings(tmp_path, DECLARED.replace(
            "            self._counts = {}\n",
            "            self._counts = {}\n"
            "            self._io_lock = threading.RLock()\n"))
        assert [f.code for f in findings] == ["RACE003"]
        assert findings[0].scope == "Registry"
        assert findings[0].detail == "Registry._io_lock/undeclared-lock"
        assert "does not declare" in findings[0].message

    def test_lock_in_a_class_without_a_declaration_fires(self, tmp_path):
        findings = race_findings(tmp_path, """\
            import threading

            class Pool:
                def __init__(self):
                    self._mutex = threading.Lock()
            """)
        assert [f.detail for f in findings] == ["Pool._mutex/undeclared-lock"]

    def test_declared_field_missing_from_init_fires(self, tmp_path):
        findings = race_findings(tmp_path, DECLARED.replace(
            '("_counts",)', '("_counst",)'))
        assert [f.detail for f in findings] == ["Registry._counst/not-in-init"]
        assert "is a declared field" in findings[0].message
        assert findings[0].line == 4  # the declaration

    def test_declared_lock_missing_from_init_fires(self, tmp_path):
        findings = race_findings(tmp_path, DECLARED.replace(
            '{"_lock": ', '{"_lcok": '))
        # The real lock is now undeclared as well, and no access holds
        # the declared one.
        assert sorted(f.detail for f in findings if f.code == "RACE003") \
            == ["Registry._lcok/not-in-init",
                "Registry._lock/undeclared-lock"]
        assert {f.code for f in findings} == {"RACE001", "RACE003"}

    def test_non_literal_declaration_fires(self, tmp_path):
        findings = race_findings(tmp_path, DECLARED.replace(
            '("_counts",)', '("_counts")'))
        assert [f.detail for f in findings] == ["Registry.GUARDED_BY/malformed"]

    def test_init_writes_and_repr_reads_are_exempt(self, tmp_path):
        findings = race_findings(tmp_path, DECLARED + """\

        def __repr__(self):
            return "<Registry %r>" % self._counts
    """)
        assert findings == []

    def test_lock_with_no_fields_checks_no_field(self, tmp_path):
        findings = race_findings(tmp_path, """\
            import threading

            class Engine:
                GUARDED_BY = {"latch": ()}

                def __init__(self):
                    self.latch = threading.RLock()
                    self.tables = {}

                def create(self, name):
                    self.tables[name] = []
            """)
        assert findings == []


class TestLocksets:
    def test_guard_token_normalizes_lockish_expressions(self):
        def expr(text):
            return ast.parse(text, mode="eval").body

        assert guard_token(expr("self._state_lock")) == "_state_lock"
        assert guard_token(expr("self.db.latch")) == "db.latch"
        assert guard_token(expr("self._lock_for(name)")) == "_lock_for()"
        assert guard_token(expr("self.stats.trace('x')")) is None

    def test_entry_locks_flow_from_guarded_call_sites(self, tmp_path):
        source = """\
            import threading

            class Engine:
                GUARDED_BY = {"_lock": ("applied",)}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.applied = 0

                def run(self):
                    with self._lock:
                        self._apply()

                def _apply(self):
                    self.applied += 1
            """
        graph = graph_of(tmp_path, source)
        assert entry_locks(graph)[fid_of(graph, "Engine._apply")] == \
            frozenset(("_lock",))
        # So the helper's write counts as guarded ...
        assert race_findings(tmp_path, source) == []
        # ... until one call site drops the lock.
        findings = race_findings(tmp_path, source + """\

                def hasty(self):
                    self._apply()
            """)
        assert [f.detail for f in findings] == ["Engine.applied/write"]
        assert findings[0].scope == "Engine._apply"

    def test_root_functions_enter_with_no_locks(self, tmp_path):
        # A thread target has no resolved caller: it starts lock-free.
        graph = graph_of(tmp_path, """\
            import threading

            class Server:
                def start(self):
                    threading.Thread(target=self._worker_loop).start()

                def _worker_loop(self):
                    with self._lock:
                        self._step()

                def _step(self):
                    pass
            """)
        locks = entry_locks(graph)
        assert locks[fid_of(graph, "Server._worker_loop")] == frozenset()
        assert locks[fid_of(graph, "Server._step")] == frozenset(("_lock",))
