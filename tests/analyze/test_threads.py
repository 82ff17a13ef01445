"""The thread model: roots, contexts, shared fields and latch inference.

Fixtures are plain-text trees (never imported), driven straight through
:class:`repro.analyze.threads.ThreadAnalysis` so each view — spawn-site
detection, reachability, field classification, entry locksets — is pinned
down independently of the checkers built on top.
"""

import textwrap

from repro.analyze.framework import Program, SourceModule
from repro.analyze.threads import MAIN_CONTEXT, ThreadAnalysis, guard_token


def analyze(tmp_path, source, relpath="mod.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    program = Program()
    program.add(SourceModule(path, tmp_path))
    return ThreadAnalysis(program)


SERVER = """\
    import threading

    class Server:
        def __init__(self):
            self.jobs = 0
            self.stats = object()
            self._threads = []

        def start(self):
            for index in range(4):
                thread = threading.Thread(target=self._worker_loop)
                thread.start()
                self._threads.append(thread)

        def _worker_loop(self):
            while True:
                self._step()

        def _step(self):
            self.jobs += 1
            self.stats.add("serve.requests")

        def view(self):
            return self.jobs
    """


class TestThreadRoots:
    def test_spawn_in_loop_is_a_many_root(self, tmp_path):
        analysis = analyze(tmp_path, SERVER)
        root = analysis.roots["Server._worker_loop"]
        assert root.many
        assert "mod.py" in root.provenance()
        assert "Server._worker_loop" in root.provenance()

    def test_singleton_spawn_is_not_many(self, tmp_path):
        analysis = analyze(tmp_path, """\
            import threading

            class Daemon:
                def start(self):
                    self._thread = threading.Thread(target=self._loop)
                    self._thread.start()

                def _loop(self):
                    pass
            """)
        assert analysis.roots["Daemon._loop"].many is False

    def test_known_roots_are_declared_entry_points(self, tmp_path):
        analysis = analyze(tmp_path, """\
            class DatabaseServer:
                def submit(self, request):
                    self._pending += 1
            """)
        root = analysis.roots["DatabaseServer.submit"]
        assert root.many
        assert "declared concurrent entry point" in root.provenance()


class TestContexts:
    def test_helper_inherits_the_root_context(self, tmp_path):
        analysis = analyze(tmp_path, SERVER)
        step = next(info for info in analysis.graph.iter_functions()
                    if info.qualname == "Server._step")
        assert "Server._worker_loop" in analysis.contexts_of(step.fid)

    def test_unreached_function_runs_on_main(self, tmp_path):
        analysis = analyze(tmp_path, SERVER)
        view = next(info for info in analysis.graph.iter_functions()
                    if info.qualname == "Server.view")
        assert analysis.contexts_of(view.fid) == frozenset((MAIN_CONTEXT,))

    def test_reach_path_walks_from_the_spawn_site(self, tmp_path):
        analysis = analyze(tmp_path, SERVER)
        step = next(info for info in analysis.graph.iter_functions()
                    if info.qualname == "Server._step")
        lines = analysis.reach_path("Server._worker_loop", step.fid)
        assert len(lines) == 2
        assert "spawns threads running Server._worker_loop" in lines[0]
        assert "Server._worker_loop calls self._step()" in lines[1]


class TestSharedFields:
    def test_field_written_on_worker_and_read_on_main_is_shared(
            self, tmp_path):
        analysis = analyze(tmp_path, SERVER)
        shared = {record.key for record in analysis.shared_fields()}
        assert ("Server", "jobs") in shared

    def test_sync_object_fields_are_exempt(self, tmp_path):
        analysis = analyze(tmp_path, """\
            import threading

            class Daemon:
                def start(self):
                    threading.Thread(target=self._loop).start()

                def request(self):
                    self._wake.set()

                def _loop(self):
                    self._wake.wait(1.0)
                    if self._wake.is_set():
                        self._wake.clear()
            """)
        assert analysis.shared_fields() == []

    def test_mutator_on_stats_delegate_is_not_a_write(self, tmp_path):
        analysis = analyze(tmp_path, SERVER)
        shared = {record.key for record in analysis.shared_fields()}
        assert ("Server", "stats") not in shared

    def test_field_never_written_after_init_is_not_shared(self, tmp_path):
        analysis = analyze(tmp_path, """\
            import threading

            class Daemon:
                def __init__(self):
                    self.limit = 8

                def start(self):
                    threading.Thread(target=self._loop).start()

                def _loop(self):
                    return self.limit
            """)
        assert analysis.shared_fields() == []


class TestLocksets:
    def test_guard_token_normalizes_lockish_expressions(self):
        import ast as _ast

        def expr(text):
            return _ast.parse(text, mode="eval").body

        assert guard_token(expr("self._state_lock")) == "_state_lock"
        assert guard_token(expr("self.db.latch")) == "db.latch"
        assert guard_token(expr("self._lock_for(name)")) == "_lock_for()"
        assert guard_token(expr("self.stats.trace('x')")) is None

    def test_entry_locks_flow_from_guarded_call_sites(self, tmp_path):
        analysis = analyze(tmp_path, """\
            import threading

            class Engine:
                def start(self):
                    for _ in range(2):
                        threading.Thread(target=self.run).start()

                def run(self):
                    with self.db.latch:
                        self._apply()

                def _apply(self):
                    self.applied += 1
            """)
        apply_fn = next(info for info in analysis.graph.iter_functions()
                        if info.qualname == "Engine._apply")
        assert analysis.entry_locks(apply_fn.fid) == frozenset(("db.latch",))
        guards = analysis.inferred_guards()
        assert guards[("Engine", "applied")] == frozenset(("db.latch",))

    def test_root_functions_enter_with_no_locks(self, tmp_path):
        analysis = analyze(tmp_path, SERVER)
        loop = analysis.roots["Server._worker_loop"].info
        assert analysis.entry_locks(loop.fid) == frozenset()
