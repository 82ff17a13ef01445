"""Effect-summary engine: direct effects, fixpoint propagation, witnesses."""

import textwrap

from repro.analyze import effects as fx
from repro.analyze.framework import Program, SourceModule


def analyze(tmp_path, source, relpath="m.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    program = Program()
    program.add(SourceModule(path, tmp_path))
    return program.effects()


class TestDirectEffects:
    def test_pool_fetch_pins(self, tmp_path):
        eff = analyze(tmp_path, """\
            class R:
                def read(self):
                    data = self.pool.fetch(1)
                    self.pool.unpin(1)
            """)
        assert eff.has("m.py::R.read", fx.PINS)
        assert eff.has("m.py::R.read", fx.UNPINS)
        assert not eff.has("m.py::R.read", fx.RETURNS_PIN)

    def test_pin_handed_off_is_returns_pin(self, tmp_path):
        eff = analyze(tmp_path, """\
            class R:
                def grab(self):
                    frame = self.pool.fetch(1)
                    return frame
            """)
        assert eff.has("m.py::R.grab", fx.RETURNS_PIN)

    def test_classified_acquire(self, tmp_path):
        eff = analyze(tmp_path, """\
            class P:
                def hold(self, mgr, txn):
                    mgr.try_acquire(txn, ("row", 1), "X")
            """)
        assert eff.has("m.py::P.hold", fx.acquires("row"))
        assert eff.lock_classes("m.py::P.hold") == {"row"}

    def test_unclassifiable_acquire_is_question_mark(self, tmp_path):
        eff = analyze(tmp_path, """\
            class P:
                def hold(self, mgr, txn, resource):
                    mgr.try_acquire(txn, resource, "X")
            """)
        assert eff.has("m.py::P.hold", fx.acquires("?"))
        assert eff.lock_classes("m.py::P.hold") == set()

    def test_wal_append_needs_log_receiver(self, tmp_path):
        eff = analyze(tmp_path, """\
            class W:
                def record(self, rec):
                    self.log.append(rec)
                def collect(self, lines):
                    lines.append(1)
            """)
        assert eff.has("m.py::W.record", fx.WRITES_WAL)
        assert not eff.has("m.py::W.collect", fx.WRITES_WAL)

    def test_raise_statement_is_may_raise(self, tmp_path):
        eff = analyze(tmp_path, """\
            def boom():
                raise ValueError("x")
            def calm():
                return 1
            """)
        assert eff.has("m.py::boom", fx.MAY_RAISE)
        assert not eff.has("m.py::calm", fx.MAY_RAISE)


class TestFixpoint:
    def test_effects_propagate_through_call_chains(self, tmp_path):
        eff = analyze(tmp_path, """\
            class A:
                def leaf(self, mgr, txn):
                    mgr.try_acquire(txn, ("doc", 1), "S")
                def mid(self, mgr, txn):
                    self.leaf(mgr, txn)
                def top(self, mgr, txn):
                    self.mid(mgr, txn)
            """)
        for fid in ("m.py::A.leaf", "m.py::A.mid", "m.py::A.top"):
            assert eff.has(fid, fx.acquires("doc"))

    def test_may_raise_is_evidence_based(self, tmp_path):
        # An unresolved call (dynamic receiver) contributes nothing.
        eff = analyze(tmp_path, """\
            def calls_unknown(thing):
                thing.do_something()
            """)
        assert not eff.has("m.py::calls_unknown", fx.MAY_RAISE)

    def test_recursive_functions_terminate(self, tmp_path):
        eff = analyze(tmp_path, """\
            def ping(n):
                if n:
                    pong(n - 1)
                raise RuntimeError
            def pong(n):
                ping(n)
            """)
        assert eff.has("m.py::ping", fx.MAY_RAISE)
        assert eff.has("m.py::pong", fx.MAY_RAISE)

    def test_returns_pin_propagates_only_through_forwarders(self, tmp_path):
        eff = analyze(tmp_path, """\
            class R:
                def grab(self):
                    frame = self.pool.fetch(1)
                    return frame
                def forward(self):
                    return self.grab()
                def consume(self):
                    frame = self.grab()
                    self.pool.unpin(1)
            """)
        assert eff.has("m.py::R.forward", fx.RETURNS_PIN)
        assert not eff.has("m.py::R.consume", fx.RETURNS_PIN)


class TestWitnessPaths:
    def test_path_descends_to_the_primitive_site(self, tmp_path):
        eff = analyze(tmp_path, """\
            class A:
                def leaf(self):
                    raise RuntimeError("boom")
                def mid(self):
                    self.leaf()
                def top(self):
                    self.mid()
            """)
        path = eff.witness_path("m.py::A.top", fx.MAY_RAISE)
        assert len(path) == 3
        assert path[0][2].startswith("A.top calls")
        assert path[1][2].startswith("A.mid calls")
        assert "raise" in path[2][2]
        rendered = eff.render_path("m.py::A.top", fx.MAY_RAISE)
        assert all(line.startswith("m.py:") for line in rendered)

    def test_primitive_effect_has_single_step_path(self, tmp_path):
        eff = analyze(tmp_path, """\
            def boom():
                raise ValueError
            """)
        path = eff.witness_path("m.py::boom", fx.MAY_RAISE)
        assert len(path) == 1

    def test_absent_effect_has_empty_path(self, tmp_path):
        eff = analyze(tmp_path, """\
            def calm():
                return 1
            """)
        assert eff.witness_path("m.py::calm", fx.MAY_RAISE) == []
