"""The static checkers against seeded fixture trees.

Each fixture is a deliberately wrong (or deliberately correct) snippet the
checker must flag (or stay quiet on) — the analyzer never imports the code
it reads, so the fixtures are plain text written to ``tmp_path``.
"""

import json
import textwrap

import pytest

from repro.analyze.baseline import Baseline, BaselineError, write_baseline
from repro.analyze.cli import main
from repro.analyze.framework import run_checkers
from repro.analyze.lockorder import LockOrderChecker
from repro.analyze.pins import PinLeakChecker
from repro.analyze.statshygiene import StatsHygieneChecker
from repro.analyze.waldiscipline import WalDisciplineChecker


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


class TestPinLeakChecker:
    def test_unpin_outside_finally_is_flagged(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "unsafe.py", """\
            class Writer:
                def stamp(self):
                    page_id, data = self.pool.new_page()
                    data[0] = 1
                    self.pool.unpin(page_id, dirty=True)
            """)
        assert [f.code for f in findings] == ["PIN002"]

    def test_try_finally_protected_pin_is_clean(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "safe.py", """\
            class Writer:
                def stamp(self):
                    page_id, data = self.pool.new_page()
                    try:
                        data[0] = 1
                    finally:
                        self.pool.unpin(page_id, dirty=True)
            """)
        assert findings == []

    def test_page_context_manager_is_clean(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "ctx.py", """\
            class Reader:
                def peek(self):
                    with self.pool.page(3) as data:
                        return data[0]
            """)
        assert findings == []

    def test_returned_pin_is_a_handoff(self, tmp_path):
        findings = run_on(tmp_path, PinLeakChecker(), "handoff.py", """\
            class Pool:
                def grab(self):
                    return self.inner_pool.fetch(9)
            """)
        assert findings == []


class TestLockOrderChecker:
    def test_opposite_orders_across_files_form_a_cycle(self, tmp_path):
        one = write(tmp_path, "repro/cc/one.py", """\
            def row_then_doc(txn, locks):
                locks.try_acquire(txn, ("row", 1), "X")
                locks.try_acquire(txn, ("doc", 2), "X")
            """)
        two = write(tmp_path, "repro/cc/two.py", """\
            def doc_then_row(txn, locks):
                locks.try_acquire(txn, ("doc", 2), "X")
                locks.try_acquire(txn, ("row", 1), "X")
            """)
        findings = run_checkers([LockOrderChecker()], [one, two],
                                root=tmp_path)
        assert [f.code for f in findings] == ["LOCK001"]
        finding = findings[0]
        assert finding.detail == "doc/row"
        assert "deadlock" in finding.message
        witnessed_files = {path for path, _line in finding.related}
        assert witnessed_files == {"repro/cc/one.py", "repro/cc/two.py"}

    def test_consistent_order_is_clean(self, tmp_path):
        one = write(tmp_path, "a.py", """\
            def first(txn, locks):
                locks.try_acquire(txn, ("row", 1), "X")
                locks.try_acquire(txn, ("doc", 2), "X")
            """)
        two = write(tmp_path, "b.py", """\
            def second(txn, locks):
                locks.try_acquire(txn, ("row", 9), "S")
                locks.try_acquire(txn, ("doc", 8), "S")
            """)
        assert run_checkers([LockOrderChecker()], [one, two],
                            root=tmp_path) == []

    @pytest.mark.parametrize("helper, detail", [
        ("row_resource", "doc/row"),
        ("node_resource", "doc/node"),
    ], ids=["row", "node"])
    def test_resource_helper_calls_are_classified(self, tmp_path, helper,
                                                  detail):
        path = write(tmp_path, "helpers.py", f"""\
            def forward(txn):
                txn.lock({helper}(1), "X")
                txn.lock(doc_resource(2), "X")

            def backward(txn):
                txn.lock(doc_resource(2), "X")
                txn.lock({helper}(1), "X")
            """)
        findings = run_checkers([LockOrderChecker()], [path], root=tmp_path)
        assert [f.code for f in findings] == ["LOCK001"]
        assert findings[0].detail == detail

    def test_lock_in_except_handler_is_flagged(self, tmp_path):
        findings = run_on(tmp_path, LockOrderChecker(), "handler.py", """\
            def retry(txn, locks):
                try:
                    locks.try_acquire(txn, ("row", 1), "X")
                except RuntimeError:
                    locks.try_acquire(txn, ("row", 1), "X")
            """)
        assert [f.code for f in findings] == ["LOCK002"]


class TestStatsHygieneChecker:
    def test_misnamed_counter_is_flagged(self, tmp_path):
        path = write(tmp_path, "metrics.py", """\
            def touch(self):
                self.stats.add("BadName")
                self.stats.add("buffer.hits")
            """)
        findings = run_checkers([StatsHygieneChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["STAT001"]
        assert findings[0].detail == "BadName"
        assert findings[0].line == line_of(path, "BadName")

    def test_unregistered_metric_is_flagged(self, tmp_path):
        registry = write(tmp_path, "repro/core/stats.py", """\
            METRICS = frozenset({"buffer.hits"})
            """)
        user = write(tmp_path, "repro/user.py", """\
            def touch(stats):
                stats.add("buffer.hits")
                stats.add("buffer.hitz")
            """)
        findings = run_checkers([StatsHygieneChecker()], [registry, user],
                                root=tmp_path)
        assert [f.code for f in findings] == ["STAT002"]
        assert findings[0].detail == "buffer.hitz"

    def test_without_registry_only_convention_is_checked(self, tmp_path):
        findings = run_on(tmp_path, StatsHygieneChecker(), "solo.py", """\
            def touch(stats):
                stats.add("anything.goes")
            """)
        assert findings == []

    def test_unregistered_histogram_is_flagged(self, tmp_path):
        registry = write(tmp_path, "repro/core/stats.py", """\
            METRICS = frozenset({"buffer.hits"})
            HISTOGRAMS = frozenset({"btree.search_entries"})
            """)
        user = write(tmp_path, "repro/user.py", """\
            def touch(stats):
                stats.add("buffer.hits")
                stats.observe("btree.search_entries", 3)
                stats.observe("btree.search_entriez", 3)
            """)
        findings = run_checkers([StatsHygieneChecker()], [registry, user],
                                root=tmp_path)
        assert [f.code for f in findings] == ["STAT003"]
        assert findings[0].detail == "btree.search_entriez"
        assert findings[0].line == line_of(user, "search_entriez")

    def test_histogram_name_convention_is_checked(self, tmp_path):
        findings = run_on(tmp_path, StatsHygieneChecker(), "hist.py", """\
            def touch(stats):
                stats.observe("BadHistogram", 1)
            """)
        assert [f.code for f in findings] == ["STAT001"]
        assert findings[0].detail == "BadHistogram"

    def test_counter_registry_does_not_cover_observe(self, tmp_path):
        # A name registered only in METRICS is still a STAT003 when used
        # as a histogram — the registries are separate namespaces.
        registry = write(tmp_path, "repro/core/stats.py", """\
            METRICS = frozenset({"buffer.hits"})
            HISTOGRAMS = frozenset()
            """)
        user = write(tmp_path, "repro/user.py", """\
            def touch(stats):
                stats.add("buffer.hits")
                stats.observe("buffer.hits", 1)
            """)
        findings = run_checkers([StatsHygieneChecker()], [registry, user],
                                root=tmp_path)
        assert [f.code for f in findings] == ["STAT003"]

    def test_unregistered_wait_class_is_flagged(self, tmp_path):
        registry = write(tmp_path, "repro/core/stats.py", """\
            METRICS = frozenset({"buffer.hits"})
            WAITS = frozenset({"lock.wait"})
            """)
        user = write(tmp_path, "repro/user.py", """\
            def block(stats):
                stats.add("buffer.hits")
                with stats.wait_timer("lock.wait"):
                    pass
                stats.charge_wait("lock.wayt", 5)
            """)
        findings = run_checkers([StatsHygieneChecker()], [registry, user],
                                root=tmp_path)
        assert [f.code for f in findings] == ["STAT004"]
        assert findings[0].detail == "lock.wayt"
        assert findings[0].line == line_of(user, "lock.wayt")

    def test_uncharged_sleep_is_flagged(self, tmp_path):
        path = write(tmp_path, "sleeper.py", """\
            import time

            class Poller:
                def spin(self):
                    time.sleep(0.01)
            """)
        findings = run_checkers([StatsHygieneChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["STAT004"]
        assert findings[0].scope == "Poller.spin"
        assert findings[0].line == line_of(path, "time.sleep")

    def test_wait_timer_wrapped_sleep_is_clean(self, tmp_path):
        findings = run_on(tmp_path, StatsHygieneChecker(), "charged.py", """\
            import time

            class Backoff:
                def pause(self, stats):
                    with stats.wait_timer("txn.retry_backoff"):
                        time.sleep(0.01)
            """)
        assert findings == []

    def test_latch_yield_allowlist_is_clean(self, tmp_path):
        findings = run_on(tmp_path, StatsHygieneChecker(), "yield.py", """\
            from time import sleep

            class DatabaseServer:
                def _latch_sleep(self, seconds):
                    self.latch.release()
                    try:
                        sleep(seconds)
                    finally:
                        self.latch.acquire()
            """)
        assert findings == []

    def test_bare_sleep_alias_is_a_sleep_site(self, tmp_path):
        findings = run_on(tmp_path, StatsHygieneChecker(), "alias.py", """\
            from time import sleep

            def nap():
                sleep(0.5)
            """)
        assert [f.code for f in findings] == ["STAT004"]


class TestWalDisciplineChecker:
    def test_undominated_flush_is_flagged(self, tmp_path):
        path = write(tmp_path, "flush.py", """\
            class Engine:
                def hasty(self):
                    self.pool.flush_all()

                def disciplined(self):
                    self.log.append(-1, "CHECKPOINT")
                    self.pool.flush_all()
            """)
        findings = run_checkers([WalDisciplineChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["WAL001"]
        assert findings[0].scope == "Engine.hasty"

    def test_buffer_pool_module_owns_its_flushes(self, tmp_path):
        path = write(tmp_path, "repro/rdb/buffer.py", """\
            class BufferPool:
                def flush_all(self):
                    for page_id in self._frames:
                        self.flush_page(page_id)
            """)
        assert run_checkers([WalDisciplineChecker()], [path],
                            root=tmp_path) == []

    def test_blanket_except_is_flagged(self, tmp_path):
        path = write(tmp_path, "swallow.py", """\
            def swallow(self):
                try:
                    self.do()
                except Exception:
                    pass

            def bare(self):
                try:
                    self.do()
                except:
                    pass

            def reraises(self):
                try:
                    self.do()
                except Exception:
                    raise

            def narrow(self):
                try:
                    self.do()
                except ValueError:
                    pass
            """)
        findings = run_checkers([WalDisciplineChecker()], [path],
                                root=tmp_path)
        assert [f.code for f in findings] == ["WAL002", "WAL002"]
        assert {f.scope for f in findings} == {"swallow", "bare"}


SEEDED_LEAK = """\
class Reader:
    def peek(self):
        page = self.pool.fetch(7)
        self.total += page[0]
        self.pool.unpin(7)
"""

FIXED_LEAK = """\
class Reader:
    def peek(self):
        with self.pool.page(7) as page:
            self.total += page[0]
"""


class TestBaselineAndCli:
    def test_cli_flags_seeded_tree_and_baseline_suppresses(
            self, tmp_path, capsys):
        write(tmp_path, "tree/leak.py", SEEDED_LEAK)
        baseline = tmp_path / "baseline.txt"

        assert main([str(tmp_path / "tree")]) == 2
        assert "PIN002" in capsys.readouterr().out

        assert main([str(tmp_path / "tree"), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        text = baseline.read_text()
        assert "PIN002" in text and "# TODO" in text
        # Document the entry the way a reviewer would.
        baseline.write_text(text.replace(
            "# TODO: document why this is intentional",
            "# fixture: exercised by the analyzer's own tests"))

        assert main([str(tmp_path / "tree"),
                     "--baseline", str(baseline)]) == 0
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_stale_baseline_entries_are_reported(self, tmp_path, capsys):
        leak = write(tmp_path, "tree/leak.py", SEEDED_LEAK)
        baseline = tmp_path / "baseline.txt"
        findings = run_checkers([PinLeakChecker()], [leak], root=tmp_path)
        write_baseline(baseline, findings)

        leak.write_text(FIXED_LEAK)  # the violation is gone
        # A stale entry fails the gate: the suppression must be deleted.
        assert main([str(tmp_path / "tree"),
                     "--baseline", str(baseline)]) == 2
        assert "stale baseline entry" in capsys.readouterr().out

    def test_undocumented_baseline_entry_is_an_error(self, tmp_path, capsys):
        write(tmp_path, "tree/leak.py", SEEDED_LEAK)
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("PIN002  tree/leak.py:Reader.peek:"
                            "self.pool.fetch\n")
        assert main([str(tmp_path / "tree"),
                     "--baseline", str(baseline)]) == 1
        assert "no reason" in capsys.readouterr().err
        with pytest.raises(BaselineError):
            Baseline.load(baseline)

    def test_select_limits_checkers(self, tmp_path, capsys):
        write(tmp_path, "tree/mixed.py", SEEDED_LEAK + """\

def touch(stats):
    stats.add("BadName")
""")
        assert main([str(tmp_path / "tree"), "--select", "pin-leak"]) == 2
        out = capsys.readouterr().out
        assert "PIN002" in out and "STAT001" not in out

        assert main([str(tmp_path / "tree"), "--select", "STAT001"]) == 2
        out = capsys.readouterr().out
        assert "STAT001" in out and "PIN002" not in out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "does-not-exist")]) == 1
        assert "no such path" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        write(tmp_path, "tree/leak.py", SEEDED_LEAK)
        assert main([str(tmp_path / "tree"), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "PIN002"

    def test_broken_file_degrades_gracefully(self, tmp_path, capsys):
        write(tmp_path, "tree/broken.py", "def broken(:\n")
        write(tmp_path, "tree/leak.py", SEEDED_LEAK)
        assert main([str(tmp_path / "tree")]) == 2
        captured = capsys.readouterr()
        assert "parse error" in captured.err
        assert "PIN002" in captured.out


class TestStat005RegistryDrift:
    def seed(self, tmp_path, registry, charge):
        write(tmp_path, "repro/core/stats.py", registry)
        write(tmp_path, "repro/core/engine.py", charge)
        return run_checkers([StatsHygieneChecker()], [tmp_path],
                            root=tmp_path)

    def test_dead_registry_entry_is_flagged(self, tmp_path):
        findings = self.seed(tmp_path, """\
            METRICS = frozenset({
                "txn.commits",
                "dead.metric",
            })
            """, """\
            def commit(self):
                self.stats.add("txn.commits")
            """)
        drift = [f for f in findings if f.code == "STAT005"]
        assert [f.detail for f in drift] == ["dead.metric"]
        assert drift[0].path == "repro/core/stats.py"
        assert drift[0].scope == "METRICS"

    def test_wait_classes_keep_their_derived_counters_alive(self, tmp_path):
        findings = self.seed(tmp_path, """\
            WAITS = frozenset({"lock.row"})
            METRICS = frozenset({"waits.lock_row_us"})
            """, """\
            def wait(self):
                with self.stats.wait_timer("lock.row"):
                    pass
            """)
        assert [f for f in findings if f.code == "STAT005"] == []


class TestShippedTree:
    def test_shipped_sources_are_clean(self, capsys):
        """The acceptance gate: ``python -m repro.analyze src`` exits 0."""
        assert main(["src"]) == 0
