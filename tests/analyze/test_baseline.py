"""Suppression baseline: load format, round-trip, staleness."""

import pytest

from repro.analyze.baseline import (Baseline, BaselineError, BaselineEntry,
                                    write_baseline)
from repro.analyze.cli import main
from repro.analyze.findings import Finding


def make_finding(code="PIN002", path="m.py", scope="A.f", detail="x",
                 line=3):
    return Finding(code=code, checker="t", path=path, line=line, column=0,
                   message="msg", scope=scope, detail=detail)


class TestLoad:
    def test_loads_entries_with_reasons(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text(
            "# header comment\n"
            "\n"
            "PIN002  m.py:A.f:x  # caller owns the unpin\n")
        baseline = Baseline.load(path)
        assert list(baseline.entries) == ["PIN002:m.py:A.f:x"]
        entry = baseline.entries["PIN002:m.py:A.f:x"]
        assert entry.reason == "caller owns the unpin"
        assert entry.lineno == 3

    def test_entry_without_reason_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("PIN002  m.py:A.f:x\n")
        with pytest.raises(BaselineError, match="no reason"):
            Baseline.load(path)

    def test_entry_with_empty_reason_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("PIN002  m.py:A.f:x  #   \n")
        with pytest.raises(BaselineError, match="no reason"):
            Baseline.load(path)

    def test_missing_fingerprint_is_an_error(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("PIN002  # reason\n")
        with pytest.raises(BaselineError, match="expected"):
            Baseline.load(path)

    def test_fingerprint_may_contain_spaces(self, tmp_path):
        # WAL002 details quote source text ('except Exception:'), so the
        # fingerprint is everything after the first whitespace run.
        path = tmp_path / "baseline.txt"
        path.write_text("WAL002  m.py:f:except Exception:  # best effort\n")
        baseline = Baseline.load(path)
        assert "WAL002:m.py:f:except Exception:" in baseline.entries

    def test_error_message_carries_file_and_line(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("# ok\nBAD\n")
        with pytest.raises(BaselineError, match=r"baseline\.txt:2"):
            Baseline.load(path)


class TestSplitAndStaleness:
    def test_split_partitions_by_fingerprint(self):
        known = make_finding(detail="known")
        fresh = make_finding(detail="fresh")
        baseline = Baseline([BaselineEntry(known.fingerprint, "reviewed")])
        new, suppressed = baseline.split([known, fresh])
        assert new == [fresh]
        assert suppressed == [known]

    def test_suppression_ignores_line_moves(self):
        baseline = Baseline([BaselineEntry(
            make_finding(line=3).fingerprint, "reviewed")])
        moved = make_finding(line=99)  # same code/path/scope/detail
        assert baseline.suppresses(moved)

    def test_unmatched_entries_are_stale(self):
        used = BaselineEntry("PIN002:m.py:A.f:x", "reviewed")
        unused = BaselineEntry("WAL001:n.py:B.g:y", "obsolete")
        baseline = Baseline([used, unused])
        baseline.split([make_finding()])
        assert baseline.stale_entries() == [unused]

    def test_no_stale_entries_when_all_match(self):
        baseline = Baseline([BaselineEntry(
            make_finding().fingerprint, "reviewed")])
        baseline.split([make_finding()])
        assert baseline.stale_entries() == []

    def test_staleness_is_limited_to_the_checked_codes(self):
        pin = BaselineEntry("PIN002:m.py:A.f:x", "reviewed")
        wal = BaselineEntry("WAL001:n.py:B.g:y", "reviewed")
        baseline = Baseline([pin, wal])
        baseline.split([])
        assert baseline.stale_entries({"WAL001", "WAL002"}) == [wal]
        assert baseline.stale_entries(set()) == []


class TestStaleEntriesFailTheGate:
    @pytest.fixture
    def tree(self, tmp_path):
        """A clean tree and a baseline whose one PIN002 entry is stale."""
        (tmp_path / "tree").mkdir()
        (tmp_path / "tree" / "m.py").write_text("def f():\n    return 1\n")
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("# header\n"
                            "PIN002  tree/m.py:f:x  # fixed long ago\n")
        return tmp_path / "tree", baseline

    def test_stale_entry_exits_2(self, tree, capsys):
        path, baseline = tree
        assert main([str(path), "--baseline", str(baseline)]) == 2
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "0 new finding(s), 1 stale baseline entry" in out

    def test_selected_code_counts_its_stale_entries(self, tree, capsys):
        path, baseline = tree
        assert main([str(path), "--baseline", str(baseline),
                     "--select", "pin-leak"]) == 2

    def test_unselected_codes_are_not_stale(self, tree, capsys):
        path, baseline = tree
        assert main([str(path), "--baseline", str(baseline),
                     "--select", "LOCK001"]) == 0
        assert "stale" not in capsys.readouterr().out

    def test_prune_stale_deletes_instead_of_failing(self, tree, capsys):
        path, baseline = tree
        assert main([str(path), "--baseline", str(baseline),
                     "--prune-stale"]) == 0
        assert baseline.read_text() == "# header\n"
        assert main([str(path), "--baseline", str(baseline)]) == 0


class TestWriteRoundTrip:
    def test_write_then_load_suppresses_the_findings(self, tmp_path):
        findings = [make_finding(detail="a"),
                    make_finding(code="WAL001", detail="b")]
        path = tmp_path / "baseline.txt"
        count = write_baseline(path, findings)
        assert count == 2
        baseline = Baseline.load(path)  # TODO reasons still count as reasons
        new, suppressed = baseline.split(findings)
        assert new == []
        assert len(suppressed) == 2

    def test_write_deduplicates_identical_fingerprints(self, tmp_path):
        findings = [make_finding(line=1), make_finding(line=2)]
        path = tmp_path / "baseline.txt"
        assert write_baseline(path, findings) == 1

    def test_written_file_documents_the_reason_rule(self, tmp_path):
        path = tmp_path / "baseline.txt"
        write_baseline(path, [make_finding()])
        text = path.read_text()
        assert "Every entry must end with" in text
        assert "TODO: document why this is intentional" in text
