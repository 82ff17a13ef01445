"""The analyzer's wiring to the engine it checks.

Two directions: the engine must not pay for the static analyzer (it
imports no ``repro.analyze`` module), and the analyzer's hand-written name
tables — the latch-yield sleep allowlist and the flush owners — must still
name real code, because a rename silently drops an entry instead of
failing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import statshygiene, waldiscipline
from repro.analyze.framework import Program, SourceModule, iter_python_files

SRC = Path(__file__).resolve().parents[2] / "src"


def test_engine_imports_no_analyzer_module():
    probe = ("import sys, repro.core.engine, repro.serve; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.analyze')))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def graph():
    program = Program()
    for path in iter_python_files([SRC]):
        program.add(SourceModule(path, SRC))
    return program.callgraph()


@pytest.mark.parametrize("qualname", sorted(statshygiene._SLEEP_ALLOWLIST))
def test_named_function_exists(graph, qualname):
    assert graph.by_qualname(qualname), f"{qualname} is not defined in src/"


@pytest.mark.parametrize("suffix", sorted(waldiscipline._FLUSH_OWNERS))
def test_named_module_exists(suffix):
    assert (SRC / suffix).is_file(), f"{suffix} is not a module in src/"
