"""The analyzer's wiring to the engine it checks.

Two directions: the engine must not pay for the static analyzer (it
imports only the runtime sanitizer), and the analyzer's hand-written name
tables — thread roots, exemptions, entry classes — must still name real
code, because a rename silently drops an entry instead of failing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import rawdisk, statshygiene, threads, txnscope
from repro.analyze import waldiscipline
from repro.analyze.framework import Program, SourceModule, iter_python_files

SRC = Path(__file__).resolve().parents[2] / "src"


def test_engine_imports_only_the_sanitizer():
    probe = ("import sys, repro.core.engine, repro.serve; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.analyze')))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['repro.analyze', 'repro.analyze.sanitize']"


@pytest.fixture(scope="module")
def graph():
    program = Program()
    for path in iter_python_files([SRC]):
        program.add(SourceModule(path, SRC))
    return program.callgraph()


@pytest.mark.parametrize("qualname", sorted(
    set(threads.KNOWN_ROOTS) | statshygiene._SLEEP_ALLOWLIST))
def test_named_function_exists(graph, qualname):
    assert graph.by_qualname(qualname), f"{qualname} is not defined in src/"


@pytest.mark.parametrize("suffix", sorted(
    set(rawdisk._ALLOWED_SUFFIXES) | set(waldiscipline._FLUSH_OWNERS)))
def test_named_module_exists(suffix):
    assert (SRC / suffix).is_file(), f"{suffix} is not a module in src/"


@pytest.mark.parametrize("cls", sorted(txnscope._ENTRY_CLASSES))
def test_named_entry_class_has_methods(graph, cls):
    assert any(info.cls == cls for info in graph.iter_functions()), \
        f"class {cls} defines no methods in src/"
