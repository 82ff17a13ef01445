"""Shared fixtures and reporting helpers for the experiment benchmarks.

Every ``bench_e*.py`` file regenerates one experiment from DESIGN.md's
per-experiment index.  Benchmarks print paper-style result tables (visible
with ``pytest benchmarks/ --benchmark-only -s``) in addition to
pytest-benchmark's timing output; EXPERIMENTS.md records a reference run.
"""

import os

import pytest

from repro.core.stats import StatsRegistry
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.xdm.names import NameTable


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one experiment table."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(headers)]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths, strict=True)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths, strict=True)))


#: Where benchmark trace artifacts land (gitignored).
ARTIFACTS_DIR = os.path.join(os.path.dirname(__file__), "artifacts")


def export_trace(name: str, result) -> str:
    """Write an :class:`~repro.obs.ExplainResult` as a JSON trace artifact
    to ``benchmarks/artifacts/<name>.json``; returns the path written."""
    path = os.path.join(ARTIFACTS_DIR, f"{name}.json")
    os.makedirs(ARTIFACTS_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(result.to_json())
        fh.write("\n")
    print(f"[trace] wrote {path}")
    return path


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def pool(stats):
    return BufferPool(Disk(page_size=4096, stats=stats), capacity=512)


@pytest.fixture
def names():
    return NameTable()


def fresh_pool(page_size=4096, capacity=512):
    stats = StatsRegistry()
    return BufferPool(Disk(page_size=page_size, stats=stats),
                      capacity=capacity), stats


def fresh_names():
    return NameTable()
