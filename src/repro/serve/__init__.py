"""The multi-client serving layer (DB2-style thread/connection governance).

``repro.serve`` fronts a single-threaded
:class:`~repro.core.engine.Database` with a worker thread pool, per-client
sessions, admission control with a bounded queue that sheds overflow,
and request deadlines — see :mod:`repro.serve.server` for the
architecture and DESIGN.md's "Serving layer" section for the DB2 mapping.

Run a load experiment from the command line::

    PYTHONPATH=src python -m repro.serve.loadgen --clients 100 --ops 5
"""

from repro.serve.server import DatabaseServer
from repro.serve.session import Session


def __getattr__(name: str):
    # Lazy: loadgen is also a ``python -m`` entry point, and importing it
    # here eagerly would shadow that module-run with the package import.
    if name in ("LoadHarness", "LoadReport"):
        from repro.serve import loadgen
        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DatabaseServer",
    "LoadHarness",
    "LoadReport",
    "Session",
]
