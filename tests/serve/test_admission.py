"""Admission control: the bounded wait queue in ``DatabaseServer.submit``."""

import threading

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.errors import ServerOverloadedError
from repro.serve import DatabaseServer


def _blocked_server(queue_limit):
    """A 1-worker server whose worker is parked inside a request.

    Returns the server, the parked request and the event that releases
    it; every later submit lands in (or overflows) the wait queue.
    """
    db = Database(EngineConfig(serve_workers=1,
                               serve_queue_limit=queue_limit))
    server = DatabaseServer(db).start()
    started, release = threading.Event(), threading.Event()

    def park(_db):
        started.set()
        release.wait(timeout=30)

    parked = server.submit(None, park, "park", None)
    assert started.wait(timeout=30)
    return server, parked, release


class TestAdmissionController:
    def test_queue_full_sheds_with_typed_error(self):
        server, parked, release = _blocked_server(queue_limit=2)
        try:
            queued = [server.submit(None, lambda db, i=i: i, f"q{i}", None)
                      for i in range(2)]
            with pytest.raises(ServerOverloadedError, match="queue full"):
                server.submit(None, lambda db: None, "shed", None)
        finally:
            release.set()
        parked.wait()
        assert [request.wait() for request in queued] == [0, 1]
        server.shutdown()
        stats = server.stats
        assert stats.get("serve.requests") == 4
        assert stats.get("serve.admitted") == 3
        assert stats.get("serve.shed_queue_full") == 1

    def test_admission_counters_are_disjoint(self):
        server, parked, release = _blocked_server(queue_limit=1)
        try:
            server.submit(None, lambda db: None, "queued", None)
            for _ in range(3):
                with pytest.raises(ServerOverloadedError):
                    server.submit(None, lambda db: None, "x", None)
        finally:
            release.set()
        parked.wait()
        server.shutdown()
        stats = server.stats
        assert stats.get("serve.requests") == 5
        assert stats.get("serve.requests") == \
            stats.get("serve.admitted") + stats.get("serve.shed_queue_full")
