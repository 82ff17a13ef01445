"""Admission control: the concurrency tokens and the capped waiting count
in ``DatabaseServer.submit``."""

import sys
import threading
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.errors import ServerClosedError, ServerOverloadedError
from repro.serve import DatabaseServer


class _Client:
    """One client thread issuing one raw request; keeps its outcome."""

    def __init__(self, server, work, label):
        self.result = self.error = None
        self.thread = threading.Thread(target=self._run,
                                       args=(server, work, label),
                                       daemon=True)
        self.thread.start()

    def _run(self, server, work, label):
        try:
            self.result = server.submit(None, work, label, None)
        except BaseException as error:
            self.error = error

    def join(self):
        self.thread.join(timeout=30)
        assert not self.thread.is_alive()
        return self


def _blocked_server(queue_limit):
    """A 1-token server whose token is held by a client thread parked
    inside a request.

    Returns the server, the parked client and the event that releases it;
    every later submit waits for the token (or overflows the wait).
    """
    db = Database(EngineConfig(serve_workers=1,
                               serve_queue_limit=queue_limit))
    server = DatabaseServer(db).start()
    started, release = threading.Event(), threading.Event()

    def park(_db):
        started.set()
        release.wait(timeout=30)
        return "parked"

    parked = _Client(server, park, "park")
    assert started.wait(timeout=30)
    return server, parked, release


def _wait_until_waiting(server, count):
    """Spin until ``count`` requests wait for a token."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        with server._state_lock:
            if len(server._waiting) == count:
                return
        time.sleep(0.001)
    raise AssertionError(f"{count} requests never queued for a token")


class TestAdmissionController:
    def test_queue_full_sheds_with_typed_error(self):
        server, parked, release = _blocked_server(queue_limit=2)
        try:
            queued = [_Client(server, lambda db, i=i: i, f"q{i}")
                      for i in range(2)]
            _wait_until_waiting(server, 2)
            with pytest.raises(ServerOverloadedError, match="queue full"):
                server.submit(None, lambda db: None, "shed", None)
        finally:
            release.set()
        assert parked.join().result == "parked"
        assert [client.join().result for client in queued] == [0, 1]
        server.shutdown()
        stats = server.stats
        assert stats.get("serve.requests") == 4
        assert stats.get("serve.admitted") == 3
        assert stats.get("serve.shed_queue_full") == 1

    def test_admission_counters_are_disjoint(self):
        server, parked, release = _blocked_server(queue_limit=1)
        try:
            queued = _Client(server, lambda db: None, "queued")
            _wait_until_waiting(server, 1)
            for _ in range(3):
                with pytest.raises(ServerOverloadedError):
                    server.submit(None, lambda db: None, "x", None)
        finally:
            release.set()
        parked.join()
        queued.join()
        server.shutdown()
        stats = server.stats
        assert stats.get("serve.requests") == 5
        assert stats.get("serve.requests") == \
            stats.get("serve.admitted") + stats.get("serve.shed_queue_full")


class TestRequestsRunOnTheClientThread:
    def test_work_runs_on_the_calling_thread(self):
        db = Database(EngineConfig())
        with DatabaseServer(db) as server:
            ran_on = server.submit(None, lambda db: threading.get_ident(),
                                   "where", None)
            with server.session() as session:
                txn_id = session.begin()
                on_txn = session.execute(
                    lambda db, txn: (txn.txn_id, threading.get_ident()))
                session.rollback()
        assert ran_on == threading.get_ident()
        assert on_txn == (txn_id, threading.get_ident())

    def test_start_adds_no_thread(self):
        before = set(threading.enumerate())
        server = DatabaseServer(Database(EngineConfig(serve_workers=8)))
        server.start()
        try:
            assert set(threading.enumerate()) == before
        finally:
            server.shutdown()

    def test_undrained_shutdown_fails_a_token_waiter(self):
        server, parked, release = _blocked_server(queue_limit=4)
        waiter = _Client(server, lambda db: "ran", "waiter")
        _wait_until_waiting(server, 1)
        stopper = threading.Thread(target=server.shutdown,
                                   kwargs={"drain": False}, daemon=True)
        stopper.start()
        while server.state != "closed":
            time.sleep(0.001)
        release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert parked.join().result == "parked"
        assert isinstance(waiter.join().error, ServerClosedError)
        stats = server.stats
        assert stats.get("serve.admitted") == 2
        assert stats.get("serve.completed") == 1
        assert stats.get("serve.shed_closed") == 1

    def test_shutdown_waits_for_the_request_in_flight(self):
        server, parked, release = _blocked_server(queue_limit=4)
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(0.2)
        try:
            assert stopper.is_alive(), "shutdown returned mid-request"
            assert server.state == "draining"
        finally:
            release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert parked.join().result == "parked"
        assert server.state == "closed"
        assert server.stats.get("serve.completed") == 1

    def test_tokens_cap_concurrency_under_a_stress_load(self):
        # More clients than tokens and cores, with a short switch interval:
        # the work never runs on more threads than there are tokens, every
        # request lands in exactly one admission counter, and afterwards
        # no request is left waiting and every token is free again.
        db = Database(EngineConfig(serve_workers=2, serve_queue_limit=3))
        server = DatabaseServer(db).start()
        guard = threading.Lock()
        running = [0, 0]  # now, peak

        def work(engine):
            with guard:
                running[0] += 1
                running[1] = max(running[1], running[0])
            # Sleeps with the engine latch released, as a retry backoff
            # does, so only the tokens bound how many threads are in here.
            engine.backoff_sleep(0.0005)
            with guard:
                running[0] -= 1

        def client():
            for _ in range(40):
                try:
                    server.submit(None, work, "stress", None)
                except ServerOverloadedError:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(12)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        server.shutdown()
        stats = server.stats
        assert running[1] <= 2
        assert stats.get("serve.requests") == 12 * 40 == \
            stats.get("serve.admitted") + stats.get("serve.shed_queue_full")
        assert stats.get("serve.completed") == stats.get("serve.admitted")
        assert not server._waiting
        assert server._free == 2

    def test_racing_shutdowns_both_return(self):
        server, parked, release = _blocked_server(queue_limit=4)
        stoppers = [threading.Thread(target=server.shutdown, daemon=True)
                    for _ in range(2)]
        for stopper in stoppers:
            stopper.start()
        release.set()
        for stopper in stoppers:
            stopper.join(timeout=30)
            assert not stopper.is_alive()
        assert parked.join().result == "parked"
        assert server.state == "closed"
