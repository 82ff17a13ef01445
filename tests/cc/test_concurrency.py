"""Tests for the scheduler, document-level locking, MVCC, and subdocument
multiple-granularity locking (node locks in the lock manager)."""

import pytest

from repro.core.stats import StatsRegistry
from repro.cc.document import (DocumentLockProtocol, doc_resource,
                                node_resource, row_resource)
from repro.cc.mvcc import VersionedXmlStore, split_version_key, version_key
from repro.cc.scheduler import Do, Lock, Scheduler
from repro.errors import DocumentNotFoundError, PageFullError
from repro.rdb.buffer import BufferPool
from repro.rdb.locks import LockManager, LockMode
from repro.rdb.storage import Disk
from repro.rdb.tablespace import Rid
from repro.rdb.txn import accounting_records
from repro.xdm.names import NameTable
from repro.xdm.serializer import serialize


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def pool(stats):
    return BufferPool(Disk(page_size=4096, stats=stats), 128)


class TestScheduler:
    def test_two_independent_txns_commit(self, stats):
        lm = LockManager(stats)
        trace = []

        def program(name):
            def body(txn_id):
                yield Lock(("r", name), LockMode.X)
                yield Do(lambda: trace.append(name))
            return body

        result = Scheduler(lm, seed=1).run(
            [("a", program("a")), ("b", program("b"))])
        assert result.committed == 2
        assert result.aborted == 0
        assert sorted(trace) == ["a", "b"]

    def test_conflicting_txns_serialize(self, stats):
        lm = LockManager(stats)
        active = []
        max_active = [0]

        def body(txn_id):
            yield Lock("shared-resource", LockMode.X)
            yield Do(lambda: active.append(txn_id))
            yield Do(lambda: max_active.__setitem__(
                0, max(max_active[0], len(active))))
            yield Do(lambda: active.remove(txn_id))

        result = Scheduler(lm, seed=3).run(
            [(f"t{i}", body) for i in range(4)])
        assert result.committed == 4
        assert result.wait_steps > 0
        assert max_active[0] == 1  # strictly serialized on the X lock

    def test_deadlock_resolved_by_restart(self, stats):
        lm = LockManager(stats)

        def make(first, second):
            def body(txn_id):
                yield Lock(first, LockMode.X)
                yield Lock(second, LockMode.X)
            return body

        result = Scheduler(lm, seed=5).run(
            [("ab", make("a", "b")), ("ba", make("b", "a"))],
            round_robin=True)
        assert result.committed == 2
        assert result.aborted >= 1
        assert stats.get("lock.deadlocks") >= 1

    def test_deadlock_under_random_scheduling(self, stats):
        """The non-round-robin path resolves deadlocks too (pinned seed
        empirically produces the a->b / b->a interleaving)."""
        lm = LockManager(stats)

        def make(first, second):
            def body(txn_id):
                yield Lock(first, LockMode.X)
                yield Lock(second, LockMode.X)
            return body

        result = Scheduler(lm, seed=6).run(
            [("ab", make("a", "b")), ("ba", make("b", "a"))])
        assert result.committed == 2
        assert result.deadlock_aborts == 1
        assert result.restarts == 1
        assert stats.get("txn.deadlock_aborts") == 1

    def test_round_robin_deadlock_with_three_programs(self, stats):
        """Three-way waits-for cycle under round-robin scheduling, pinned:
        the youngest program in the cycle dies once and restarts, and its
        one accounting record folds the victim attempt in."""
        lm = LockManager(stats)

        def make(first, second):
            def body(txn_id):
                yield Lock(first, LockMode.X)
                yield Lock(second, LockMode.X)
            return body

        result = Scheduler(lm, seed=0).run(
            [("ab", make("a", "b")), ("bc", make("b", "c")),
             ("ca", make("c", "a"))], round_robin=True)
        assert result.committed == 3
        assert result.aborted == 1
        assert result.wait_steps == 7
        assert result.total_steps == 17
        assert result.commit_order == ["bc", "ab", "ca"]
        assert result.deadlock_aborts == 1
        assert result.restarts == 1
        records = accounting_records(stats)
        assert len(records) == 3
        retried = [r for r in records if r.retries]
        assert len(retried) == 1
        assert retried[0].retries == 1
        assert len(retried[0].victim_attempts) == 1

    def test_e9a_document_locking_schedule_pinned(self, stats):
        """E9a's locking shape: 12 readers take S on one DocID lock while
        one writer takes X on it four times (seed 42)."""
        lm = LockManager(stats)
        resource = doc_resource("doc", 1)

        def reader(txn_id):
            yield Lock(resource, LockMode.S)
            yield Do(lambda: None)
            yield Do(lambda: None)

        def writer(txn_id):
            for _ in range(4):
                yield Lock(resource, LockMode.X)
                yield Do(lambda: None)

        programs = [("w", writer)] + [(f"r{i}", reader) for i in range(12)]
        result = Scheduler(lm, seed=42).run(programs)
        assert result.committed == 13
        assert result.wait_steps == 15
        assert result.makespan == 72

    def test_commit_order_recorded(self, stats):
        lm = LockManager(stats)

        def body(txn_id):
            yield Do(lambda: None)

        result = Scheduler(lm, seed=0).run([("x", body), ("y", body)])
        assert sorted(result.commit_order) == ["x", "y"]


class TestDocumentLocking:
    def test_row_lock_covers_document_path(self, stats):
        lm = LockManager(stats)
        protocol = DocumentLockProtocol(lm)
        assert protocol.try_read_via_row(1, "t", Rid(0, 0))
        assert protocol.try_read_via_row(2, "t", Rid(0, 0))  # shared
        assert not lm.try_acquire(3, row_resource("t", Rid(0, 0)),
                                  LockMode.X)

    def test_writer_blocks_direct_readers(self, stats):
        lm = LockManager(stats)
        protocol = DocumentLockProtocol(lm)
        assert protocol.try_write(1, "t", Rid(0, 0), docid=7)
        assert not protocol.try_read_direct(2, docid=7)
        protocol.release(1)
        assert protocol.try_read_direct(2, docid=7)

    def test_insert_guard_prevents_partial_reads(self, stats):
        lm = LockManager(stats)
        protocol = DocumentLockProtocol(lm)
        assert protocol.try_insert_guard(1, docid=9)
        assert not protocol.try_read_direct(2, docid=9)

    def test_distinct_documents_do_not_conflict(self, stats):
        lm = LockManager(stats)
        protocol = DocumentLockProtocol(lm)
        assert protocol.try_write(1, "t", Rid(0, 0), docid=1)
        assert protocol.try_read_direct(2, docid=2)

    def test_resources_distinct(self):
        assert doc_resource("c", 1) != doc_resource("c", 2)
        assert doc_resource("c", 1) != row_resource("c", Rid(0, 1))


class TestMvcc:
    def test_version_key_order(self):
        newer = version_key(1, 5, b"\x02")
        older = version_key(1, 3, b"\x02")
        assert newer < older  # descending ver#
        assert split_version_key(newer) == (1, 5, b"\x02")

    @pytest.fixture
    def store(self, pool):
        return VersionedXmlStore(pool, NameTable(), record_limit=64,
                                 retained_versions=3)

    def test_snapshot_isolation(self, store):
        v1 = store.commit_version_text(1, "<a>one</a>")
        snapshot = store.latest_version
        v2 = store.commit_version_text(1, "<a>two</a>")
        assert serialize(store.document_at(1, snapshot).events()) == \
            "<a>one</a>"
        assert serialize(store.document_latest(1).events()) == "<a>two</a>"
        assert v2 > v1

    def test_reader_sees_consistent_version_during_writes(self, store):
        store.commit_version_text(1, "<doc><n>1</n></doc>")
        snapshot = store.latest_version
        reader = store.document_at(1, snapshot)
        for n in range(2, 4):  # stay within the retention bound
            store.commit_version_text(1, f"<doc><n>{n}</n></doc>")
        # Deferred access: the reader's view still resolves (paper's claim).
        assert serialize(reader.events()) == "<doc><n>1</n></doc>"

    def test_garbage_collection_bounds_versions(self, store):
        for n in range(6):
            store.commit_version_text(1, f"<a>{n}</a>")
        assert store.version_count(1) == 3
        with pytest.raises(DocumentNotFoundError):
            store.document_at(1, 1)  # GC'd snapshot

    def test_multiple_documents(self, store):
        store.commit_version_text(1, "<a>doc1</a>")
        store.commit_version_text(2, "<b>doc2</b>")
        assert serialize(store.document_latest(2).events()) == "<b>doc2</b>"

    def test_missing_document(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.document_latest(404)

    def test_packed_documents_version_correctly(self, store):
        big = "<r>" + "".join(f"<i>{n}</i>" for n in range(30)) + "</r>"
        store.commit_version_text(1, big)
        snapshot = store.latest_version
        store.commit_version_text(1, big.replace("<i>0</i>", "<i>zero</i>"))
        assert "<i>0</i>" in serialize(store.document_at(1, snapshot).events())
        assert "<i>zero</i>" in serialize(store.document_latest(1).events())

    def test_refused_version_leaves_no_records(self, stats):
        store = VersionedXmlStore(
            BufferPool(Disk(page_size=256, stats=stats), 16), NameTable(),
            record_limit=64)
        good = "<doc>" + "<n>x</n>" * 6 + "</doc>"
        store.commit_version_text(1, good)
        records, entries = store.space.record_count, store.index.entry_count
        version = store.latest_version
        with pytest.raises(PageFullError):
            store.commit_version_text(1, f"<doc><n>{'Z' * 20_000}</n></doc>")
        assert (store.space.record_count, store.index.entry_count) == \
            (records, entries)
        assert store.latest_version == version
        assert serialize(store.document_latest(1).events()) == good


def node(docid, node_id):
    return node_resource("doc", docid, node_id)


class TestSubdocumentLocking:
    """Node-ID locks (§5.2) in the one lock manager: a lock on a node
    covers its subtree, so two conflict when one ID is a prefix of the
    other."""

    def test_prefix_overlap(self, stats):
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(7, b"\x02\x04"), LockMode.X)
        for overlapping in (b"\x02", b"\x02\x04", b"\x02\x04\x06"):
            assert not lm.try_acquire(2, node(7, overlapping), LockMode.X)
        assert lm.try_acquire(2, node(7, b"\x02\x02"), LockMode.X)
        assert stats.get("lock.prefix_tests") == 4

    def test_disjoint_subtrees_write_concurrently(self, stats):
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(7, b"\x02\x02"), LockMode.X)
        assert lm.try_acquire(2, node(7, b"\x02\x04"), LockMode.X)

    def test_ancestor_lock_blocks_descendant(self, stats):
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(7, b"\x02"), LockMode.X)
        assert not lm.try_acquire(2, node(7, b"\x02\x04\x02"), LockMode.X)
        assert lm.waits_for_edges() == {2: frozenset({1})}

    def test_descendant_lock_blocks_ancestor(self, stats):
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(7, b"\x02\x04"), LockMode.X)
        assert not lm.try_acquire(2, node(7, b"\x02"), LockMode.X)
        # The refused request leaves no empty entry behind.
        assert list(lm.lock_table()) == [node(7, b"\x02\x04")]

    def test_shared_locks_overlap(self, stats):
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(7, b"\x02"), LockMode.S)
        assert lm.try_acquire(2, node(7, b"\x02\x04"), LockMode.S)
        assert not lm.try_acquire(3, node(7, b"\x02\x04"), LockMode.X)

    def test_different_documents_never_conflict(self, stats):
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(1, b"\x02"), LockMode.X)
        assert lm.try_acquire(2, node(2, b"\x02"), LockMode.X)
        # Nor does a node lock conflict with the document's DocID lock.
        assert lm.try_acquire(3, doc_resource("doc", 1), LockMode.X)

    def test_release_unblocks(self, stats):
        lm = LockManager(stats)
        lm.try_acquire(1, node(7, b"\x02"), LockMode.X)
        lm.try_acquire(1, node(7, b"\x02\x04"), LockMode.X)
        lm.release_all(1)
        assert lm.lock_table() == {}
        assert lm.try_acquire(2, node(7, b"\x02\x02"), LockMode.X)

    def test_document_adapter_escalates(self, stats):
        """Document granularity is a node lock on the empty ID ``b""``, an
        ancestor of every node of the document."""
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(7, b""), LockMode.X)
        assert not lm.try_acquire(2, node(7, b"\x02\x04"), LockMode.X)
        assert not lm.try_acquire(3, node(7, b""), LockMode.S)

    def test_concurrency_gain_under_scheduler(self, stats):
        """E9b shape: disjoint-subtree writers under the two granularities."""
        subtrees = [bytes([2, 2 * i]) for i in range(1, 6)]

        def writer(node_id):
            def body(txn_id):
                yield Lock(node(1, node_id), LockMode.X)
                yield Do(lambda: None)
                yield Do(lambda: None)
            return body

        def run(lock_ids):
            programs = [(f"w{i}", writer(node_id))
                        for i, node_id in enumerate(lock_ids)]
            return Scheduler(LockManager(StatsRegistry()), seed=2).run(
                programs)

        fine = run(subtrees)
        coarse = run([b""] * len(subtrees))
        assert fine.committed == coarse.committed == 5
        assert fine.wait_steps < coarse.wait_steps

    def test_deadlock_detection(self, stats):
        lm = LockManager(stats)
        lm.try_acquire(1, node(1, b"\x02"), LockMode.X)
        lm.try_acquire(2, node(1, b"\x04"), LockMode.X)
        assert not lm.try_acquire(1, node(1, b"\x04\x02"), LockMode.X)
        assert not lm.try_acquire(2, node(1, b"\x02"), LockMode.X)
        cycle = lm.find_deadlock()
        assert cycle and set(cycle) == {1, 2}

    def test_deadlock_through_node_and_doc_locks(self, stats):
        """One waits-for graph: a cycle through a node lock and a DocID
        lock is found like any other."""
        lm = LockManager(stats)
        assert lm.try_acquire(1, node(1, b"\x02"), LockMode.X)
        assert lm.try_acquire(2, doc_resource("doc", 1), LockMode.X)
        assert not lm.try_acquire(1, doc_resource("doc", 1), LockMode.X)
        assert not lm.try_acquire(2, node(1, b"\x02\x02"), LockMode.X)
        cycle = lm.find_deadlock()
        assert cycle and set(cycle) == {1, 2}
