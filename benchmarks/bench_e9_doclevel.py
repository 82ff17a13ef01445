"""E9a — document-level locking vs multiversioning (§5.1).

Paper claims: under lock-based document-level concurrency writers block
readers (and DocID locks are required for direct index access); with
multiversioning readers never block — "more efficient for mostly read
workload" — and a reader's deferred access resolves against its snapshot.
The bench runs the same read-mostly workload under both protocols through
the deterministic scheduler and compares wait steps and makespan.
"""

from conftest import fresh_names, fresh_pool, print_table

from repro.cc.document import doc_resource
from repro.cc.mvcc import VersionedXmlStore
from repro.cc.scheduler import Do, Lock, Scheduler
from repro.core.stats import StatsRegistry
from repro.rdb.locks import LockManager, LockMode
from repro.workload.generator import catalog_document

N_READERS = 12
N_WRITES = 4
DOC = catalog_document(6, seed=4)


def locking_workload():
    """Readers take DocID S locks; one writer repeatedly takes X locks."""
    locks = LockManager(StatsRegistry())
    reads_done = []

    def reader(txn_id):
        yield Lock(doc_resource("doc", 1), LockMode.S)
        yield Do(lambda: reads_done.append(txn_id))
        yield Do(lambda: None)  # read work

    def writer(txn_id):
        for _ in range(N_WRITES):
            yield Lock(doc_resource("doc", 1), LockMode.X)
            yield Do(lambda: None)  # update work
        # locks held to commit (strict 2PL)

    programs = [(f"r{i}", reader) for i in range(N_READERS)]
    programs.insert(0, ("w", writer))
    result = Scheduler(locks, seed=42).run(programs)
    return result, len(reads_done)


def mvcc_workload():
    """Readers read their snapshot without any locks; the writer installs
    new versions."""
    pool, _stats = fresh_pool()
    store = VersionedXmlStore(pool, fresh_names(), record_limit=512,
                              retained_versions=N_WRITES + 2)
    store.commit_version_text(1, DOC)
    locks = LockManager(StatsRegistry())  # unused by readers
    reads_done = []

    def reader(txn_id):
        snapshot = store.latest_version

        def read():
            count = sum(1 for _ in store.document_at(1, snapshot).events())
            reads_done.append(count)
        yield Do(read)
        yield Do(lambda: None)

    def writer(txn_id):
        for n in range(N_WRITES):
            yield Do(lambda n=n: store.commit_version_text(
                1, DOC.replace("</Catalog>",
                               f"<rev>{n}</rev></Catalog>")))

    programs = [(f"r{i}", reader) for i in range(N_READERS)]
    programs.insert(0, ("w", writer))
    result = Scheduler(locks, seed=42).run(programs)
    return result, len(reads_done)


def test_e9a_locking_vs_mvcc(benchmark):
    lock_result, lock_reads = locking_workload()
    mvcc_result, mvcc_reads = mvcc_workload()
    assert lock_reads == mvcc_reads == N_READERS

    rows = [
        ["document locks", lock_result.committed, lock_result.wait_steps,
         lock_result.makespan],
        ["multiversioning", mvcc_result.committed, mvcc_result.wait_steps,
         mvcc_result.makespan],
    ]
    print_table(
        f"E9a: read-mostly workload ({N_READERS} readers, 1 writer x "
        f"{N_WRITES} updates)",
        ["protocol", "committed", "reader wait steps", "makespan"],
        rows)

    # Shape: readers never block under MVCC; they do under locking.
    assert mvcc_result.wait_steps == 0
    assert lock_result.wait_steps > 0
    assert mvcc_result.makespan <= lock_result.makespan

    benchmark(lambda: mvcc_workload())
