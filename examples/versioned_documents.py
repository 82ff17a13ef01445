"""Concurrency on XML documents: MVCC snapshots and subtree locks (§5).

Shows the two §5 designs working together: document-level multiversioning
(readers never block, deferred access resolves against the snapshot) and
node-ID multiple-granularity locking (disjoint subtrees update concurrently;
ancestry conflicts detected by prefix test).

Run:  python examples/versioned_documents.py
"""

from repro.cc.document import node_resource
from repro.cc.mvcc import VersionedXmlStore
from repro.core.stats import StatsRegistry
from repro.rdb.buffer import BufferPool
from repro.rdb.locks import LockManager, LockMode
from repro.rdb.storage import Disk
from repro.xdm.names import NameTable
from repro.xdm.nodeid import is_ancestor_or_self
from repro.xdm.serializer import serialize

store = VersionedXmlStore(
    BufferPool(Disk(4096, stats=StatsRegistry()), 128), NameTable(),
    record_limit=256, retained_versions=4)

# A writer installs version 1; a reader pins its snapshot.
store.commit_version_text(1, "<wiki><page>draft</page></wiki>")
reader_snapshot = store.latest_version
reader_view = store.document_at(1, reader_snapshot)

# More writes arrive; the reader is never blocked and never sees them.
store.commit_version_text(1, "<wiki><page>edited</page></wiki>")
store.commit_version_text(1, "<wiki><page>published</page></wiki>")

print("reader's snapshot :", serialize(reader_view.events()))
print("latest version    :", serialize(store.document_latest(1).events()))
print("versions retained :", store.version_count(1))
print("NodeID index keys carry (DocID, ver#, NodeID) with ver# descending,")
print("so the reader's deferred access stayed consistent (§5.1).\n")

# Subdocument locking: two sessions edit disjoint subtrees of one document.
# Node locks live in the engine's one lock manager beside table, row and
# DocID locks; two conflict when one node ID is a prefix of the other.
locks = LockManager(StatsRegistry())
section_a = node_resource("doc", 1, b"\x02\x02")   # /wiki/page[1]
section_b = node_resource("doc", 1, b"\x02\x04")   # /wiki/page[2]
whole_doc = node_resource("doc", 1, b"\x02")


def overlap(a, b):
    return is_ancestor_or_self(a[3], b[3]) or is_ancestor_or_self(b[3], a[3])


print("txn 100 locks section A   ->",
      locks.try_acquire(100, section_a, LockMode.X))
print("txn 200 locks section B   ->",
      locks.try_acquire(200, section_b, LockMode.X))
print("txn 300 locks whole doc   ->",
      locks.try_acquire(300, whole_doc, LockMode.X),
      "(blocked: ancestor of both, by prefix test)")
print("prefix checks: A vs B overlap?", overlap(section_a, section_b),
      "| doc vs A overlap?", overlap(whole_doc, section_a))
locks.release_all(100)
locks.release_all(200)
print("after A and B commit, txn 300 retries ->",
      locks.try_acquire(300, whole_doc, LockMode.X))
