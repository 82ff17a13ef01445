"""E9b — subdocument multiple-granularity locking (§5.2).

Paper claims: multiple-granularity locking on prefix-encoded node IDs lets
transactions update disjoint subtrees of one document concurrently (ancestry
= prefix test), where document-level locking serializes them.  The bench
runs disjoint-subtree writer fleets under both granularities and one
conflicting (ancestor-writer) mix, comparing wait steps and makespan.  Both
granularities are node locks in the engine's one lock manager: document
level locks the empty node ID ``b""``, an ancestor of every node.
"""

from conftest import fresh_names, fresh_pool, print_table

from repro.cc.document import node_resource
from repro.cc.scheduler import Do, Lock, Scheduler
from repro.core.stats import StatsRegistry
from repro.rdb.locks import LockManager, LockMode
from repro.workload.generator import wide_document
from repro.xdm.events import EventKind
from repro.xmlstore.store import XmlStore
from repro.xmlstore.update import XmlUpdater

N_WRITERS = 8
WORK_STEPS = 3


def build_store():
    pool, _stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=256)
    store.insert_document_text(1, wide_document(N_WRITERS * 4, seed=8))
    return store


def subtree_targets(store):
    """One <row> subtree (and its text child) per writer."""
    events = list(store.document(1).events())
    rows = [e.node_id for e in events
            if e.kind is EventKind.ELEM_START and e.local == "row"]
    texts = {}
    for i, event in enumerate(events):
        if event.kind is EventKind.ELEM_START and event.local == "row":
            texts[event.node_id] = events[i + 2].node_id  # after @n attr
    step = max(1, len(rows) // N_WRITERS)
    chosen = rows[::step][:N_WRITERS]
    return [(node, texts[node]) for node in chosen]


def run(granularity: str, conflicting: bool = False):
    store = build_store()
    updater = XmlUpdater(store)
    targets = subtree_targets(store)
    locks = LockManager(StatsRegistry())

    def writer(subtree, text_id):
        lock_id = subtree if granularity == "subdocument" else b""

        def body(txn_id):
            yield Lock(node_resource("doc", 1, lock_id), LockMode.X)
            for k in range(WORK_STEPS):
                yield Do(lambda k=k: updater.replace_text(
                    1, text_id, f"updated by step {k}"))
        return body

    programs = [(f"w{i}", writer(subtree, text))
                for i, (subtree, text) in enumerate(targets)]
    if conflicting:
        root = b"\x02"  # whole-document writer forces serialization anyway

        def root_writer(txn_id):
            yield Lock(node_resource("doc", 1, root), LockMode.X)
            yield Do(lambda: None)
        programs.append(("root", root_writer))
    result = Scheduler(locks, seed=17).run(programs)
    return result, locks.stats.get("lock.prefix_tests")


def test_e9b_granularity(benchmark):
    fine, fine_tests = run("subdocument")
    coarse, _ = run("document")
    fine_conflict, _ = run("subdocument", conflicting=True)

    rows = [
        ["subdocument (node-ID MGL)", fine.committed, fine.wait_steps,
         fine.makespan, fine_tests],
        ["document-level", coarse.committed, coarse.wait_steps,
         coarse.makespan, "-"],
        ["subdocument + root writer", fine_conflict.committed,
         fine_conflict.wait_steps, fine_conflict.makespan, "-"],
    ]
    print_table(
        f"E9b: {N_WRITERS} disjoint-subtree writers on one document",
        ["granularity", "committed", "wait steps", "makespan",
         "prefix tests"],
        rows)

    # Shape: disjoint writers do not wait at subdocument granularity but
    # serialize at document granularity; a root-subtree writer conflicts
    # with everyone even at fine granularity (ancestry = prefix test).
    assert fine.wait_steps == 0
    assert coarse.wait_steps > 0
    assert fine.committed == coarse.committed == N_WRITERS
    assert fine_conflict.wait_steps > 0

    benchmark(lambda: run("subdocument"))
