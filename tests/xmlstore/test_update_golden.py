"""Subdocument updates, pinned as a golden file.

A seeded script runs ``replace_text``, ``delete_node``, ``insert_subtree``
(before, after and append) and ``child_ids`` over four documents at four
record limits.  ``update_golden.json`` holds, after every step, two sha256
digests: one over the document's NodeID-index entries and its records (RID
and bytes), and one over the same state with every RID replaced by the
record's position in clustering order.  For ``child_ids`` both are the sha256
of the returned IDs.  Any rewrite of :mod:`repro.xmlstore.update` must leave
byte-identical records and index entries.  A change to page placement alone
(a page header growing, say) moves RIDs and so the first digest, but must
leave the RID-free one as it was.  The script must also reach the four paths where an update drops,
reaches into or moves a record other than by a rewrite in place; the test
asserts each was taken.

Regenerate (only when the stored format or the page layout changes) with::

    PYTHONPATH=src python -m tests.xmlstore.test_update_golden

and check that the RID-free column did not move unless the records did.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.stats import StatsRegistry
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.workload.generator import (catalog_document, recursive_document,
                                      wide_document)
from repro.xdm import nodeid
from repro.xdm.events import EventKind
from repro.xdm.names import NameTable
from repro.xdm.parser import parse
from repro.xmlstore.store import XmlStore
from repro.xmlstore.update import XmlUpdater

GOLDEN = Path(__file__).with_name("update_golden.json")

NAMESPACED = (
    '<r xmlns="urn:d" xmlns:p="urn:p"><!--head--><?app start?>'
    + "".join(f'<p:item p:k="{i}" xmlns:q="urn:q{i % 3}"><q:v>text {i}</q:v>'
              f"<!--note {i}--><?tick {i}?></p:item>" for i in range(12))
    + "<!--tail--></r>")

DOCUMENTS = {
    "catalog": catalog_document(6, seed=5),
    "namespaces": NAMESPACED,
    "nest": recursive_document(60, leaf_text="deepest"),
    "wide": wide_document(40, seed=7),
}
LIMITS = [32, 64, 256, 4000]
STEPS = 25

FRAGMENTS = [
    "<new k='v'>fresh text</new>",
    "<m><n>inner</n><!--c--><?pi d?></m>",
    "<p:q xmlns:p='urn:x' p:a='1'>t</p:q>",
    "<pad>" + "y" * 90 + "</pad>",
]
_VALUED = (EventKind.TEXT, EventKind.ATTR, EventKind.COMMENT, EventKind.PI)
PATHS = ("cascade delete", "delete emptying a record",
         "insert into a packed-out sibling record", "replace moving a record")


def fragment(xml):
    return [e for e in parse(xml).events()
            if e.kind not in (EventKind.DOC_START, EventKind.DOC_END)]


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def state_digests(store, docid):
    """Every NodeID-index entry and every record of the document, digested
    once with RIDs and once with each RID replaced by its record's position
    in clustering order."""
    entries = list(store.node_index.entries_for_document(docid))
    rids = store.node_index.record_rids(docid)
    records = [store.read_record(rid) for rid in rids]
    position = {rid: i for i, rid in enumerate(rids)}
    with_rids = digest([(node_id, rid.to_bytes()) for node_id, rid in entries],
                       [(rid.to_bytes(), record)
                        for rid, record in zip(rids, records)])
    rid_free = digest([(node_id, position[rid]) for node_id, rid in entries],
                      records)
    return with_rids, rid_free


def run_script(name, limit, reached):
    """Run the seeded script; returns one ``[op, digest, rid_free_digest]``
    per step and adds the update paths it took to ``reached``."""
    pool = BufferPool(Disk(page_size=1024, stats=StatsRegistry()), 64)
    store = XmlStore(pool, NameTable(), record_limit=limit)
    store.insert_document_text(1, DOCUMENTS[name])
    updater = XmlUpdater(store)
    probe = store.node_index.probe
    rng = random.Random(f"{name}/{limit}")
    steps = []
    for _ in range(STEPS):
        events = [e for e in store.document(1).events()
                  if e.node_id not in (None, nodeid.ROOT_ID)]
        nodes = [e.node_id for e in events]
        elements = [e.node_id for e in events
                    if e.kind is EventKind.ELEM_START]
        valued = [e.node_id for e in events if e.kind in _VALUED]
        op = rng.choice(["replace", "replace", "insert", "insert",
                         "delete", "child_ids"])
        if op == "replace" and not valued or \
                op == "delete" and len(events) < 2:
            op = "insert"
        with store.stats.delta() as delta:
            if op == "replace":
                updater.replace_text(1, rng.choice(valued),
                                     "v" * rng.choice([0, 3, 40, 250]))
            elif op == "delete":
                # Never the document element: the root record keeps it.
                target = rng.choice(rng.choice([elements[1:] or nodes[1:],
                                                nodes[1:]]))
                rid = probe(1, target)
                updater.delete_node(1, target)
            elif op == "insert":
                parent = rng.choice(elements)
                children = set(updater.child_ids(1, parent))
                siblings = [e.node_id for e in events
                            if e.kind not in (EventKind.ATTR, EventKind.NS)
                            and e.node_id in children]
                mode = rng.choice(["before", "after", "append"]) \
                    if siblings else "append"
                anchor = {mode: rng.choice(siblings)} \
                    if mode != "append" else {}
                new_id = updater.insert_subtree(
                    1, parent, fragment(rng.choice(FRAGMENTS)), **anchor)
            else:
                parent = rng.choice(elements + [nodeid.ROOT_ID])
                ids = digest(updater.child_ids(1, parent))
                steps.append(["child_ids", ids, ids])
        if op == "replace" and delta.get("ts.records_inserted", 0):
            reached.add("replace moving a record")
        elif op == "delete":
            emptied = rid not in store.node_index.record_rids(1)
            if emptied:
                reached.add("delete emptying a record")
            if delta.get("ts.records_deleted", 0) > emptied:
                reached.add("cascade delete")
        elif op == "insert":
            if probe(1, new_id) != probe(1, parent):
                reached.add("insert into a packed-out sibling record")
            op = f"insert {mode}"
        steps.append([op, *state_digests(store, 1)])
    pool.assert_unpinned()
    return steps


def generate():
    reached = set()
    runs = {f"{name}/{limit}": run_script(name, limit, reached)
            for name in DOCUMENTS for limit in LIMITS}
    return runs, reached


@pytest.fixture(scope="module")
def script():
    return generate()


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_records_and_index_entries_match(script, name, limit):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{name}/{limit}"]
    steps = script[0][f"{name}/{limit}"]
    # The RID-free column first: a mismatch there means the records or the
    # entries changed, not just where the pages put them.
    assert [(op, free) for op, _, free in steps] == \
        [(op, free) for op, _, free in golden]
    assert steps == golden


def test_script_reaches_every_multi_record_path(script):
    assert set(PATHS) <= script[1]


if __name__ == "__main__":
    runs, paths = generate()
    missing = set(PATHS) - paths
    if missing:
        raise SystemExit(f"the script misses {sorted(missing)}")
    GOLDEN.write_text(json.dumps(runs, indent=0) + "\n", encoding="utf-8")
