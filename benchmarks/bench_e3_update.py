"""E3 — single-node update cost vs packing factor (§3.1).

Paper claim: "To update one single node, under the one row per node scheme,
we only need to touch storage of one record, with size of n, while in the
packed tree scheme, we will touch storage of p·n" — plus correspondingly
larger log volume.  The bench updates one text node and reports bytes
touched and WAL bytes under both schemes, sweeping the packing factor.
"""

from collections import Counter

from conftest import fresh_names, fresh_pool, print_table

from repro.rdb.wal import LogManager, LogOp
from repro.workload.generator import wide_document
from repro.xdm.events import EventKind
from repro.xdm.parser import parse
from repro.xmlstore.shred import ShreddedStore
from repro.xmlstore.store import XmlStore
from repro.xmlstore.update import XmlUpdater

DOC = wide_document(n_children=300, payload_words=4, seed=3)
LIMITS = [96, 256, 1024, 4000]


def target_text_id(events):
    events = list(events)
    for i, event in enumerate(events):
        if event.kind is EventKind.ELEM_START and event.local == "row":
            return events[i + 1].node_id
    raise AssertionError


def packed_update_cost(limit):
    pool, stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=limit)
    info = store.insert_document_text(1, DOC)
    target = target_text_id(store.document(1).events())
    updater = XmlUpdater(store)
    log = LogManager(stats)
    with stats.charge(delta := Counter()):
        updater.replace_text(1, target, "updated text value")
        # Log what a real engine would harden: the new record image.
        record, _entry, _parent = store.document(1).find_node(target)
        log.append(1, LogOp.UPDATE, "xmlts", bytes(record))
    p = info.node_count / info.record_count
    return p, delta.get("ts.bytes_touched", 0), log.bytes_written


def test_e3_update_bytes(benchmark):
    pool, stats = fresh_pool()
    shred = ShreddedStore(pool, fresh_names())
    shred.insert_document_events(1, parse(DOC).events())
    target = target_text_id(shred.document_events(1))
    log = LogManager(stats)
    with stats.charge(shred_delta := Counter()):
        shred.replace_text(1, target, "updated text value")
        log.append(1, LogOp.UPDATE, "shredts", b"x" * 40)  # one small row
    shred_bytes = shred_delta.get("ts.bytes_touched", 0)

    rows = []
    for limit in LIMITS:
        p, touched, wal = packed_update_cost(limit)
        rows.append([limit, f"{p:.1f}", touched, wal, shred_bytes,
                     f"{touched / max(shred_bytes, 1):.1f}x"])
    print_table(
        "E3: bytes touched by one single-node update",
        ["limit", "p", "packed bytes", "packed WAL B",
         "shred bytes", "packed/shred"],
        rows)

    # Shape: packed touch cost grows with the record limit (∝ p·n) and
    # always exceeds the per-node baseline.
    touched = [packed_update_cost(limit)[1] for limit in LIMITS]
    assert touched[0] < touched[-1]
    assert all(t > shred_bytes for t in touched)

    pool2, _ = fresh_pool()
    store = XmlStore(pool2, fresh_names(), record_limit=1024)
    store.insert_document_text(1, DOC)
    updater = XmlUpdater(store)
    target2 = target_text_id(store.document(1).events())
    benchmark(lambda: updater.replace_text(1, target2, "bench value"))
