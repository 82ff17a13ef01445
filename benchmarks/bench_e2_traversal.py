"""E2 — full-document traversal cost vs packing factor (§3.1).

Paper claim: traversing a k-node tree costs (k-1)·t with one row per node
(one "join" — index probe + record fetch — per node) but only ≈ k·t/p with p
nodes per record; "the ratio is approximately 1/p".  Record fetches stand in
for t; the bench sweeps p and reports the measured fetch ratio against 1/p.
"""

from collections import Counter

from conftest import fresh_names, fresh_pool, print_table

from repro.workload.generator import wide_document
from repro.xdm.parser import parse
from repro.xmlstore.shred import ShreddedStore
from repro.xmlstore.store import XmlStore

DOC = wide_document(n_children=400, payload_words=4, seed=11)
LIMITS = [96, 256, 1024, 4000]


def build_packed(limit):
    pool, stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=limit)
    info = store.insert_document_text(1, DOC)
    return store, stats, info


def traverse(store):
    return sum(1 for _ in store.document(1).events())


def test_e2_traversal_ratio(benchmark):
    pool, shred_stats = fresh_pool()
    shred = ShreddedStore(pool, fresh_names())
    k = shred.insert_document_events(1, parse(DOC).events())
    with shred_stats.charge(shred_delta := Counter()):
        sum(1 for _ in shred.document_events(1))
    shred_fetches = shred_delta.get("ts.records_read", 0)

    rows = []
    for limit in LIMITS:
        store, stats, info = build_packed(limit)
        p = info.node_count / info.record_count
        with stats.charge(delta := Counter()):
            traverse(store)
        fetches = delta.get("ts.records_read", 0)
        ratio = fetches / shred_fetches
        rows.append([limit, f"{p:.1f}", fetches, shred_fetches,
                     f"{ratio:.4f}", f"{1 / p:.4f}"])
    print_table(
        f"E2: traversal record fetches, packed vs one-node-per-row (k={k})",
        ["limit", "p", "packed fetches", "shred fetches",
         "measured ratio", "paper 1/p"],
        rows)

    # Shape: ratio tracks 1/p within a factor of ~2 (proxy re-probes).
    for limit in LIMITS:
        store, stats, info = build_packed(limit)
        p = info.node_count / info.record_count
        with stats.charge(delta := Counter()):
            traverse(store)
        ratio = delta.get("ts.records_read", 0) / shred_fetches
        assert ratio <= 2.5 / p

    store, _stats, _info = build_packed(1024)
    benchmark(lambda: traverse(store))
