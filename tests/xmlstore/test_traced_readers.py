"""The benchmark's tracer still finds the stored-document readers.

``bench/trace.py`` wraps entry points by name (``vars(owner)[name]``), and
generator entry points are pulled with ``next()``.  A reader that is
renamed, or that stops returning an iterator, breaks only the traced
benchmark run, which never iterates these readers; here they are pulled
under an installed tracer on a document split into several records.
"""

from bench.trace import Tracer

from repro.core.stats import StatsRegistry
from repro.indexes import keygen
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.workload.generator import catalog_document
from repro.xdm.events import EventKind
from repro.xdm.names import NameTable
from repro.xmlstore.store import XmlStore
from repro.xmlstore.traversal import StoredDocument

READERS = ("StoredDocument.events", "StoredDocument.node_events",
           "StoredDocument.node_string_value", "record_local_events")


def test_tracer_records_the_readers():
    pool = BufferPool(Disk(page_size=1024, stats=StatsRegistry()), 64)
    store = XmlStore(pool, NameTable(), record_limit=128)
    store.insert_document_text(1, catalog_document(6, seed=1))
    rids = store.node_index.record_rids(1)
    assert len(rids) > 1
    originals = {name: vars(StoredDocument)[name]
                 for name in ("events", "node_events", "node_string_value")}

    tracer = Tracer()
    tracer.install()
    try:
        reader = store.document(1)
        events = list(reader.events())
        product = next(e.node_id for e in events
                       if e.kind is EventKind.ELEM_START
                       and e.local == "Product")
        assert list(reader.node_events(product))
        assert reader.node_string_value(product)
        for rid in rids:
            assert list(keygen.record_local_events(store.read_record(rid),
                                                   store.names))
    finally:
        tracer.uninstall()

    summary = tracer.summary({0})
    assert summary["spans"] > 0
    for name in READERS:
        assert summary["entry_calls"].get(name, 0) > 0, name
    for name in ("StoredDocument.events", "StoredDocument.node_events",
                 "record_local_events"):
        assert summary["entry_items"].get(name, 0) > 0, name
    assert {name: vars(StoredDocument)[name] for name in originals} == \
        originals
