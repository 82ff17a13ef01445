"""Tests for XmlStore insertion, the NodeID index, and stored traversal."""

from collections import Counter

import pytest

from repro.errors import DocumentNotFoundError, PackingError
from repro.xdm import nodeid
from repro.xdm.events import EventKind, build_tree
from repro.xdm.nodes import node_count
from repro.xdm.parser import parse
from repro.xdm.serializer import serialize
from repro.xmlstore.node_index import NodeIdIndex, index_key, split_key
from repro.xmlstore.traversal import EventSink


class TestNodeIdIndexKeys:
    def test_key_roundtrip(self):
        key = index_key(42, b"\x02\x04")
        assert split_key(key) == (42, b"\x02\x04")

    def test_key_order_docid_major(self):
        assert index_key(1, b"\xfe") < index_key(2, b"\x02")
        assert index_key(1, b"\x02") < index_key(1, b"\x04")


class TestInsertAndTraverse:
    def test_roundtrip_small(self, big_store, catalog_xml):
        info = big_store.insert_document_text(1, catalog_xml)
        assert info.record_count == 1
        out = serialize(big_store.document(1).events())
        assert out == catalog_xml

    def test_roundtrip_packed(self, store, catalog_xml):
        """With a 128-byte limit the catalog splits into several records."""
        info = store.insert_document_text(1, catalog_xml)
        assert info.record_count > 1
        out = serialize(store.document(1).events())
        assert out == catalog_xml

    def test_roundtrip_deep_document(self, store):
        xml = "<a>" * 1 + "".join(f"<l{i}>" for i in range(60)) + "deep" + \
            "".join(f"</l{59 - i}>" for i in range(60)) + "</a>"
        store.insert_document_text(2, xml)
        assert serialize(store.document(2).events()) == xml

    def test_roundtrip_namespaces(self, store):
        xml = ('<c xmlns="urn:a" xmlns:p="urn:b">'
               + "<p:item key=\"1\">v</p:item>" * 20 + "</c>")
        store.insert_document_text(3, xml)
        tree = build_tree(store.document(3).events())
        root = tree.document_element()
        assert root.uri == "urn:a"
        assert all(e.uri == "urn:b" for e in root.elements())

    def test_node_count_preserved(self, store, catalog_xml):
        info = store.insert_document_text(1, catalog_xml)
        tree = build_tree(store.document(1).events())
        assert node_count(tree) == info.node_count + 1  # + document node

    def test_duplicate_docid_rejected(self, store):
        store.insert_document_text(1, "<a/>")
        with pytest.raises(DocumentNotFoundError):
            store.insert_document_text(1, "<b/>")

    def test_missing_document(self, store):
        with pytest.raises(DocumentNotFoundError):
            list(store.document(99).events())

    def test_multiple_documents_isolated(self, store):
        store.insert_document_text(1, "<a>one</a>")
        store.insert_document_text(2, "<b>two</b>")
        assert serialize(store.document(1).events()) == "<a>one</a>"
        assert serialize(store.document(2).events()) == "<b>two</b>"
        assert store.document_count == 2

    def test_clustering_order(self, store):
        """Records of one document land in (DocID, minNodeID) order (§3.1)."""
        xml = "<root>" + "<x>clustered record data</x>" * 60 + "</root>"
        store.insert_document_text(1, xml)
        rids = store.node_index.record_rids(1)
        pages = [rid.page_id for rid in rids]
        # record_rids follows index (minNodeID) order; physical page order
        # must match because inserts were clustered.
        assert pages == sorted(pages)


class TestPointAccess:
    def test_find_node_by_id(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        doc = store.document(1)
        # Find every node by its own id.
        ids = [e.node_id for e in doc.events() if e.node_id is not None]
        for abs_id in ids:
            if abs_id == nodeid.ROOT_ID:
                continue
            _record, entry, parent = doc.find_node(abs_id)
            assert parent + entry.rel_id == abs_id

    def test_find_missing_node(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        with pytest.raises(DocumentNotFoundError):
            store.document(1).find_node(b"\xfe\xfe")

    def test_node_events_subtree(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        doc = store.document(1)
        products = [e.node_id for e in doc.events()
                    if e.kind is EventKind.ELEM_START and e.local == "Product"]
        assert len(products) == 2
        events = list(doc.node_events(products[0]))
        assert events[0].local == "Product"
        locals_in_subtree = {e.local for e in events
                             if e.kind is EventKind.ELEM_START}
        assert locals_in_subtree == {"Product", "ProductName", "RegPrice",
                                     "Discount"}

    def test_node_string_value(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        doc = store.document(1)
        names = [e.node_id for e in doc.events()
                 if e.kind is EventKind.ELEM_START and e.local == "ProductName"]
        assert doc.node_string_value(names[0]) == "Widget"
        assert doc.node_string_value(names[1]) == "Gadget"

    def test_attribute_value_by_id(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        doc = store.document(1)
        attrs = [e for e in doc.events() if e.kind is EventKind.ATTR]
        assert doc.node_string_value(attrs[0].node_id) == "p1"

    def test_ancestry_from_header(self, store, catalog_xml):
        """Self-containment: ancestors known without touching other records."""
        store.insert_document_text(1, catalog_xml)
        doc = store.document(1)
        price = next(e.node_id for e in doc.events()
                     if e.kind is EventKind.ELEM_START and e.local == "RegPrice")
        path = [local for local, _uri in doc.ancestry(price)]
        assert path == ["Catalog", "Categories", "Product"]

    def test_in_scope_namespaces(self, store):
        xml = ('<c xmlns:p="urn:b">' + "<p:item>some text here</p:item>" * 30
               + "</c>")
        store.insert_document_text(1, xml)
        doc = store.document(1)
        item = next(e.node_id for e in doc.events()
                    if e.kind is EventKind.ELEM_START and e.local == "item")
        assert doc.in_scope_namespaces(item).get("p") == "urn:b"


class TestWholeDocumentRead:
    """A whole document is one NodeID-index range read: the root record is
    its first entry and every proxy resolves within the range."""

    def test_reads_each_record_once_and_probes_nothing(self, store, stats,
                                                       catalog_xml):
        store.insert_document_text(1, catalog_xml)
        store.insert_document_text(2, "<a>other</a>")
        records = len(store.node_index.record_rids(1))
        assert records > 2
        with stats.charge(delta := Counter()):
            text = store.document(1).serialize()
        assert text == catalog_xml
        assert delta["ts.records_read"] == records
        assert delta["btree.searches"] == 0

    def test_scan_documents_equals_per_document_reads(self, store,
                                                      catalog_xml):
        for docid in (1, 3, 4, 9):
            store.insert_document_text(
                docid, catalog_xml.replace("Widget", f"W{docid}"))
        store.delete_document(4)
        scanned = []
        for docid, source in store.scan_documents():
            events: list = []
            source.drive(EventSink(events.append))
            scanned.append((docid, events))
        assert scanned == [(docid, list(store.document(docid).events())[1:-1])
                           for docid in (1, 3, 9)]

    def test_dangling_proxy_raises(self, store):
        """Entries lost from the last proxied record on: its proxy runs
        off the end of the document's range, as a probe would."""
        store.insert_document_text(
            1, "<a>" + "<c>many words of text</c>" * 4
            + "<d>a long run of text that fills a record</d></a>")
        entries = list(store.node_index.entries_for_document(1))
        root = entries[0][1]
        last = max(at for at, (_, rid) in enumerate(entries) if rid != root)
        for high, rid in entries[last:]:
            store.node_index.tree.delete(index_key(1, high), rid.to_bytes())
        with pytest.raises(PackingError, match="dangling proxy"):
            store.document(1).serialize()


class TestDelete:
    def test_delete_document(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        dropped = store.delete_document(1)
        assert dropped >= 1
        assert not store.document_exists(1)
        assert store.node_index.entry_count == 0
        assert store.space.record_count == 0

    def test_delete_missing(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.delete_document(5)

    def test_delete_one_of_many(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        store.insert_document_text(2, catalog_xml)
        store.delete_document(1)
        assert not store.document_exists(1)
        assert serialize(store.document(2).events()) == catalog_xml


class TestObservers:
    def test_observer_callbacks(self, store, catalog_xml):
        from repro.xmlstore.store import record_observer
        added, removed = [], []
        store.observers.append(record_observer(
            lambda d, rec, rid: added.append((d, rid)),
            lambda d, rec, rid: removed.append((d, rid))))
        info = store.insert_document_text(1, catalog_xml)
        assert len(added) == info.record_count
        store.delete_document(1)
        assert sorted(removed) == sorted(added)


class TestStorageFootprint:
    def test_footprint_fields(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        footprint = store.storage_footprint()
        assert footprint["record_count"] >= 1
        assert footprint["nodeid_index_entries"] >= 1
        assert footprint["data_bytes"] > 0

    def test_packed_fewer_index_entries_than_shred(self, pool, names,
                                                   catalog_xml):
        from repro.xmlstore.shred import ShreddedStore
        from repro.xmlstore.store import XmlStore
        packed = XmlStore(pool, names, record_limit=512, name="p")
        shred = ShreddedStore(pool, names)
        packed.insert_document_text(1, catalog_xml)
        shred.insert_document_events(1, parse(catalog_xml).events())
        assert packed.storage_footprint()["nodeid_index_entries"] < \
            shred.storage_footprint()["nodeid_index_entries"]
