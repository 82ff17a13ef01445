"""Tests for subdocument updates (record splicing) and the shredded baseline."""

import pytest

from repro.errors import XmlError
from repro.xdm import nodeid
from repro.xdm.events import EventKind, build_tree
from repro.xdm.parser import parse
from repro.xdm.serializer import serialize
from repro.xmlstore.shred import ShreddedStore
from repro.xmlstore.update import XmlUpdater


def node_id_of(store, docid, local, occurrence=0):
    hits = [e.node_id for e in store.document(docid).events()
            if e.kind is EventKind.ELEM_START and e.local == local]
    return hits[occurrence]


def text_id_under(store, docid, local):
    events = list(store.document(docid).events())
    for i, event in enumerate(events):
        if event.kind is EventKind.ELEM_START and event.local == local:
            return events[i + 1].node_id
    raise AssertionError(f"no text under {local}")


class TestReplaceText:
    def test_replace_in_single_record(self, big_store, catalog_xml):
        big_store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(big_store)
        target = text_id_under(big_store, 1, "ProductName")
        updater.replace_text(1, target, "SuperWidget")
        assert "SuperWidget" in serialize(big_store.document(1).events())

    def test_replace_in_packed_records(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        target = text_id_under(store, 1, "RegPrice")
        updater.replace_text(1, target, "999")
        out = serialize(store.document(1).events())
        assert "<RegPrice>999</RegPrice>" in out
        assert "120.5" not in out

    def test_replace_attribute_value(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        attr = next(e.node_id for e in store.document(1).events()
                    if e.kind is EventKind.ATTR)
        updater.replace_text(1, attr, "p1-new")
        assert 'id="p1-new"' in serialize(store.document(1).events())

    def test_replace_wrong_kind_rejected(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        elem = node_id_of(store, 1, "Product")
        with pytest.raises(XmlError):
            updater.replace_text(1, elem, "nope")

    def test_grown_record_remains_consistent(self, store, catalog_xml):
        """A large new value can relocate the record; index must follow."""
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        target = text_id_under(store, 1, "ProductName")
        updater.replace_text(1, target, "X" * 500)
        out = serialize(store.document(1).events())
        assert "X" * 500 in out
        # All nodes still reachable by id.
        doc = store.document(1)
        for event in doc.events():
            if event.node_id not in (None, nodeid.ROOT_ID):
                doc.find_node(event.node_id)


class TestDeleteNode:
    def test_delete_leaf(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        XmlUpdater(store).delete_node(1, node_id_of(store, 1, "Discount", 1))
        out = serialize(store.document(1).events())
        assert out.count("<Discount>") == 1

    def test_delete_subtree_cascades_records(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        before = store.space.record_count
        XmlUpdater(store).delete_node(1, node_id_of(store, 1, "Product", 0))
        out = serialize(store.document(1).events())
        assert "Widget" not in out
        assert "Gadget" in out
        assert store.space.record_count <= before

    def test_delete_then_ids_still_consistent(self, store):
        xml = "<r>" + "".join(f"<i>{n}</i>" for n in range(30)) + "</r>"
        store.insert_document_text(1, xml)
        updater = XmlUpdater(store)
        victim = node_id_of(store, 1, "i", 10)
        updater.delete_node(1, victim)
        doc = store.document(1)
        remaining = [e.node_id for e in doc.events()
                     if e.kind is EventKind.ELEM_START and e.local == "i"]
        assert len(remaining) == 29
        assert victim not in remaining
        for abs_id in remaining:
            doc.find_node(abs_id)


class TestInsertSubtree:
    def fragment(self, xml):
        return [e for e in parse(xml).events()
                if e.kind not in (EventKind.DOC_START, EventKind.DOC_END)]

    def test_append_child(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        categories = node_id_of(store, 1, "Categories")
        new_id = updater.insert_subtree(
            1, categories, self.fragment("<Product id='p3'><ProductName>Nut"
                                         "</ProductName></Product>"))
        out = serialize(store.document(1).events())
        assert out.count("<Product ") == 3
        assert out.index("Nut") > out.index("Gadget")  # appended at the end
        store.document(1).find_node(new_id)

    def test_insert_before(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        categories = node_id_of(store, 1, "Categories")
        first_product = node_id_of(store, 1, "Product", 0)
        updater.insert_subtree(1, categories,
                               self.fragment("<Product id='p0'/>"),
                               before=first_product)
        out = serialize(store.document(1).events())
        assert out.index('id="p0"') < out.index('id="p1"')

    def test_insert_after_middle(self, store):
        xml = "<r><i>0</i><i>1</i><i>2</i></r>"
        store.insert_document_text(1, xml)
        updater = XmlUpdater(store)
        root = node_id_of(store, 1, "r")
        middle = node_id_of(store, 1, "i", 1)
        updater.insert_subtree(1, root, self.fragment("<i>new</i>"),
                               after=middle)
        tree = build_tree(store.document(1).events())
        texts = [e.string_value() for e in tree.document_element().elements()]
        assert texts == ["0", "1", "new", "2"]

    def test_existing_ids_stable_after_insert(self, store):
        """§3.1: node IDs are stable upon update of the tree."""
        xml = "<r><i>0</i><i>1</i></r>"
        store.insert_document_text(1, xml)
        ids_before = {e.node_id for e in store.document(1).events()
                      if e.node_id is not None}
        updater = XmlUpdater(store)
        root = node_id_of(store, 1, "r")
        first = node_id_of(store, 1, "i", 0)
        updater.insert_subtree(1, root, self.fragment("<i>mid</i>"),
                               after=first)
        ids_after = {e.node_id for e in store.document(1).events()
                     if e.node_id is not None}
        assert ids_before <= ids_after  # old ids unchanged
        assert len(ids_after) == len(ids_before) + 2  # element + text

    def test_repeated_inserts_at_same_position(self, store):
        store.insert_document_text(1, "<r><a>L</a><b>R</b></r>")
        updater = XmlUpdater(store)
        root = node_id_of(store, 1, "r")
        anchor = node_id_of(store, 1, "b")
        for n in range(10):
            updater.insert_subtree(1, root, self.fragment(f"<m>{n}</m>"),
                                   before=anchor)
        tree = build_tree(store.document(1).events())
        texts = [e.string_value() for e in tree.document_element().elements()]
        assert texts == ["L"] + [str(n) for n in range(10)] + ["R"]

    def test_both_positions_rejected(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        root = node_id_of(store, 1, "Catalog")
        with pytest.raises(XmlError):
            updater.insert_subtree(1, root, self.fragment("<x/>"),
                                   before=b"\x02", after=b"\x02")

    def test_child_ids_in_document_order(self, store, catalog_xml):
        store.insert_document_text(1, catalog_xml)
        updater = XmlUpdater(store)
        categories = node_id_of(store, 1, "Categories")
        ids = updater.child_ids(1, categories)
        assert ids == sorted(ids)
        assert len(ids) == 2  # the two Product elements


class TestShreddedStore:
    @pytest.fixture
    def shred(self, pool, names):
        return ShreddedStore(pool, names)

    def test_roundtrip(self, shred, catalog_xml):
        rows = shred.insert_document_events(1, parse(catalog_xml).events())
        assert rows == 18
        assert serialize(shred.document_events(1)) == catalog_xml

    def test_one_row_per_node(self, shred, catalog_xml):
        shred.insert_document_events(1, parse(catalog_xml).events())
        footprint = shred.storage_footprint()
        assert footprint["record_count"] == 18
        assert footprint["nodeid_index_entries"] == 18

    def test_replace_text(self, shred, catalog_xml):
        shred.insert_document_events(1, parse(catalog_xml).events())
        target = next(e.node_id for e in shred.document_events(1)
                      if e.kind is EventKind.TEXT and e.value == "Widget")
        shred.replace_text(1, target, "Sprocket")
        assert "Sprocket" in serialize(shred.document_events(1))

    def test_missing_document(self, shred):
        from repro.errors import DocumentNotFoundError
        with pytest.raises(DocumentNotFoundError):
            list(shred.document_events(9))

    def test_multiple_documents(self, shred):
        shred.insert_document_events(1, parse("<a>x</a>").events())
        shred.insert_document_events(2, parse("<b>y</b>").events())
        assert serialize(shred.document_events(1)) == "<a>x</a>"
        assert serialize(shred.document_events(2)) == "<b>y</b>"

    def test_traversal_cost_is_per_node(self, pool, names, stats, catalog_xml):
        """The shredded store pays one record fetch per node (§3.1)."""
        shred = ShreddedStore(pool, names)
        shred.insert_document_events(1, parse(catalog_xml).events())
        with stats.delta() as delta:
            list(shred.document_events(1))
        assert delta.get("ts.records_read", 0) == 18
