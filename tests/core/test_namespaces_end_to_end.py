"""Namespace handling across the full stack: parse → pack → store →
traverse → query → serialize."""

from repro.core.engine import Database
from repro.xdm.events import build_tree
from repro.xdm.parser import parse
from repro.xdm.serializer import serialize

DOC = ('<cat:catalog xmlns:cat="urn:catalog" xmlns="urn:default">'
       '<cat:product code="1"><name>Widget</name></cat:product>'
       '<cat:product code="2"><name>Gadget</name></cat:product>'
       '</cat:catalog>')


class TestNamespaceRoundtrips:
    def test_default_ns_undeclaration(self):
        text = '<a xmlns="urn:u"><b xmlns=""><c/></b></a>'
        tree = build_tree(parse(text))
        root = tree.document_element()
        inner = root.elements()[0]
        assert root.uri == "urn:u"
        assert inner.uri == ""
        assert inner.elements()[0].uri == ""
        # Roundtrip through the serializer preserves the undeclaration.
        again = build_tree(parse(serialize(tree)))
        assert again.document_element().elements()[0].uri == ""

    def test_storage_roundtrip_preserves_uris(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.insert("t", (DOC,))
        stored = db.get_document("t", "doc", 1)
        tree = build_tree(parse(stored))
        root = tree.document_element()
        assert root.uri == "urn:catalog"
        assert all(p.uri == "urn:catalog" for p in root.elements())
        assert all(p.elements()[0].uri == "urn:default"
                   for p in root.elements())

    def test_namespaced_xpath_query(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.insert("t", (DOC,))
        hits = db.xpath("t", "doc", "/c:catalog/c:product",
                        namespaces={"c": "urn:catalog"})
        assert len(hits) == 2
        # Unprefixed names use no-namespace semantics: no match here.
        assert db.xpath("t", "doc", "/catalog/product") == []
        # The default-namespace children need their own prefix binding.
        hits = db.xpath("t", "doc", "//d:name",
                        namespaces={"d": "urn:default"})
        assert [h.match.item.value for h in hits] == ["Widget", "Gadget"]

    def test_namespaced_value_index(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.create_xpath_index("ix", "t", "doc", "//c:product/@code",
                              "double", namespaces={"c": "urn:catalog"})
        db.insert("t", (DOC,))
        assert db.value_indexes["ix"].entry_count == 2
        plan = db.plan_xpath("t", "doc",
                             "//c:product[@code = 2]",
                             namespaces={"c": "urn:catalog"})
        from repro.query.plan import AccessMethod
        assert plan.method is not AccessMethod.FULL_SCAN
        hits = db.xpath("t", "doc", "//c:product[@code = 2]",
                        namespaces={"c": "urn:catalog"})
        assert len(hits) == 1

    def test_namespaced_value_index_survives_replay(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.create_xpath_index("ix", "t", "doc", "//c:product/@code",
                              "double", namespaces={"c": "urn:catalog"})
        db.insert("t", (DOC,))
        replayed = Database.replay(db.log)
        probe = "//c:product[@code = 2]"
        ns = {"c": "urn:catalog"}
        assert replayed.plan_xpath("t", "doc", probe, namespaces=ns).method \
            == db.plan_xpath("t", "doc", probe, namespaces=ns).method
        assert [(h.docid, h.node_id)
                for h in replayed.xpath("t", "doc", probe, namespaces=ns)] \
            == [(h.docid, h.node_id)
                for h in db.xpath("t", "doc", probe, namespaces=ns)]
        assert replayed.value_indexes["ix"].entry_count == 2

    def test_wildcard_ignores_namespace(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        db.insert("t", (DOC,))
        hits = db.xpath("t", "doc", "/*/*")
        assert len(hits) == 2  # both products, any namespace
