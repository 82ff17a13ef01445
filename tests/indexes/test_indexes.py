"""Tests for XPath value indexes: definitions, keygen, containment, manager."""

import pytest

from repro.core.stats import StatsRegistry
from repro.errors import TypeError_, XPathUnsupportedError
from repro.indexes.containment import (PathRelation, child_only_suffix_depth,
                                       contains, relate)
from repro.indexes.definition import (XPathIndexDefinition,
                                      decode_entry_value, encode_entry_value)
from repro.indexes.keygen import generate_keys, record_local_events
from repro.indexes.manager import XPathValueIndex
from repro.lang.parser import parse_path
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.rdb.tablespace import Rid
from repro.xdm.names import NameTable
from repro.xmlstore.store import XmlStore

CATALOG = (
    "<Catalog><Categories>"
    "<Product id='p1'><ProductName>Widget</ProductName>"
    "<RegPrice>120.5</RegPrice><Discount>0.15</Discount></Product>"
    "<Product id='p2'><ProductName>Gadget</ProductName>"
    "<RegPrice>80</RegPrice><Discount>0.05</Discount></Product>"
    "</Categories></Catalog>"
)


@pytest.fixture
def pool():
    return BufferPool(Disk(page_size=4096, stats=StatsRegistry()), 128)


@pytest.fixture
def names():
    return NameTable()


@pytest.fixture
def store(pool, names):
    return XmlStore(pool, names, record_limit=64)


class TestDefinition:
    def test_valid_definition(self):
        d = XPathIndexDefinition("ix", "/Catalog//ProductName", "string")
        assert d.key_type_name == "string"

    def test_key_types(self):
        for t in ("double", "decfloat", "string", "varchar"):
            XPathIndexDefinition("ix", "//x", t)
        for t in ("blob", "date", "bigint"):
            with pytest.raises(TypeError_):
                XPathIndexDefinition("ix", "//x", t)

    def test_rejects_predicates(self):
        with pytest.raises(XPathUnsupportedError):
            XPathIndexDefinition("ix", "/a[b]/c", "string")

    def test_rejects_relative(self):
        with pytest.raises(XPathUnsupportedError):
            XPathIndexDefinition("ix", "a/b", "string")

    def test_rejects_kind_tests(self):
        with pytest.raises(XPathUnsupportedError):
            XPathIndexDefinition("ix", "/a/text()", "string")

    def test_convert_key_skips_bad_values(self):
        d = XPathIndexDefinition("ix", "//x", "double")
        assert d.convert_key("1.5") is not None
        assert d.convert_key("not a number") is None

    def test_entry_value_roundtrip(self):
        payload = encode_entry_value(7, b"\x02\x04", Rid(3, 1))
        hit = decode_entry_value(payload)
        assert (hit.docid, hit.node_id, hit.rid) == (7, b"\x02\x04", Rid(3, 1))


class TestRecordLocalEvents:
    def test_context_path_replayed(self, store):
        store.insert_document_text(1, CATALOG)
        rids = store.node_index.record_rids(1)
        assert len(rids) > 1
        # Each record's local stream is a well-formed document fragment.
        from repro.xdm.events import EventKind
        for rid in rids:
            events = list(record_local_events(store.read_record(rid),
                                              store.names))
            assert events[0].kind is EventKind.DOC_START
            assert events[-1].kind is EventKind.DOC_END
            opens = sum(1 for e in events if e.kind is EventKind.ELEM_START)
            closes = sum(1 for e in events if e.kind is EventKind.ELEM_END)
            assert opens == closes


class TestKeygen:
    def test_each_node_keyed_exactly_once(self, store):
        store.insert_document_text(1, CATALOG)
        definition = XPathIndexDefinition("ix", "//ProductName", "string")
        seen = []
        for rid in store.node_index.record_rids(1):
            for key, item in generate_keys(definition,
                                           store.read_record(rid),
                                           store.names):
                seen.append((key, item.node_id))
        assert len(seen) == 2
        assert len({node_id for _k, node_id in seen}) == 2

    def test_descendant_path_spanning_records(self, store):
        store.insert_document_text(1, CATALOG)
        definition = XPathIndexDefinition(
            "ix", "/Catalog/Categories/Product/RegPrice", "double")
        keys = []
        for rid in store.node_index.record_rids(1):
            keys.extend(generate_keys(definition, store.read_record(rid),
                                      store.names))
        assert len(keys) == 2

    def test_attribute_path(self, store):
        store.insert_document_text(1, CATALOG)
        definition = XPathIndexDefinition("ix", "//Product/@id", "string")
        values = []
        for rid in store.node_index.record_rids(1):
            for _key, item in generate_keys(definition,
                                            store.read_record(rid),
                                            store.names):
                values.append(item.value)
        assert sorted(values) == ["p1", "p2"]

    def test_one_definition_over_two_name_tables(self, pool):
        """The scanner cached on a definition keeps a name-id cache per
        name table: two stores that number the same names differently
        each get their own keys."""
        definition = XPathIndexDefinition("ix", "//Product/@id", "string")
        first = XmlStore(pool, NameTable(), record_limit=256)
        second = XmlStore(pool, NameTable(), record_limit=256)
        second.names.intern_name("id")  # shifts every later id by one
        second.names.intern_name("Other")
        first.insert_document_text(1, CATALOG)
        second.insert_document_text(1, CATALOG.replace("p1", "s1"))
        assert first.names.lookup_name("Product") != \
            second.names.lookup_name("Product")
        for store, expected in ((first, ["p1", "p2"]),
                                (second, ["p2", "s1"]),
                                (first, ["p1", "p2"])):
            values = [item.value
                      for rid in store.node_index.record_rids(1)
                      for _key, item in generate_keys(
                          definition, store.read_record(rid), store.names)]
            assert sorted(values) == expected

    def test_unconvertible_values_skipped(self, store):
        store.insert_document_text(1, CATALOG)
        definition = XPathIndexDefinition("ix", "//ProductName", "double")
        total = sum(
            len(generate_keys(definition, store.read_record(rid), store.names))
            for rid in store.node_index.record_rids(1))
        assert total == 0  # names are not numbers


class TestContainment:
    def path(self, text):
        return parse_path(text)

    def test_exact(self):
        assert relate(self.path("/a/b/c"),
                      self.path("/a/b/c")) is PathRelation.EXACT

    def test_contains_descendant(self):
        """Table 2 case 2: //Discount contains /C/C/P/Discount."""
        assert relate(self.path("//Discount"),
                      self.path("/Catalog/Categories/Product/Discount")) \
            is PathRelation.CONTAINS

    def test_none_for_disjoint(self):
        assert relate(self.path("/a/b"),
                      self.path("/a/c")) is PathRelation.NONE

    def test_query_more_general_not_contained(self):
        # Index /a/b does NOT contain //b (query matches b's elsewhere).
        assert relate(self.path("/a/b"),
                      self.path("//b")) is PathRelation.NONE

    def test_wildcard_contains(self):
        assert contains(self.path("/a/*/c"), self.path("/a/b/c"))
        assert not contains(self.path("/a/b/c"), self.path("/a/*/c"))

    def test_descendant_chains(self):
        assert contains(self.path("//b//d"), self.path("/a/b/c/d"))
        assert not contains(self.path("//b/d"), self.path("/a/b/c/d"))

    def test_leaf_must_align(self):
        assert not contains(self.path("//b"), self.path("//b/c"))

    def test_attribute_vs_element(self):
        # //@id on the query side is conservatively unsupported (self case).
        assert relate(self.path("//id"), self.path("//@id")) \
            is PathRelation.NONE
        assert contains(self.path("//@id"), self.path("/a/b/@id"))

    def test_exact_with_descendants_both_ways(self):
        assert relate(self.path("//a//b"),
                      self.path("//a//b")) is PathRelation.EXACT

    def test_child_only_suffix_depth(self):
        path = self.path("/Catalog/Categories/Product/RegPrice")
        assert child_only_suffix_depth(path, 3) == 1
        assert child_only_suffix_depth(path, 2) == 2
        deep = self.path("/a//b/c")
        assert child_only_suffix_depth(deep, 1) is None


class TestValueIndexManager:
    def make_index(self, store, pool, path, key_type):
        definition = XPathIndexDefinition("ix", path, key_type)
        return XPathValueIndex(definition, pool, store.names).attach(store)

    def test_maintained_on_insert(self, store, pool):
        index = self.make_index(store, pool, "//RegPrice", "double")
        store.insert_document_text(1, CATALOG)
        assert index.entry_count == 2
        hits = list(index.lookup_op(">", 100))
        assert len(hits) == 1

    def test_backfill_existing_documents(self, store, pool):
        store.insert_document_text(1, CATALOG)
        index = self.make_index(store, pool, "//RegPrice", "double")
        assert index.entry_count == 2

    def test_maintained_on_delete(self, store, pool):
        index = self.make_index(store, pool, "//RegPrice", "double")
        store.insert_document_text(1, CATALOG)
        store.insert_document_text(2, CATALOG)
        store.delete_document(1)
        assert index.entry_count == 2
        assert all(h.docid == 2 for h in index.lookup_range())

    def test_maintained_on_subdocument_update(self, store, pool):
        from repro.xmlstore.update import XmlUpdater
        from repro.xdm.events import EventKind
        index = self.make_index(store, pool, "//RegPrice", "double")
        store.insert_document_text(1, CATALOG)
        doc = store.document(1)
        events = list(doc.events())
        text_id = None
        for i, event in enumerate(events):
            if event.kind is EventKind.ELEM_START and \
                    event.local == "RegPrice":
                text_id = events[i + 1].node_id
                break
        XmlUpdater(store).replace_text(1, text_id, "999")
        hits = list(index.lookup_eq(999))
        assert len(hits) == 1
        assert list(index.lookup_eq(120.5)) == []

    def test_lookup_eq_and_ranges(self, store, pool):
        index = self.make_index(store, pool, "//Discount", "double")
        store.insert_document_text(1, CATALOG)
        assert len(list(index.lookup_eq(0.15))) == 1
        assert len(list(index.lookup_range(low=0.0, high=1.0))) == 2
        assert len(list(index.lookup_op("<", 0.1))) == 1
        assert len(list(index.lookup_op(">=", 0.05))) == 2

    def test_string_index(self, store, pool):
        index = self.make_index(store, pool, "//ProductName", "string")
        store.insert_document_text(1, CATALOG)
        hits = list(index.lookup_eq("Widget"))
        assert len(hits) == 1

    def test_hits_reference_real_nodes(self, store, pool):
        index = self.make_index(store, pool, "//RegPrice", "double")
        store.insert_document_text(1, CATALOG)
        for hit in index.lookup_range():
            doc = store.document(hit.docid)
            assert doc.node_string_value(hit.node_id) in ("120.5", "80")
            # The RID is the record physically containing the node.
            record, _entry, _parent = doc.find_node(hit.node_id)
            assert record == store.read_record(hit.rid)

    def test_index_smaller_than_data(self, store, pool):
        """§3.3: 'index size should be kept much smaller than data size'."""
        index = self.make_index(store, pool, "//RegPrice", "double")
        for docid in range(1, 20):
            store.insert_document_text(docid, CATALOG)
        data_bytes = store.storage_footprint()["data_bytes"]
        index_bytes = index.size_stats()["entries"] * 32  # ~ entry size
        assert index_bytes < data_bytes

    def test_key_generation_charges_the_engines_registry(self):
        """Key generation runs QuickXScan on the engine's registry, so an
        insert's ``xscan.*`` work shows there and not in the process-wide
        registry another engine would share."""
        from repro.core.config import EngineConfig
        from repro.core.engine import Database
        from repro.core.stats import GLOBAL_STATS
        db = Database(EngineConfig(page_size=1024, buffer_pool_pages=64))
        db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
        db.create_xpath_index("ix", "t", "doc", "//RegPrice", "double")
        engine_before = db.stats.get("xscan.events")
        global_before = GLOBAL_STATS.get("xscan.events")
        db.insert("t", (1, CATALOG))
        assert db.stats.get("xscan.events") > engine_before
        assert GLOBAL_STATS.get("xscan.events") == global_before
