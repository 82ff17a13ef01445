"""Property tests for the native storage layer: roundtrips, point access,
interval invariants, and corruption handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import StatsRegistry
from repro.errors import PackingError
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.xdm import nodeid
from repro.xdm.events import EventKind
from repro.xdm.names import NameTable
from repro.xdm.parser import parse
from repro.xdm.serializer import serialize
from repro.xmlstore import format as fmt
from repro.xmlstore.store import XmlStore
from repro.xmlstore.traversal import EventSink, RecordScan

_TAGS = ["r", "item", "x", "deep"]


@st.composite
def xml_documents(draw, max_depth=4):
    def build(depth):
        tag = draw(st.sampled_from(_TAGS))
        attrs = ""
        if draw(st.booleans()):
            attrs = f' k="{draw(st.integers(min_value=0, max_value=99))}"'
        if depth >= max_depth or draw(st.integers(0, 2)) == 0:
            body = draw(st.sampled_from(
                ["", "text", "long text body here", "&amp;escaped"]))
        else:
            body = "".join(
                build(depth + 1)
                for _ in range(draw(st.integers(min_value=1, max_value=4))))
        return f"<{tag}{attrs}>{body}</{tag}>"

    return build(0)


def make_store(record_limit):
    pool = BufferPool(Disk(page_size=1024, stats=StatsRegistry()), 64)
    return XmlStore(pool, NameTable(), record_limit=record_limit)


class TestStorageProperties:
    @settings(max_examples=60, deadline=None)
    @given(xml_documents(), st.sampled_from([32, 64, 200, 900]))
    def test_roundtrip_any_packing(self, doc, limit):
        store = make_store(limit)
        store.insert_document_text(1, doc)
        reparsed_in = serialize(parse(doc).events())
        assert serialize(store.document(1).events()) == reparsed_in

    @settings(max_examples=40, deadline=None)
    @given(xml_documents(), st.sampled_from([32, 128]))
    def test_every_node_findable_and_valued(self, doc, limit):
        store = make_store(limit)
        store.insert_document_text(1, doc)
        reader = store.document(1)
        events = list(reader.events())
        text_by_id = {}
        for i, event in enumerate(events):
            if event.kind is EventKind.ATTR:
                text_by_id[event.node_id] = event.value
            elif event.kind is EventKind.TEXT:
                text_by_id[event.node_id] = event.value
        for node_id, expected in text_by_id.items():
            assert reader.node_string_value(node_id) == expected

    @settings(max_examples=40, deadline=None)
    @given(xml_documents(), st.sampled_from([32, 100]))
    def test_interval_invariants(self, doc, limit):
        """Intervals are disjoint, sorted, and every node probe hits the
        record physically containing the node."""
        store = make_store(limit)
        store.insert_document_text(1, doc)
        entries = list(store.node_index.entries_for_document(1))
        uppers = [upper for upper, _rid in entries]
        assert uppers == sorted(uppers)
        assert len(set(uppers)) == len(uppers)
        for rid in store.node_index.record_rids(1):
            record = store.read_record(rid)
            header, start = fmt.decode_header(record)
            events = []
            RecordScan(store.names, record, start, len(record),
                       header.context_id).drive(EventSink(events.append))
            for event in events:
                if event.kind is not EventKind.ELEM_END:
                    assert store.node_index.probe(1, event.node_id) == rid

    @settings(max_examples=30, deadline=None)
    @given(xml_documents())
    def test_node_ids_valid_and_ordered(self, doc):
        store = make_store(64)
        store.insert_document_text(1, doc)
        ids = [e.node_id for e in store.document(1).events()
               if e.node_id not in (None, nodeid.ROOT_ID)]
        assert ids == sorted(ids)
        for abs_id in ids:
            nodeid.validate_absolute(abs_id)


class TestCorruptionHandling:
    def test_corrupt_entry_kind_detected(self):
        store = make_store(400)
        store.insert_document_text(1, "<a><b>hello</b></a>")
        rid = store.node_index.record_rids(1)[0]
        record = bytearray(store.read_record(rid))
        # Find the first element entry and clobber its kind byte.
        _header, body_start = fmt.decode_header(bytes(record))
        record[body_start] = 0x63
        with pytest.raises(PackingError):
            fmt.record_intervals(bytes(record))
        with pytest.raises(PackingError):
            RecordScan(store.names, bytes(record), body_start, len(record),
                       b"").drive(EventSink(lambda _event: None))

    def test_truncated_record_detected(self):
        store = make_store(400)
        store.insert_document_text(1, "<a><b>hello</b><c>more</c></a>")
        rid = store.node_index.record_rids(1)[0]
        record = store.read_record(rid)
        with pytest.raises((PackingError, IndexError)):
            fmt.record_intervals(record[:len(record) - 3])

    def test_corrupt_token_stream_detected(self):
        from repro.errors import XmlError
        from repro.xdm.tokens import TokenStream
        with pytest.raises(XmlError):
            list(TokenStream(b"\x7f\x00\x00"))


class TestMultiColumnEngine:
    def test_two_xml_columns_share_docid(self):
        from repro.core.engine import Database
        db = Database()
        db.create_table("t", [("head", "xml"), ("body", "xml")])
        db.insert("t", ("<h>title</h>", "<b>content</b>"))
        assert db.get_document("t", "head", 1) == "<h>title</h>"
        assert db.get_document("t", "body", 1) == "<b>content</b>"
        row = next(db.tables["t"].scan())
        assert row == (1, 1)  # both columns carry the shared DocID

    def test_null_xml_column(self):
        from repro.core.engine import Database
        db = Database()
        db.create_table("t", [("n", "bigint"), ("doc", "xml")])
        db.insert("t", (1, None))
        db.insert("t", (2, "<a/>"))
        assert len(db.xpath("t", "doc", "/a")) == 1

    def test_delete_row_with_null_xml(self):
        from repro.core.engine import Database
        db = Database()
        db.create_table("t", [("doc", "xml")])
        rid = db.insert("t", (None,))
        db.delete_row("t", rid)
        assert db.tables["t"].row_count == 0
