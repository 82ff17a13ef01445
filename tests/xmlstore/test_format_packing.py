"""Tests for the packed-record format and the bottom-up tree packer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PackingError
from repro.workload.generator import catalog_document, recursive_document
from repro.xdm.events import EventKind, assign_node_ids
from repro.xdm.names import NameTable
from repro.xdm.parser import parse
from repro.xmlstore import format as fmt
from repro.xmlstore.packing import TreePacker
from repro.xmlstore.store import XmlStore
from repro.xmlstore.traversal import EventSink, RecordScan


def pack(xml, limit=128, names=None):
    """``(records, node_count)`` of ``xml`` packed as DocID 1."""
    packer = TreePacker(1, names if names is not None else NameTable(), limit)
    records = packer.feed(parse(xml).events()).finish()
    return [record.data for record in records], packer.node_count


def record_nodes(record, names, resolve=None):
    """The node events of a record's entries, in document order; a proxy
    is followed through ``resolve`` or skipped without it."""
    header, start = fmt.decode_header(record)
    events = []
    RecordScan(names, record, start, len(record), header.context_id,
               resolve).drive(EventSink(events.append))
    return [event for event in events if event.kind is not EventKind.ELEM_END]


class TestHeader:
    def test_roundtrip(self):
        header = fmt.RecordHeader(7, b"\x02\x04", (3, 9), (("p", 2), ("", 0)))
        out = bytearray()
        fmt.encode_header(out, header)
        decoded, pos = fmt.decode_header(bytes(out))
        assert decoded == header
        assert pos == len(out)


class TestEntryCodec:
    def test_element_entry(self):
        inner = fmt.encode_text(b"\x02", "hi")
        chunk = fmt.encode_element(b"\x04", 5, 1, inner)
        entry = fmt.parse_entry(chunk, 0)
        assert entry.kind == fmt.EntryKind.ELEMENT
        assert entry.rel_id == b"\x04"
        assert entry.name_id == 5
        assert entry.entry_count == 1
        nested = fmt.parse_entry(chunk, entry.content_start)
        assert nested.kind == fmt.EntryKind.TEXT
        assert nested.text == "hi"
        assert entry.next_pos == len(chunk)

    def test_all_leaf_kinds(self):
        cases = [
            (fmt.encode_text(b"\x02", "t"), fmt.EntryKind.TEXT),
            (fmt.encode_attribute(b"\x02", 3, "v"), fmt.EntryKind.ATTRIBUTE),
            (fmt.encode_namespace(b"\x02", "p", 4), fmt.EntryKind.NAMESPACE),
            (fmt.encode_comment(b"\x02", "c"), fmt.EntryKind.COMMENT),
            (fmt.encode_pi(b"\x02", "tg", "d"), fmt.EntryKind.PI),
            (fmt.encode_proxy(b"\x02\x04"), fmt.EntryKind.PROXY),
        ]
        for chunk, kind in cases:
            entry = fmt.parse_entry(chunk, 0)
            assert entry.kind == kind
            assert entry.next_pos == len(chunk)

    def test_corrupt_kind_rejected(self):
        with pytest.raises(PackingError):
            fmt.parse_entry(b"\x63\x00", 0)


class TestPacker:
    def test_small_doc_single_record(self):
        records, node_count = pack("<a><b>x</b></a>", limit=4000)
        assert len(records) == 1
        assert node_count == 3  # a, b, text

    def test_large_doc_splits(self):
        xml = "<root>" + "".join(
            f"<item><name>n{i}</name><v>{i}</v></item>" for i in range(40)
        ) + "</root>"
        records, node_count = pack(xml, limit=128)
        assert len(records) > 1
        assert node_count == 1 + 40 * 5

    def test_records_sorted_by_min_node_id(self):
        xml = "<root>" + "<x>data</x>" * 50 + "</root>"
        records, _ = pack(xml, limit=96)
        mins = [fmt.record_intervals(r)[0][0] for r in records]
        assert mins == sorted(mins)

    def test_root_record_contains_root_element(self):
        names = NameTable()
        xml = "<root>" + "<x>data</x>" * 50 + "</root>"
        records, _ = pack(xml, limit=96, names=names)
        # First entry is the root element itself (context = document).
        first = record_nodes(records[0], names)[0]
        assert first.kind is EventKind.ELEM_START
        assert first.node_id == b"\x02"

    def test_proxies_present_when_split(self):
        names = NameTable()
        xml = "<root>" + "<x>data</x>" * 50 + "</root>"
        records, node_count = pack(xml, limit=96, names=names)
        by_first_id = {fmt.record_intervals(r)[0][0]: r for r in records}
        proxies = []

        def resolve(proxy_id):
            proxies.append(proxy_id)
            return by_first_id[proxy_id]

        # Every other record hangs off a proxy; the walk reaches every node.
        assert len(record_nodes(records[0], names, resolve)) == node_count
        assert sorted(proxies) == sorted(by_first_id)[1:]

    def test_every_node_stored_exactly_once(self):
        names = NameTable()
        xml = "<root>" + "".join(
            f"<item id='{i}'><a>x{i}</a><b>y{i}</b></item>" for i in range(30)
        ) + "</root>"
        records, node_count = pack(xml, limit=100, names=names)
        seen = [event.node_id for record in records
                for event in record_nodes(record, names)]
        assert len(seen) == node_count
        assert len(set(seen)) == node_count

    def test_intervals_cover_and_do_not_overlap(self):
        names = NameTable()
        xml = "<root>" + "<x><y>deep</y></x>" * 40 + "</root>"
        records, node_count = pack(xml, limit=90, names=names)
        all_intervals = []
        covered = 0
        for record in records:
            intervals = fmt.record_intervals(record)
            ids = [event.node_id for event in record_nodes(record, names)]
            # every node of the record falls in one of its intervals
            for abs_id in ids:
                assert any(low <= abs_id <= high for low, high in intervals)
                covered += 1
            all_intervals.extend(intervals)
        assert covered == node_count
        # Interval ranges are disjoint across the document.
        all_intervals.sort()
        for (l1, h1), (l2, h2) in zip(all_intervals, all_intervals[1:], strict=False):
            assert h1 < l2

    def test_index_entry_bound(self):
        """§3.1: packed scheme needs about 2k/p entries or fewer."""
        xml = "<root>" + "<x>txt</x>" * 200 + "</root>"
        records, node_count = pack(xml, limit=256)
        intervals = sum(len(fmt.record_intervals(r)) for r in records)
        avg_nodes_per_record = node_count / len(records)
        assert intervals <= 2 * node_count / avg_nodes_per_record + 1

    def test_packing_factor_grows_with_limit(self):
        xml = "<root>" + "<x>some text content</x>" * 80 + "</root>"
        small, _ = pack(xml, limit=64)
        large, _ = pack(xml, limit=1024)
        assert len(small) > len(large)

    def test_oversized_text_node(self):
        names = NameTable()
        xml = f"<a><big>{'Z' * 5000}</big><small>s</small></a>"
        records, _ = pack(xml, limit=128, names=names)
        texts = [e.value for r in records for e in record_nodes(r, names)
                 if e.kind is EventKind.TEXT]
        assert "Z" * 5000 in texts

    def test_namespaces_in_header(self):
        names = NameTable()
        xml = ('<root xmlns="urn:d" xmlns:p="urn:p">'
               + "<p:x>value text here</p:x>" * 30 + "</root>")
        records, _ = pack(xml, limit=100, names=names)
        # Some record has the root as context and carries its namespaces.
        contexts = [fmt.decode_header(r)[0] for r in records]
        with_ns = [h for h in contexts if h.namespaces]
        assert with_ns, "expected in-scope namespaces in some record header"
        ns_map = {p: names.uri(u) for p, u in with_ns[0].namespaces}
        assert ns_map.get("p") == "urn:p"
        assert ns_map.get("") == "urn:d"

    def test_context_path_names(self):
        names = NameTable()
        xml = "<a><b>" + "<c>text content goes here</c>" * 30 + "</b></a>"
        records, _ = pack(xml, limit=100, names=names)
        paths = [fmt.decode_header(r)[0].context_path for r in records]
        deep = [p for p in paths if len(p) == 2]
        assert deep, "expected records with context path a/b"
        assert [names.local_name(n) for n in deep[0]] == ["a", "b"]

    def test_unfinished_stream_rejected(self):
        packer = TreePacker(1, NameTable(), 128)
        with pytest.raises(PackingError):
            packer.finish()

    def test_record_limit_validation(self):
        with pytest.raises(PackingError):
            TreePacker(1, NameTable(), 4)


# -- the packer's NodeID-index intervals ------------------------------------------

LIMITS = [64, 128, 256, 1024, 4096]


@st.composite
def documents(draw, max_depth=5):
    """Elements with attributes, namespaces, text, comments and PIs; some
    text runs outgrow small limits, so proxies land in the middle of runs."""
    def build(depth):
        tag = draw(st.sampled_from(["r", "item", "p:x", "deep"]))
        attrs = "".join(f' a{i}="{i}"' for i in range(draw(st.integers(0, 2))))
        if draw(st.booleans()):
            attrs += ' xmlns:p="urn:p"'
        children = []
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 4))):
                children.append(draw(st.one_of(
                    st.just(None), st.sampled_from(
                        ["t", "text", "<!--c-->", "<?pi d?>", "z" * 300]))))
        body = "".join(build(depth + 1) if child is None else child
                       for child in children)
        return f"<{tag}{attrs}>{body}</{tag}>"

    return f'<root xmlns:p="urn:p">{build(0)}</root>'


def packed(xml, limit):
    return TreePacker(1, NameTable(), limit).feed(parse(xml).events()).finish()


def assert_intervals_match_the_decoder(records):
    for min_node_id, data, intervals in records:
        assert intervals == fmt.record_intervals(data)
        assert min_node_id == intervals[0][0]
    mins = [record.min_node_id for record in records]
    assert mins == sorted(mins)


class TestPackerIntervals:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(documents(), st.sampled_from(LIMITS))
    def test_generated_documents(self, xml, limit):
        assert_intervals_match_the_decoder(packed(xml, limit))

    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("xml", [
        catalog_document(20, seed=3),
        recursive_document(60),
        recursive_document(40, leaf_text="y" * 500),
        # Children flushed between inline nodes and later children: the
        # element's own run ends at a proxy and a new one starts after it.
        "<a k='1' j='2'>" + "<b>some text here</b>" * 30 + "t"
        + "<big>" + "Z" * 5000 + "</big><c/>" + "<d>x</d>" * 30 + "</a>",
    ], ids=["catalog", "recursive", "recursive with long leaf",
            "proxies mid-run"])
    def test_shaped_documents(self, xml, limit):
        records = packed(xml, limit)
        if limit == 64:
            assert len(records) > 1
        assert_intervals_match_the_decoder(records)

    @pytest.mark.parametrize("limit", [64, 4096])
    def test_wide_fan_out(self, limit):
        xml = "<P>" + "<c/>" * 100_000 + "<Price>3</Price></P>"
        assert_intervals_match_the_decoder(packed(xml, limit))


class TestPackerNumbersNodes:
    """The packer numbers nodes by the rule of ``assign_node_ids``: a raw
    stream and the same stream with IDs assigned pack identically, and the
    stored nodes carry the IDs that pass gives them."""

    @staticmethod
    def assert_agrees(xml, limit):
        raw = list(parse(xml).events())
        names = NameTable()
        by_packer = TreePacker(1, names, limit)
        by_pass = TreePacker(1, NameTable(), limit)
        records = by_packer.feed(raw).finish()
        numbered = list(assign_node_ids(raw))
        assert records == by_pass.feed(numbered).finish()
        assert by_packer.node_count == by_pass.node_count
        assert_intervals_match_the_decoder(records)
        by_first_id = {record.min_node_id: record.data for record in records}
        stored = record_nodes(records[0].data, names, by_first_id.__getitem__)
        assert [event.node_id for event in stored] == [
            event.node_id for event in numbered if event.kind not in
            (EventKind.DOC_START, EventKind.DOC_END, EventKind.ELEM_END)]

    @pytest.mark.parametrize("limit", LIMITS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(xml=documents())
    def test_generated_documents(self, xml, limit):
        self.assert_agrees(xml, limit)

    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("xml", [
        "<?xml version='1.0'?><!--prolog--><?style a?>"
        "<r k='v'><!--in--><?pi d?>t</r><!--epilog--><?end x?>",
        # Ordinals past 127 widen to 0xFF-prefixed IDs, past 1 143 to
        # multi-digit ones.
        "<P xmlns:p='urn:p' a='1'>" + "<c>x</c>" * 1200 + "<p:d/></P>",
    ], ids=["prolog and epilog", "1200 children"])
    def test_fixed_documents(self, xml, limit):
        self.assert_agrees(xml, limit)


class TestNodeIdIndexFromThePacker:
    """Index keys taken from the packer serve every probe, across delete
    and re-insert, and leave a structurally sound B+tree."""

    XML = ("<a k='1'>" + "".join(f"<b i='{i}'>text {i}<c/></b>"
                                 for i in range(60)) + "</a>")

    def assert_every_node_probes_to_its_record(self, store, docid):
        records = 0
        for rid in store.node_index.record_rids(docid):
            for event in record_nodes(store.read_record(rid), store.names):
                assert store.node_index.probe(docid, event.node_id) == rid
            records += 1
        assert records > 1

    @pytest.mark.parametrize("limit", [64, 512])
    def test_insert_delete_reinsert(self, pool, names, limit):
        store = XmlStore(pool, names, record_limit=limit)
        info = store.insert_document_text(1, self.XML)
        store.insert_document_text(2, self.XML)
        self.assert_every_node_probes_to_its_record(store, 1)
        store.node_index.tree.verify()
        store.delete_document(1)
        assert store.node_index.probe(1, b"") is None
        store.node_index.tree.verify()
        again = store.insert_document_text(1, self.XML)
        assert again == info
        for docid in (1, 2):
            self.assert_every_node_probes_to_its_record(store, docid)
        store.node_index.tree.verify()
        assert store.node_index.entry_count == 2 * info.index_entries
