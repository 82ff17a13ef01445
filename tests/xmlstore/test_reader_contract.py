"""The stored-document reader's contract, checked node by node.

Point access, ancestry, per-record key-generation events and the update
path's child listing must agree with the full document-order traversal,
however the packer split the document into records (``record_limit`` from
64 B up, so proxies appear at every level).  A corrupt entry is a typed
error on every path through the one record driver.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.stats import StatsRegistry
from repro.errors import PackingError
from repro.indexes.keygen import record_local_events
from repro.lang.parser import parse_xpath
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.xdm import nodeid
from repro.xdm.events import EventKind
from repro.xdm.names import NameTable
from repro.xmlstore import format as fmt
from repro.xmlstore.store import XmlStore
from repro.xmlstore.update import XmlUpdater
from repro.xpath.qtree import compile_query
from repro.xpath.quickxscan import QuickXScan

_TAGS = ["r", "item", "p:x", "deep"]


@st.composite
def documents(draw, max_depth=4):
    def content(depth):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return draw(st.sampled_from(["text", "a &amp; b", "long text here"]))
        if kind == 1:
            return "<!--note-->"
        if kind == 2:
            return "<?pi data?>"
        if depth >= max_depth:
            return "<![CDATA[x<y]]>"
        return element(depth + 1)

    def element(depth):
        tag = draw(st.sampled_from(_TAGS))
        attrs = ""
        if draw(st.booleans()):
            attrs += f' k="{draw(st.integers(0, 99))}"'
        if draw(st.integers(0, 3)) == 0:
            attrs += ' xmlns:q="urn:q"'
        body = "".join(content(depth)
                       for _ in range(draw(st.integers(0, 4))))
        return f"<{tag}{attrs}>{body}</{tag}>"

    return f'<root xmlns:p="urn:p">{element(0)}{element(0)}</root>'


def stored(doc, limit):
    pool = BufferPool(Disk(page_size=1024, stats=StatsRegistry()), 64)
    store = XmlStore(pool, NameTable(), record_limit=limit)
    store.insert_document_text(1, doc)
    return store


def subtree_slices(events):
    """``node_id -> (start, end)`` of each node's contiguous event slice,
    plus ``node_id -> [(local, uri), ...]`` of the elements open at it."""
    slices, open_at = {}, {}
    stack = []  # (node_id, start index, (local, uri))
    for index, event in enumerate(events):
        if event.kind is EventKind.ELEM_END:
            node_id, start, _name = stack.pop()
            slices[node_id] = (start, index + 1)
            continue
        if event.node_id is None or event.node_id == nodeid.ROOT_ID:
            continue
        open_at[event.node_id] = [name for _id, _start, name in stack]
        if event.kind is EventKind.ELEM_START:
            stack.append((event.node_id, index, (event.local, event.uri)))
        else:
            slices[event.node_id] = (index, index + 1)
    return slices, open_at


def child_level_ids(events):
    """``element node_id -> [child-level node IDs]`` (attribute and
    namespace nodes included), the document node's under ``ROOT_ID``."""
    children = {nodeid.ROOT_ID: []}
    stack = [nodeid.ROOT_ID]
    for event in events:
        if event.kind is EventKind.ELEM_END:
            stack.pop()
        elif event.node_id is not None and event.node_id != nodeid.ROOT_ID:
            children[stack[-1]].append(event.node_id)
            if event.kind is EventKind.ELEM_START:
                children[event.node_id] = []
                stack.append(event.node_id)
    return children


class TestReaderContract:
    @seed(20260415)
    @settings(max_examples=40, deadline=None)
    @given(documents(), st.sampled_from([64, 96, 200, 900]))
    def test_node_events_is_the_nodes_slice_of_events(self, doc, limit):
        reader = stored(doc, limit).document(1)
        events = list(reader.events())
        slices, _open_at = subtree_slices(events)
        assert slices
        for node_id, (start, end) in slices.items():
            assert list(reader.node_events(node_id)) == events[start:end]

    @seed(20260416)
    @settings(max_examples=40, deadline=None)
    @given(documents(), st.sampled_from([64, 96, 200, 900]))
    def test_ancestry_is_the_open_elements(self, doc, limit):
        reader = stored(doc, limit).document(1)
        _slices, open_at = subtree_slices(list(reader.events()))
        for node_id, names in open_at.items():
            assert reader.ancestry(node_id) == names

    @seed(20260417)
    @settings(max_examples=40, deadline=None)
    @given(documents(), st.sampled_from([64, 96, 200, 900]))
    def test_record_local_events_cover_each_node_once(self, doc, limit):
        store = stored(doc, limit)
        expected = sorted(event.node_id for event in store.document(1).events()
                          if event.node_id not in (None, nodeid.ROOT_ID))
        seen = []
        for rid in store.node_index.record_rids(1):
            seen.extend(event.node_id for event in record_local_events(
                store.read_record(rid), store.names)
                if event.node_id is not None)
        assert sorted(seen) == expected
        assert len(set(seen)) == len(seen)

    @seed(20260418)
    @settings(max_examples=40, deadline=None)
    @given(documents(), st.sampled_from([64, 96, 200, 900]))
    def test_child_ids_are_the_child_level_nodes(self, doc, limit):
        """The skip path: each child element's subtree is stepped over, and
        namespace declarations are listed, or sibling-ID arithmetic on
        insert would reuse an ordinal."""
        store = stored(doc, limit)
        updater = XmlUpdater(store)
        events = list(store.document(1).events())
        assert any(e.kind is EventKind.NS for e in events)  # root's p:
        children = child_level_ids(events)
        for parent_id, expected in children.items():
            assert updater.child_ids(1, parent_id) == expected


class TestCorruptEntry:
    @pytest.fixture
    def corrupt_store(self, monkeypatch):
        """A one-record document whose first element entry has an unknown
        kind byte, served by ``read_record``."""
        store = stored("<a><b>hello</b></a>", 400)
        rid = store.node_index.record_rids(1)[0]
        record = bytearray(store.read_record(rid))
        _header, body_start = fmt.decode_header(bytes(record))
        record[body_start] = 0x63
        monkeypatch.setattr(store, "read_record", lambda _rid: bytes(record))
        return store

    def test_events_raise(self, corrupt_store):
        with pytest.raises(PackingError):
            list(corrupt_store.document(1).events())

    def test_scan_raises(self, corrupt_store):
        scanner = QuickXScan(compile_query(parse_xpath("//b")))
        with pytest.raises(PackingError):
            scanner.run(corrupt_store.document(1).source())
