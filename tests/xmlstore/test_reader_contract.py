"""The stored-document reader's contract, checked node by node.

Point access, ancestry and per-record key-generation events must agree with
the full document-order walk, however the packer split the document into
records (``record_limit`` from 64 B up, so proxies appear at every level).
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.stats import StatsRegistry
from repro.indexes.keygen import record_local_events
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.xdm import nodeid
from repro.xdm.events import EventKind
from repro.xdm.names import NameTable
from repro.xmlstore.store import XmlStore

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
