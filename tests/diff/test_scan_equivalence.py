"""Differential gate for QuickXScan's subtree skip over stored documents.

The stored-document walker accepts a skip hint after an element start, and
QuickXScan sends it when nothing inside the element can match.  A source
that ignores the hint (a plain list of the same events) must give the same
answer, and both must agree with the DOM evaluator.  Documents are stored at
record limits from 64 B up, so proxies appear at every level and a skipped
subtree may span records it then never reads.

Checked three ways: whole documents (``StoredDocument.events``), NodeID
anchors (the subtree under its replayed ancestors) and per-record index key
generation.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.stats import StatsRegistry
from repro.indexes.definition import XPathIndexDefinition
from repro.indexes.keygen import generate_keys, record_local_events
from repro.lang.parser import parse_path
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.xdm.events import EventKind
from repro.xdm.names import NameTable
from repro.xmlstore.store import XmlStore
from repro.xmlstore.traversal import in_context_events
from repro.xpath.domeval import evaluate_dom
from repro.xpath.qtree import compile_query
from repro.xpath.quickxscan import QuickXScan

_TAGS = ["a", "b", "c"]
_TEXTS = ["x", "XML", "7", "42", "a longer run of text"]
_LIMITS = [64, 200, 900, 4000]


@st.composite
def documents(draw, max_depth=4):
    def content(depth):
        kind = draw(st.integers(0, 9))
        if kind <= 1 or depth >= max_depth:
            return draw(st.sampled_from(_TEXTS))
        if kind == 2:
            return draw(st.sampled_from(["<!--n-->", "<?p d?>"]))
        return element(depth + 1)

    def element(depth, tag=None):
        tag = tag or draw(st.sampled_from(_TAGS))
        attr = ""
        if draw(st.booleans()):
            attr = f' w="{draw(st.integers(0, 500))}"'
        # The root always has children, so there are siblings to skip.
        fanout = draw(st.integers(0 if depth else 2, 4))
        body = "".join(content(depth) for _ in range(fanout))
        return f"<{tag}{attr}>{body}</{tag}>"

    return element(0, "a")


def _steps(draw, predicates):
    # The first step names the root (or any descendant), so most paths
    # match something; child steps dominate after it, since only they
    # leave anything to skip.
    parts = [draw(st.sampled_from(["/a", "/a", "/*", "//b"]))]
    for _ in range(draw(st.integers(0, 3))):
        parts.append(draw(st.sampled_from(["/", "/", "/", "//"])) +
                     draw(st.sampled_from(_TAGS + ["*"])))
    if predicates:
        for index in range(len(parts)):
            parts[index] += draw(st.sampled_from(
                ["", "", "", "", "[b]", "[. = 'x']", "[. = 'XML']",
                 f"[@w > {draw(st.integers(0, 500))}]", "[.//c]"]))
    return "".join(parts)


@st.composite
def queries(draw):
    return _steps(draw, predicates=True) + draw(st.sampled_from(
        ["", "", "/@w", "/text()", "/node()"]))


@st.composite
def index_paths(draw):
    return _steps(draw, predicates=False) + draw(st.sampled_from(["", "/@w"]))


def stored(doc, limit):
    pool = BufferPool(Disk(page_size=1024, stats=StatsRegistry()), 64)
    store = XmlStore(pool, NameTable(), record_limit=limit)
    store.insert_document_text(1, doc)
    return store


def answer(items):
    return [(item.node_id, item.kind, item.local, item.value)
            for item in items]


def scan(path, events):
    """``(answer, events consumed)`` of QuickXScan over ``events``."""
    stats = StatsRegistry()
    query = compile_query(parse_path(path))
    items = QuickXScan(query, stats=stats).run(events)
    return answer(items), stats.get("xscan.events")


class TestScanEquivalence:
    @seed(20261016)
    @settings(max_examples=120, deadline=None)
    @given(documents(), queries(), st.sampled_from(_LIMITS))
    def test_whole_document(self, doc, path, limit):
        reader = stored(doc, limit).document(1)
        events = list(reader.events())
        skipped, consumed = scan(path, reader.events())
        plain, total = scan(path, events)
        assert skipped == plain, (doc, path)
        assert plain == answer(evaluate_dom(path, events)), (doc, path)
        assert consumed <= total
        if path.startswith("//"):
            assert consumed == total  # the root arms a descendant step

    @seed(20261017)
    @settings(max_examples=40, deadline=None)
    @given(documents(), queries(), st.sampled_from(_LIMITS))
    def test_nodeid_anchors(self, doc, path, limit):
        reader = stored(doc, limit).document(1)
        anchors = [event.node_id for event in reader.events()
                   if event.kind is EventKind.ELEM_START][:6]
        for anchor in anchors:
            events = list(in_context_events(reader.ancestry(anchor),
                                            reader.node_events(anchor)))
            skipped, _ = scan(path, reader.node_events(anchor,
                                                       in_context=True))
            plain, _ = scan(path, events)
            assert skipped == plain, (doc, path, anchor)
            assert plain == answer(evaluate_dom(path, events)), \
                (doc, path, anchor)

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(documents(), index_paths(), st.sampled_from(_LIMITS))
    def test_key_generation(self, doc, path, limit):
        store = stored(doc, limit)
        definition = XPathIndexDefinition("ix", path, "varchar")
        query = compile_query(definition.path)
        for rid in store.node_index.record_rids(1):
            record = store.read_record(rid)
            keys = generate_keys(definition, record, store.names)
            items = QuickXScan(query).run(
                list(record_local_events(record, store.names)))
            assert [(key, item.node_id, item.value) for key, item in keys] \
                == [(definition.convert_key(item.value), item.node_id,
                     item.value) for item in items
                    if item.node_id is not None], (doc, path)


def test_skipped_subtree_records_are_never_read():
    """A child-only path steps over a packed-out sibling subtree without
    probing the NodeID index for its records."""
    doc = "<a><b>" + "<c>many words of text</c>" * 40 + "</b><d>x</d></a>"
    store = stored(doc, 64)
    stats = store.pool.stats
    before = stats.get("btree.searches")
    skipped, _ = scan("/a/d", store.document(1).events())
    skipping = stats.get("btree.searches") - before
    before = stats.get("btree.searches")
    plain, _ = scan("/a/d", list(store.document(1).events()))
    assert skipped == plain and [local for _, _, local, _ in plain] == ["d"]
    assert skipping < stats.get("btree.searches") - before
