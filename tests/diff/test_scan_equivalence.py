"""Differential gate for QuickXScan's two drivers over stored documents.

One matcher, two drivers: the packed-record driver
(:class:`repro.xmlstore.traversal.RecordScan`) decodes stored entries
itself, dispatches on name ids, and steps over a subtree the matcher says
cannot match; the SaxEvent driver, fed a plain list of the same document's
events, sees every event.  Both must give the same answer, and both must
agree with the DOM evaluator.  Documents are stored at record limits from
64 B up, so proxies appear at every level and a skipped subtree may span
records it then never reads.

Checked four ways: whole documents (``StoredDocument.source()``), NodeID
anchors (the subtree under its replayed ancestors), per-record index key
generation, and XMLQUERY/XMLEXISTS over a stored column.  A namespace case
pins name dispatch to the qualified name, not the local one.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.core.stats import StatsRegistry
from repro.indexes.definition import XPathIndexDefinition
from repro.indexes.keygen import generate_keys, record_local_events
from repro.lang.parser import parse_path
from repro.query.sqlxml import SqlSession
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import NameTable
from repro.xdm.serializer import serialize
from repro.xmlstore.store import XmlStore
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


def in_context(reader, anchor):
    """The anchor's subtree as a list of events under synthetic starts and
    ends of its ancestors: what a NodeID-list plan re-evaluates (§3.1)."""
    ancestors = reader.ancestry(anchor)
    return ([SaxEvent(EventKind.DOC_START)]
            + [SaxEvent(EventKind.ELEM_START, local, uri)
               for local, uri in ancestors]
            + list(reader.node_events(anchor))
            + [SaxEvent(EventKind.ELEM_END, local, uri)
               for local, uri in reversed(ancestors)]
            + [SaxEvent(EventKind.DOC_END)])


def scan(path, source, namespaces=None):
    """``(answer, events consumed)`` of QuickXScan over ``source``."""
    stats = StatsRegistry()
    query = compile_query(parse_path(path, namespaces))
    items = QuickXScan(query, stats=stats).run(source)
    return answer(items), stats.get("xscan.events")


class TestScanEquivalence:
    @seed(20261016)
    @settings(max_examples=120, deadline=None)
    @given(documents(), queries(), st.sampled_from(_LIMITS))
    def test_whole_document(self, doc, path, limit):
        reader = stored(doc, limit).document(1)
        events = list(reader.events())
        skipped, consumed = scan(path, reader.source())
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
            events = in_context(reader, anchor)
            skipped, _ = scan(path, reader.source(anchor))
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


    @seed(20261019)
    @settings(max_examples=30, deadline=None)
    @given(documents(), queries())
    def test_sql_xml_over_stored_column(self, doc, path):
        """XMLQUERY and XMLEXISTS scan the stored column with the record
        driver; the answer is the list-fed scan's, serialized."""
        path = path.replace("'", '"')
        db = Database(EngineConfig(record_size_limit=64))
        session = SqlSession(db)
        session.execute("CREATE TABLE t (id BIGINT, doc XML)")
        session.execute(f"INSERT INTO t VALUES (1, '{doc}')")
        rows = session.execute(
            f"SELECT XMLQUERY('{path}' PASSING doc) AS q FROM t")
        exists = session.execute(
            f"SELECT id FROM t WHERE XMLEXISTS('{path}' PASSING doc)")
        reader = db.xml_stores[("t", "doc")].document(1)
        items = QuickXScan(compile_query(parse_path(path))).run(
            list(reader.events()))
        assert rows[0]["q"] == "".join(
            serialize(reader.node_events(item.node_id))
            if item.kind == "element" else item.value or ""
            for item in items), (doc, path)
        assert len(exists) == (1 if items else 0), (doc, path)


_NS = {"p": "urn:p", "q": "urn:q"}
_NS_DOC = ('<r xmlns:p="urn:p" xmlns:q="urn:q">'
           '<p:x p:x="1" q:x="2" x="3">a</p:x><q:x p:x="4">b</q:x>'
           '<x q:x="5" x="6">c</x><p:y p:x="7"/></r>')


def test_names_dispatch_on_the_qualified_name():
    """The same local name in two namespaces, on elements and attributes:
    the record driver (name ids), the list-fed driver ((local, uri) pairs)
    and the DOM evaluator agree on every kind of name test."""
    expected = {"x": 1, "p:x": 1, "q:x": 1, "p:*": 2, "*": 5}
    for limit in (64, 4000):
        reader = stored(_NS_DOC, limit).document(1)
        events = list(reader.events())
        for test, count in expected.items():
            for path, hits in ((f"//{test}", count),
                               (f"/r/{test}/@{test}", None)):
                packed, _ = scan(path, reader.source(), _NS)
                plain, _ = scan(path, events, _NS)
                assert packed == plain, (limit, path)
                assert plain == answer(evaluate_dom(path, events, _NS)), \
                    (limit, path)
                if hits is not None:
                    assert len(packed) == hits, (limit, path)
        values = [value for *_, value in
                  scan("/r/*/@p:x", reader.source(), _NS)[0]]
        assert values == ["1", "4", "7"]


def test_skipped_subtree_records_are_never_read():
    """The record driver steps over a packed-out sibling subtree without
    reading its records: ``/a/d`` reads the root record and the record
    holding ``b`` itself, none of the records packed under ``b``; a scan of
    the same document's listed events reads every record and gives the
    same answer."""
    doc = "<a><b>" + "<c>many words of text</c>" * 40 + "</b><d>x</d></a>"
    store = stored(doc, 64)
    stats = store.pool.stats
    records = len(store.node_index.record_rids(1))
    before = stats.get("ts.records_read")
    skipped, _ = scan("/a/d", store.document(1).source())
    skipping = stats.get("ts.records_read") - before
    before = stats.get("ts.records_read")
    plain, _ = scan("/a/d", list(store.document(1).events()))
    assert skipped == plain and [local for _, _, local, _ in plain] == ["d"]
    assert stats.get("ts.records_read") - before == records > 2
    assert skipping == 2
