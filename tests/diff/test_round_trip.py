"""Shred-and-compare gate: a stored document serializes to its own text.

The check XRecursive and the DOM-based XML-to-relational mapping use to
validate a storage mapping.  Every document is parsed and serialized
directly, stored in the packed format and read back two ways (streamed
into the serializer by :meth:`StoredDocument.serialize`, and as a list of
:meth:`StoredDocument.events`), and stored one node per row and read back
through :meth:`ShreddedStore.document_events`; all four texts must agree.

Five document kinds, each at record limits from 64 B up, so proxies appear
at every level: catalog, recursive ``<a>``, mixed content with comments and
processing instructions, namespace-heavy, and attribute-heavy with
characters that need escaping.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.stats import StatsRegistry
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk
from repro.workload.generator import catalog_document, recursive_document
from repro.xdm.names import NameTable
from repro.xdm.parser import parse
from repro.xdm.serializer import serialize
from repro.xmlstore.shred import ShreddedStore
from repro.xmlstore.store import XmlStore

_LIMITS = [64, 96, 200, 900]
_WORDS = ["x", "alpha beta", "7.5", "a longer run of text here"]
_ESCAPED = ["a & b", "1 < 2", "x > y", 'say "hi"', "tab\there", "l1\nl2",
            "&<>\"'"]


def _escape_attr(value):
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;"))


def _escape_text(value):
    return value.replace("&", "&amp;").replace("<", "&lt;") \
        .replace(">", "&gt;")


@st.composite
def catalog_docs(draw):
    return catalog_document(draw(st.integers(1, 6)),
                            seed=draw(st.integers(0, 99)))


@st.composite
def recursive_docs(draw):
    return recursive_document(draw(st.integers(1, 40)),
                              leaf_text=draw(st.sampled_from(_WORDS)))


@st.composite
def mixed_docs(draw, max_depth=4):
    def content(depth):
        kind = draw(st.integers(0, 5))
        if kind == 0 or depth >= max_depth:
            return draw(st.sampled_from(_WORDS))
        if kind == 1:
            return draw(st.sampled_from(["<!--c-->", "<!-- a longer note -->"]))
        if kind == 2:
            return draw(st.sampled_from(["<?pi data?>", "<?t?>",
                                         "<?style a='1'?>"]))
        return element(depth + 1)

    def element(depth):
        tag = draw(st.sampled_from(["p", "em", "sec"]))
        body = "".join(content(depth) for _ in range(draw(st.integers(0, 5))))
        return f"<{tag}>{body}</{tag}>"

    return f"<doc>{element(0)}{element(0)}</doc>"


@st.composite
def namespace_docs(draw, max_depth=3):
    prefixes = ["p", "q", "r"]

    def element(depth):
        prefix = draw(st.sampled_from(prefixes + [""]))
        tag = f"{prefix}:e" if prefix else "e"
        declarations = ""
        if draw(st.integers(0, 2)) == 0:
            redeclared = draw(st.sampled_from(prefixes))
            declarations += \
                f' xmlns:{redeclared}="urn:{redeclared}{depth}"'
        if draw(st.integers(0, 3)) == 0:
            declarations += f' xmlns="urn:default{depth}"'
        attrs = ""
        if draw(st.booleans()):
            attrs += f' {draw(st.sampled_from(prefixes))}:at="v"'
        if draw(st.booleans()):
            attrs += ' plain="w"'
        if depth >= max_depth:
            body = draw(st.sampled_from(_WORDS))
        else:
            body = "".join(element(depth + 1)
                           for _ in range(draw(st.integers(0, 3))))
        return f"<{tag}{declarations}{attrs}>{body}</{tag}>"

    root_declarations = "".join(f' xmlns:{p}="urn:{p}"' for p in prefixes)
    return f"<root{root_declarations}>{element(0)}{element(0)}</root>"


@st.composite
def attribute_docs(draw):
    def item(index):
        count = draw(st.integers(1, 6))
        attrs = "".join(
            f' a{n}="{_escape_attr(draw(st.sampled_from(_ESCAPED)))}"'
            for n in range(count))
        text = _escape_text(draw(st.sampled_from(_ESCAPED)))
        return f"<item n=\"{index}\"{attrs}>{text}</item>"

    items = "".join(item(i) for i in range(draw(st.integers(1, 8))))
    return f'<list title="{_escape_attr("A & B <list>")}">{items}</list>'


def _pool():
    return BufferPool(Disk(page_size=1024, stats=StatsRegistry()), 64)


def check_round_trip(doc, limit):
    expected = serialize(parse(doc).events())
    store = XmlStore(_pool(), NameTable(), record_limit=limit)
    store.insert_document_text(1, doc)
    reader = store.document(1)
    shred = ShreddedStore(_pool(), NameTable())
    shred.insert_document_events(1, parse(doc).events())
    assert reader.serialize() == expected
    assert serialize(list(reader.events())) == expected
    assert serialize(shred.document_events(1)) == expected


class TestRoundTrip:
    @seed(20261001)
    @settings(max_examples=25, deadline=None)
    @given(catalog_docs(), st.sampled_from(_LIMITS))
    def test_catalog(self, doc, limit):
        check_round_trip(doc, limit)

    @seed(20261002)
    @settings(max_examples=25, deadline=None)
    @given(recursive_docs(), st.sampled_from(_LIMITS))
    def test_recursive(self, doc, limit):
        check_round_trip(doc, limit)

    @seed(20261003)
    @settings(max_examples=25, deadline=None)
    @given(mixed_docs(), st.sampled_from(_LIMITS))
    def test_mixed_content(self, doc, limit):
        check_round_trip(doc, limit)

    @seed(20261004)
    @settings(max_examples=25, deadline=None)
    @given(namespace_docs(), st.sampled_from(_LIMITS))
    def test_namespace_heavy(self, doc, limit):
        check_round_trip(doc, limit)

    @seed(20261005)
    @settings(max_examples=25, deadline=None)
    @given(attribute_docs(), st.sampled_from(_LIMITS))
    def test_attribute_heavy(self, doc, limit):
        check_round_trip(doc, limit)


@pytest.mark.parametrize("limit", _LIMITS)
@pytest.mark.parametrize("doc", [
    catalog_document(4, seed=3),
    recursive_document(30, leaf_text="deep &amp; low"),
    "<doc>one<!--c--><p>two<?pi data?></p>three<?t?><!-- end --></doc>",
    '<root xmlns="urn:d" xmlns:p="urn:p"><p:e p:at="v" xmlns:q="urn:q">'
    '<e xmlns="urn:e"><q:f/></e></p:e></root>',
    '<list t="A &amp; B &lt;l&gt;"><item a="&quot;x&quot;&#10;&#9;"'
    ' b="1 &lt; 2">a &amp; b &gt; c</item></list>',
], ids=["catalog", "recursive", "mixed", "namespaces", "attributes"])
def test_fixed_document_round_trips(doc, limit):
    check_round_trip(doc, limit)
