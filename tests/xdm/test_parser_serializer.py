"""Tests for the XML parser, token streams, and the serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlError, XmlParseError
from repro.xdm.events import EventKind, build_tree
from repro.xdm.parser import MAX_DEPTH, parse, parse_sax
from repro.xdm.serializer import serialize
from repro.xdm.tokens import TokenStream


def kinds(stream):
    return [e.kind for e in stream]


class TestParserBasics:
    def test_minimal_document(self):
        events = list(parse("<a/>"))
        assert kinds(events) == [EventKind.DOC_START, EventKind.ELEM_START,
                                 EventKind.ELEM_END, EventKind.DOC_END]

    def test_text_content(self):
        tree = build_tree(parse("<a>hello</a>"))
        assert tree.string_value() == "hello"

    def test_nested_elements(self):
        tree = build_tree(parse("<a><b><c>x</c></b><b>y</b></a>"))
        root = tree.document_element()
        assert [e.local for e in root.elements()] == ["b", "b"]
        assert root.string_value() == "xy"

    def test_attributes(self):
        tree = build_tree(parse('<a id="1" name="two"/>'))
        root = tree.document_element()
        assert root.get_attribute("id").value == "1"
        assert root.get_attribute("name").value == "two"

    def test_attribute_order_adjusted(self):
        """§3.2: attribute order is normalized (sorted by uri, local)."""
        events = [e for e in parse('<a zeta="1" alpha="2"/>')
                  if e.kind is EventKind.ATTR]
        assert [e.local for e in events] == ["alpha", "zeta"]

    def test_single_and_double_quotes(self):
        tree = build_tree(parse("<a x='1' y=\"2\"/>"))
        assert tree.document_element().get_attribute("x").value == "1"

    def test_xml_declaration_and_comments(self):
        text = '<?xml version="1.0"?><!-- top --><a/><!-- tail -->'
        events = list(parse(text))
        comments = [e for e in events if e.kind is EventKind.COMMENT]
        assert [c.value for c in comments] == [" top ", " tail "]

    def test_doctype_skipped(self):
        tree = build_tree(parse('<!DOCTYPE a [<!ELEMENT a ANY>]><a>x</a>'))
        assert tree.string_value() == "x"

    def test_processing_instruction(self):
        events = list(parse('<?pi data here?><a/>'))
        pi = next(e for e in events if e.kind is EventKind.PI)
        assert pi.local == "pi"
        assert pi.value == "data here"

    def test_entities(self):
        tree = build_tree(parse("<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>"))
        assert tree.string_value() == "<&>\"'AB"

    def test_entities_in_attributes(self):
        tree = build_tree(parse('<a v="&amp;&#x21;"/>'))
        assert tree.document_element().get_attribute("v").value == "&!"

    def test_cdata(self):
        tree = build_tree(parse("<a><![CDATA[<not><parsed>&amp;]]></a>"))
        assert tree.string_value() == "<not><parsed>&amp;"

    def test_strip_whitespace_option(self):
        pretty = "<a>\n  <b>x</b>\n</a>"
        kept = build_tree(parse(pretty))
        stripped = build_tree(parse(pretty, strip_whitespace=True))
        assert len(kept.document_element().children()) == 3
        assert len(stripped.document_element().children()) == 1

    def test_mixed_content(self):
        tree = build_tree(parse("<p>one <b>two</b> three</p>"))
        assert tree.string_value() == "one two three"


class TestNamespaces:
    def test_default_namespace(self):
        tree = build_tree(parse('<a xmlns="urn:one"><b/></a>'))
        root = tree.document_element()
        assert root.uri == "urn:one"
        assert root.elements()[0].uri == "urn:one"

    def test_prefixed_names(self):
        tree = build_tree(parse('<p:a xmlns:p="urn:p"><p:b/><c/></p:a>'))
        root = tree.document_element()
        assert root.uri == "urn:p"
        assert root.elements()[0].uri == "urn:p"
        assert root.elements()[1].uri == ""

    def test_prefixed_attributes(self):
        tree = build_tree(parse('<a xmlns:p="urn:p" p:x="1" x="2"/>'))
        root = tree.document_element()
        assert root.get_attribute("x", "urn:p").value == "1"
        assert root.get_attribute("x").value == "2"

    def test_namespace_scoping(self):
        text = '<a xmlns="urn:out"><b xmlns="urn:in"/><c/></a>'
        root = build_tree(parse(text)).document_element()
        assert root.elements()[0].uri == "urn:in"
        assert root.elements()[1].uri == "urn:out"

    def test_unbound_prefix_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<p:a/>")

    def test_xml_prefix_predeclared(self):
        tree = build_tree(parse('<a xml:space="preserve"/>'))
        attr = tree.document_element().attributes[0]
        assert attr.uri == "http://www.w3.org/XML/1998/namespace"

    def test_ns_events_emitted(self):
        events = [e for e in parse('<a xmlns:p="urn:p" xmlns="urn:d"/>')
                  if e.kind is EventKind.NS]
        assert [(e.local, e.value) for e in events] == [("", "urn:d"),
                                                        ("p", "urn:p")]


class TestParserErrors:
    @pytest.mark.parametrize("text", [
        "",                       # no document element
        "<a>",                    # unterminated
        "<a></b>",                # mismatched tags
        "<a><b></a></b>",         # crossed tags
        "<a foo=bar/>",           # unquoted attribute
        '<a x="1" x="2"/>',       # duplicate attribute
        "<a>&nope;</a>",          # unknown entity
        "<a/><b/>",               # two roots
        "<a><!-- -- --></a>",     # double hyphen in comment
        '<a x="<"/>',             # < in attribute value
        "<1tag/>",                # bad name start
        "<?xml version='1.0'?>",  # prolog only
    ])
    def test_rejects(self, text):
        with pytest.raises(XmlParseError):
            parse(text)

    def test_error_has_position(self):
        with pytest.raises(XmlParseError) as err:
            parse("<a>\n<b></c>\n</a>")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("depth", [600, 10_000])
    def test_deep_nesting_is_a_positioned_parse_error(self, depth):
        with pytest.raises(XmlParseError) as err:
            parse("<a>" * depth + "</a>" * depth)
        column = 3 * MAX_DEPTH + 1  # the first start tag past the limit
        assert str(err.value) == (
            f"elements nested deeper than {MAX_DEPTH} levels "
            f"at line 1, column {column}")

    def test_nesting_at_the_limit_parses(self):
        stream = parse("<a>" * MAX_DEPTH + "</a>" * MAX_DEPTH)
        starts = [e for e in stream.events() if e.kind is EventKind.ELEM_START]
        assert len(starts) == MAX_DEPTH


class TestTokenStream:
    def test_buffer_roundtrip(self):
        stream = parse('<a id="1">text<b/></a>')
        reloaded = TokenStream(stream.to_bytes())
        assert [e.kind for e in reloaded] == [e.kind for e in stream]
        assert len(reloaded) == len(stream)

    def test_annotations(self):
        stream = TokenStream()
        stream.append(EventKind.ELEM_START, "price", annotation="xs:double")
        stream.append(EventKind.TEXT, value="10")
        stream.append(EventKind.ELEM_END, "price")
        annotated = list(stream.annotated_events())
        assert annotated[0][1] == "xs:double"
        assert annotated[1][1] is None
        # Plain event iteration ignores annotations.
        assert [e.kind for e in stream] == [EventKind.ELEM_START,
                                            EventKind.TEXT, EventKind.ELEM_END]

    @pytest.mark.parametrize("method", ["events", "annotated_events"])
    def test_corrupt_kind_byte_is_an_xml_error(self, method):
        stream = parse("<a/>")
        stream._buf.append(0x3F)  # no token kind has this byte
        with pytest.raises(XmlError, match="corrupt token stream"):
            list(getattr(stream, method)())

    def test_byte_size_counts(self):
        stream = parse("<a>hello</a>")
        assert stream.byte_size > 0
        assert stream.token_count == 5

    def test_sax_interface_equivalent(self):
        text = '<a x="1"><b>t</b></a>'
        sax_events = []
        parse_sax(text, sax_events.append)
        assert sax_events == list(parse(text))


class TestSerializer:
    def roundtrip(self, text):
        return serialize(build_tree(parse(text)))

    def test_simple(self):
        assert self.roundtrip("<a>text</a>") == "<a>text</a>"

    def test_empty_element_self_closes(self):
        assert self.roundtrip("<a><b></b></a>") == "<a><b/></a>"

    def test_attributes(self):
        out = self.roundtrip('<a id="1"/>')
        assert out == '<a id="1"/>'

    def test_escaping(self):
        out = self.roundtrip("<a>&lt;tag&gt; &amp; x</a>")
        assert out == "<a>&lt;tag&gt; &amp; x</a>"

    def test_attribute_escaping(self):
        out = self.roundtrip('<a v="&quot;&amp;"/>')
        assert 'v="&quot;&amp;"' in out

    def test_namespace_preserved(self):
        out = self.roundtrip('<a xmlns="urn:x"><b/></a>')
        assert build_tree(parse(out)).document_element().uri == "urn:x"
        assert build_tree(parse(out)).document_element().elements()[0].uri == "urn:x"

    def test_prefix_generated_when_needed(self):
        from repro.xdm.nodes import ElementNode
        el = ElementNode("e", uri="urn:gen")
        el.set_attribute("x", "1", uri="urn:attr")
        out = serialize(el)
        reparsed = build_tree(parse(out)).document_element()
        assert reparsed.uri == "urn:gen"
        assert reparsed.get_attribute("x", "urn:attr").value == "1"

    def test_comment_and_pi(self):
        out = self.roundtrip("<a><!--c--><?t d?></a>")
        assert out == "<a><!--c--><?t d?></a>"

    def test_declaration_option(self):
        out = serialize(build_tree(parse("<a/>")), omit_declaration=False)
        assert out.startswith("<?xml")

    def test_double_roundtrip_stable(self):
        text = ('<catalog xmlns="urn:c" xmlns:m="urn:m">'
                '<product m:id="1">A &amp; B<price>9.99</price></product>'
                '</catalog>')
        once = self.roundtrip(text)
        twice = self.roundtrip(once)
        assert once == twice


@st.composite
def xml_trees(draw, depth=3):
    """Random small XDM trees for roundtrip property tests."""
    from repro.xdm.nodes import element
    name = draw(st.sampled_from(["a", "b", "item", "n-x"]))
    attrs = draw(st.dictionaries(
        st.sampled_from(["id", "v", "w"]),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=8),
        max_size=2))
    children = []
    if depth > 0:
        n_children = draw(st.integers(min_value=0, max_value=3))
        for _ in range(n_children):
            if draw(st.booleans()):
                children.append(draw(xml_trees(depth=depth - 1)))
            else:
                text = draw(st.text(
                    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    min_size=1, max_size=10))
                # Adjacent text nodes coalesce on reparse; merge them here so
                # node counts are comparable.
                if children and isinstance(children[-1], str):
                    children[-1] += text
                else:
                    children.append(text)
    return element(name, attrs=attrs, children=children)


class TestRoundtripProperty:
    @settings(max_examples=50, deadline=None)
    @given(xml_trees())
    def test_serialize_parse_preserves_structure(self, tree):
        from repro.xdm.nodes import document, node_count
        doc = document(tree)
        text = serialize(doc)
        reparsed = build_tree(parse(text))
        assert node_count(reparsed) == node_count(doc)
        assert reparsed.string_value() == doc.string_value()
        # The parser normalizes attribute order (§3.2), so idempotence holds
        # from the first reparse onward.
        normalized = serialize(reparsed)
        assert serialize(build_tree(parse(normalized))) == normalized
