"""The parser's contract, pinned as a golden file.

``parser_golden.json`` holds, for a fixed corpus, the exact event list the
parser emits, and for every rejected input the error class and its
``line N, column M`` position.  Any rewrite of :mod:`repro.xdm.parser` must
reproduce both exactly.  Regenerate (only when the contract itself changes)
with::

    PYTHONPATH=src python -m tests.xdm.test_parser_golden
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.workload.generator import (catalog_document, figure6_document,
                                      random_tree, recursive_document)
from repro.xdm.parser import MAX_DEPTH, parse, parse_sax
from tests.xdm.test_hostile import REJECTED

GOLDEN = Path(__file__).with_name("parser_golden.json")

NAMESPACES = (
    '<r xmlns="urn:d" xmlns:p="urn:p" xml:lang="en">'
    '<p:a p:x="1" x="2" xmlns:q="urn:q" q:y="3"><b/>'
    '<c xmlns="">plain<p:d xmlns:p="urn:p2" p:z="4"/></c></p:a>'
    '<q xmlns:p="urn:p"/><p:e xmlns:z="urn:z" xmlns:a="urn:a"/></r>')

ATTRIBUTES = (
    "<item z='26' a=\"1\" m = '13'\n\tb='2'c=\"3\" k='a \"quoted\" >'"
    " e='&amp;&lt;&gt;&apos;&quot;' f=\"tab\there\nnl\" g=''>"
    "<sub h='x&#65;&#x42;y'/></item>")

ENTITIES = ("<t>a &amp; b &lt;c&gt; &apos;d&quot; &#65;&#x42;&#X43; &#x1F600;"
            "&#233;x<u>&amp;</u>&#x20;&#32;</t>")

MIXED = ('\ufeff<?xml version="1.0" encoding="UTF-8"?>\n'
         '<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)> <!ATTLIST doc a CDATA "v">]>'
         '\n<!-- prolog comment --><?pi-before data?>\n'
         '<doc>\n  <![CDATA[<raw & text>]]>tail<![CDATA[]]>\n'
         '  <!-- in content --><?target  some data ?><?bare?>\n'
         '  <e>  </e><e> <![CDATA[ ]]> </e><e>\r\n</e><e>\u00a0</e>'
         '<e>]]&gt;]]></e>'
         '  <café naïve="ü">ñ</café><a.b-c_d·e/><_x:y xmlns:_x="urn:x"/>\n'
         '</doc >\n<!-- after --><?post?>  \n')

#: Documents whose event list is pinned, with ``strip_whitespace``.
CORPUS = {
    "catalog": (catalog_document(4, seed=1), False),
    "catalog stripped": (catalog_document(2, seed=2), True),
    "recursive": (recursive_document(12), False),
    "recursive at the depth limit": (recursive_document(MAX_DEPTH), False),
    "figure 6": (figure6_document(3, seed=3), False),
    "random tree": (random_tree(40, seed=4), False),
    "namespaces": (NAMESPACES, False),
    "attributes": (ATTRIBUTES, False),
    "entities": (ENTITIES, False),
    "mixed": (MIXED, False),
    "mixed stripped": (MIXED, True),
    "xml-prefixed PI first": ("<?xml-stylesheet href='s'?><?xml-x d?><a/>",
                              False),
    "empty and spaced tags": ("<a ><b/><c /><d\n></d\n><e></e></a>", False),
}

#: Malformed start/end tags, names and attribute lists.
MALFORMED = {
    "bad name start": "<1tag/>",
    "bad child name": "<a><-b/></a>",
    "space before name": "< a/>",
    "bad attribute name": "<a .x='1'/>",
    "unquoted value": "<a foo=bar/>",
    "missing equals": "<a x '1'/>",
    "missing value": "<a x=/>",
    "value at end of input": "<a x=",
    "unterminated value": "<a x='1/>",
    "'<' in value": '<a x="<"/>',
    "'<' in a later value": "<a x='1' y=\"a<b\"/>",
    "duplicate attribute": '<a x="1" x="2"/>',
    "duplicate before a '<'": "<a x='1' x='2' y='<'/>",
    "double-bound attribute": '<a xmlns:p="u" xmlns:q="u" p:x="1" q:x="2"/>',
    "unbound element prefix": "<p:a/>",
    "unbound attribute prefix": '<a p:x="1"/>',
    "empty namespace prefix": '<a xmlns:="urn:x"/>',
    "malformed qname": "<a:b:c/>",
    "empty local name": "<a:/>",
    "bad entity in value": "<a x='&bogus;'/>",
    "unterminated entity in value": "<a x='&amp'/>",
    "bad char ref in value": "<a x='&#xZZ;'/>",
    "slash then space": "<a / >",
    "junk in start tag": '<a "x"/>',
    "attribute glued to the name": "<ab='1'/>",
    "unterminated start tag": "<a x='1'",
    "mismatched end tag": "<a></b>",
    "crossed end tags": "<a><b></a></b>",
    "mismatched and unclosed end tag": "<a></b x>",
    "junk in end tag": "<a></a x>",
    "space before end name": "<a></ a>",
    "end tag at end of input": "<a>x</a",
    "end tag first": "</a>",
    "unterminated content": "<a>text",
    "unknown entity": "<a>&nope;</a>",
    "empty entity": "<a>&;</a>",
    "unterminated entity": "<a>&amp</a>",
    "entity reaching past a tag": "<a>&amp</a>;",
    "bad char ref": "<a>&#xZZ;</a>",
    "empty char ref": "<a>&#;</a>",
    "double hyphen in comment": "<a><!-- -- --></a>",
    "unterminated comment": "<a><!-- x</a>",
    "unterminated CDATA": "<a><![CDATA[x</a>",
    "unterminated PI": "<a><?p x</a>",
    "PI without target": "<a><??></a>",
    "reserved PI target": "<a><?xml x?></a>",
    "reserved PI target in prolog": "<?xml version='1.0'?><?XML x?><a/>",
    "unterminated declaration": "<?xml version='1.0'",
    "unterminated DOCTYPE": "<!DOCTYPE a [<!ENTITY x 'y'>",
    "DOCTYPE in content": "<a><!DOCTYPE a></a>",
    "CDATA before the root": "<![CDATA[x]]><a/>",
    "empty input": "",
    "whitespace only": " \n\t",
    "prolog only": "<?xml version='1.0'?><!-- c --><?p?>",
    "text before the root": "x<a/>",
    "two roots": "<a/><b/>",
    "text after the root": "<a/><!-- c --><?p?>x",
    "DOCTYPE after the root": "<a/><!DOCTYPE a>",
    "too deep": "<a>" * (MAX_DEPTH + 1) + "</a>" * (MAX_DEPTH + 1),
    "too deep at a bad tag": "<a>" * MAX_DEPTH + "<!x>",
    "error on a later line": "<a>\n<b></c>\n</a>",
    "control character": "<a>\x01</a>",
}

_POSITION = re.compile(r"at (line \d+, column \d+)$")


def _events(text: str, strip_whitespace: bool) -> list[list]:
    """The callback interface's events; the token stream must agree.

    The token stream stores no URI on an end tag, so that one field is
    compared blank.
    """
    collected: list = []
    parse_sax(text, collected.append, strip_whitespace=strip_whitespace)
    rows = [[event.kind.name, event.local, event.uri, event.value]
            for event in collected]
    buffered = [[event.kind.name, event.local, event.uri, event.value]
                for event in parse(text, strip_whitespace).events()]
    assert buffered == [[kind, local, "" if kind == "ELEM_END" else uri,
                         value] for kind, local, uri, value in rows]
    return rows


def _rejection(text: str) -> list[str]:
    try:
        parse(text)
    except ReproError as exc:
        position = _POSITION.search(str(exc))
        return [type(exc).__name__, position[1] if position else ""]
    raise AssertionError(f"{text[:40]!r} was accepted")


def _rejected_inputs() -> dict[str, str]:
    return {**{f"hostile: {name}": text for name, text in REJECTED.items()},
            **MALFORMED}


def generate() -> dict:
    return {
        "events": {name: _events(text, strip)
                   for name, (text, strip) in CORPUS.items()},
        "errors": {name: _rejection(text)
                   for name, text in _rejected_inputs().items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(CORPUS))
def test_events_match_the_golden(golden, name):
    text, strip = CORPUS[name]
    assert _events(text, strip) == golden["events"][name]


@pytest.mark.parametrize("name", list(_rejected_inputs()))
def test_error_class_and_position_match_the_golden(golden, name):
    assert _rejection(_rejected_inputs()[name]) == golden["errors"][name]


def test_golden_covers_the_whole_corpus(golden):
    assert set(golden["events"]) == set(CORPUS)
    assert set(golden["errors"]) == set(_rejected_inputs())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=0, ensure_ascii=True)
                      + "\n", encoding="utf-8")
