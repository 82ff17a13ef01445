"""Non-validating XML parser (Fig. 4, right-hand path).

A from-scratch, namespace-aware parser "custom-made for high-performance"
(§3.2): one left-to-right pass of compiled-regex token matches (text run,
start tag with its attributes, end tag) on one explicit stack of open
elements, with no intermediate DOM.  Entities, comments, CDATA, PIs, the
prolog and every malformed construct go step by step, so a rejection names
the position a character-by-character scan would.  Two interfaces:

* :func:`parse_sax` — one callback per event.  The engine's insert path
  (:meth:`repro.xmlstore.store.XmlStore.prepare_text`) collects them in a
  list and feeds the record packer, which numbers the nodes, directly;
* :func:`parse` — a buffered :class:`~repro.xdm.tokens.TokenStream`, with
  prefixes resolved and namespace/attribute order adjusted: the input of
  schema validation and one of experiment E4's front ends.

The recognized grammar covers the XML 1.0 constructs the engine stores:
prolog, DOCTYPE (skipped), elements, attributes, character data with the five
predefined entities and numeric character references, CDATA sections,
comments, and processing instructions.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.errors import XmlParseError
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.tokens import TokenStream

_PREDEFINED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "apos": "'", "quot": '"'}

_XML_NS = "http://www.w3.org/XML/1998/namespace"

#: The namespace scope outside the document element ("" is the default).
_DOCUMENT_SCOPE = {"": "", "xml": _XML_NS}

#: A character outside XML 1.0's ``Char`` production: C0 controls other
#: than tab, LF and CR, lone surrogates, U+FFFE and U+FFFF.
_NOT_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_CHAR_REF = re.compile("#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")

#: Deepest element nesting a document may have.  The parser, the packer and
#: the stored-record readers keep their own stacks, but in-memory XDM trees
#: are still walked by recursion once per level (``Node.descendants_or_self``
#: and the DOM evaluator's ``_descendants_or_self``): without a bound a
#: hostile document would exhaust the interpreter stack there instead of
#: getting an XmlParseError here.
MAX_DEPTH = 256

# A name starts with an ASCII letter, "_", ":" or any non-ASCII character
# and goes on with those, digits, "." and "-": classes written as the ASCII
# they exclude, since a class spanning Unicode takes milliseconds to compile.
# The lookahead keeps a name whole: no match splits one to fit a later part.
_NAME_CHAR = r"[^\x00-\x2c\x2f\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]"
_NAME = rf"[^\x00-\x39\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]{_NAME_CHAR}*(?!{_NAME_CHAR})"
_WS = "[ \t\r\n]*"
_NAME_RE = re.compile(_NAME)
_WS_RE = re.compile(_WS)
#: One well-formed attribute: name, then a double- or single-quoted value.
_ATTR = re.compile(f"{_WS}({_NAME}){_WS}={_WS}(?:\"([^\"<]*)\"|'([^'<]*)')")
#: The well-formed content tokens; ``lastindex`` tells them apart: 1 a text
#: run; 4 a start tag (2 its name, 3 its attributes, 4 "/" if empty); 5 an
#: end tag.  Anything else is left to the step-by-step path.
_TOKEN = re.compile(
    "([^<&]+)"
    f"|<({_NAME})((?:{_WS}{_NAME}{_WS}={_WS}(?:\"[^\"<]*\"|'[^'<]*'))*)"
    f"{_WS}(/?)>"
    f"|</({_NAME}){_WS}>")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")


def _error(text: str, pos: int, message: str) -> XmlParseError:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return XmlParseError(f"{message} at line {line}, column {col}")


def _name(text: str, pos: int) -> re.Match[str]:
    name = _NAME_RE.match(text, pos)
    if name is None:
        raise _error(text, pos, "expected a name")
    return name


def _find(text: str, token: str, pos: int, what: str) -> int:
    """Index of ``token`` at or after ``pos``; else "unterminated what"."""
    end = text.find(token, pos)
    if end < 0:
        raise _error(text, pos, f"unterminated {what}")
    return end


class XmlParser:
    """Namespace-aware streaming parser.

    Args:
        strip_whitespace: Drop text nodes that are entirely whitespace
            (boundary whitespace), the common data-centric configuration.
    """

    def __init__(self, strip_whitespace: bool = False) -> None:
        self.strip_whitespace = strip_whitespace

    # -- public interfaces ----------------------------------------------------

    def parse(self, text: str) -> TokenStream:
        """Parse into a buffered token stream (validation and E4)."""
        stream = TokenStream()
        self._run(text, stream.append_event)
        return stream

    def parse_sax(self, text: str, handler: Callable[[SaxEvent], None]) -> None:
        """Parse invoking ``handler`` once per event (the insert path)."""
        self._run(text, handler)

    # -- document ----------------------------------------------------------------

    def _run(self, text: str, emit: Callable[[SaxEvent], None]) -> None:
        bad = _NOT_CHAR.search(text)
        if bad is not None:
            raise _error(text, bad.start(), f"character U+{ord(bad[0]):04X} is not allowed in XML")
        emit(SaxEvent(EventKind.DOC_START))
        pos = _WS_RE.match(text, 1 if text.startswith("\ufeff") else 0).end()
        if text.startswith("<?xml", pos):
            pos = _find(text, "?>", pos, "XML declaration") + 2
        pos = self._misc(text, pos, emit, prolog=True)
        if not text.startswith("<", pos):
            raise _error(text, pos, "expected the document element")
        pos = self._misc(text, self._element(text, pos, emit), emit, prolog=False)
        if pos < len(text):
            raise _error(text, pos, "content after the document element")
        emit(SaxEvent(EventKind.DOC_END))

    def _misc(self, text: str, pos: int, emit, prolog: bool) -> int:
        """Skip whitespace, comments, PIs (and in the prolog a DOCTYPE)."""
        while True:
            pos = _WS_RE.match(text, pos).end()
            if text.startswith("<!--", pos):
                pos = self._comment(text, pos + 4, emit)
            elif prolog and text.startswith("<!DOCTYPE", pos):
                pos = _skip_doctype(text, pos + 9)
            elif text.startswith("<?", pos):
                pos = self._pi(text, pos + 2, emit)
            else:
                return pos

    # -- the document element ----------------------------------------------------

    def _element(self, text: str, pos: int, emit) -> int:
        """Parse the document element at ``pos``; returns the end position."""
        strip = self.strip_whitespace
        # (qname, local, uri, namespace scope) of every open element.
        stack: list[tuple[str, str, str, dict[str, str]]] = []
        parts: list[str] = []  # character data not yet emitted
        match = _TOKEN.match
        length = len(text)
        while True:
            m = match(text, pos)
            kind = m.lastindex if m is not None else 0
            if not stack and kind != 4:
                kind = -1  # the document element, found step by step
            elif kind == 1:
                parts.append(m[1])  # type: ignore[index]
                pos = m.end()  # type: ignore[union-attr]
                continue
            elif kind == 0:
                if pos >= length:
                    raise _error(text, pos, "unterminated element content")
                if text[pos] == "&":
                    end = _find(text, ";", pos + 1, "entity reference") + 1
                    parts.append(_decode_entity(text, text[pos + 1:end - 1],
                                                end))
                    pos = end
                    continue
                if text.startswith("<![CDATA[", pos):
                    end = _find(text, "]]>", pos + 9, "CDATA section")
                    parts.append(text[pos + 9:end])
                    pos = end + 3
                    continue
            if parts:
                data = parts[0] if len(parts) == 1 else "".join(parts)
                parts.clear()
                if not strip or data.strip():
                    emit(SaxEvent(EventKind.TEXT, "", "", data))
            if kind == 5 or kind == 0 and text.startswith("</", pos):
                qname, local, uri, _scope = stack.pop()
                pos = _end_tag(text, pos, m, qname)
                emit(SaxEvent(EventKind.ELEM_END, local, uri))
                if not stack:
                    return pos
            elif kind == 0 and text.startswith("<!--", pos):
                pos = self._comment(text, pos + 4, emit)
            elif kind == 0 and text.startswith("<?", pos):
                pos = self._pi(text, pos + 2, emit)
            else:
                pos = _start_tag(text, pos, m if kind == 4 else None,
                                 stack, emit)
                if not stack:
                    return pos  # an empty document element

    def _comment(self, text: str, pos: int, emit) -> int:
        end = _find(text, "-->", pos, "comment")
        body = text[pos:end]
        if "--" in body:
            raise _error(text, end + 3, "'--' inside a comment")
        emit(SaxEvent(EventKind.COMMENT, value=body))
        return end + 3

    def _pi(self, text: str, pos: int, emit) -> int:
        name = _name(text, pos)
        target, pos = name[0], name.end()
        if target.lower() == "xml":
            raise _error(text, pos,
                         "processing instruction target 'xml' is reserved")
        end = _find(text, "?>", pos, "processing instruction")
        emit(SaxEvent(EventKind.PI, local=target, value=text[pos:end].lstrip()))
        return end + 2


# -- tags -------------------------------------------------------------------------

def _start_tag(text: str, pos: int, m: re.Match[str] | None,
               stack: list[tuple[str, str, str, dict[str, str]]],
               emit) -> int:
    """Emit the start tag at ``pos``, pushing it on ``stack`` unless empty.

    ``m`` is its :data:`_TOKEN` match, or ``None`` to scan it step by step.
    Returns the position after the tag.
    """
    if len(stack) >= MAX_DEPTH:
        raise _error(text, pos, f"elements nested deeper than {MAX_DEPTH} levels")
    raw: dict[str, str] = {}
    if m is not None:
        qname, empty, end = m[2], m[4] == "/", m.end()
        if m[3]:
            for attr in _ATTR.finditer(text, m.start(3), m.end(3)):
                _add_attribute(text, raw, attr[1], attr[2] if attr[3] is None
                               else attr[3], attr.end())
    else:
        qname, empty, end = _scan_start_tag(text, pos, raw)
    close = end - 2 if empty else end - 1  # the "/>" or ">": errors below
    parent = stack[-1][3] if stack else _DOCUMENT_SCOPE
    scope = parent
    declarations: list[tuple[str, str]] = []
    plain: list[tuple[str, str]] = []
    for name, value in raw.items():
        if name == "xmlns":
            prefix = ""
        elif name.startswith("xmlns:"):
            prefix = name[6:]
            if not prefix:
                raise _error(text, close, "empty namespace prefix")
        else:
            plain.append((name, value))
            continue
        if scope is parent:
            scope = dict(parent)
        scope[prefix] = value
        declarations.append((prefix, value))
    local, uri = _resolve(text, close, qname, scope, attribute=False)
    emit(SaxEvent(EventKind.ELEM_START, local, uri))
    # "namespace and attribute order adjusted" (§3.2): declarations by
    # prefix, attributes by (uri, local).
    for prefix, value in sorted(declarations):
        emit(SaxEvent(EventKind.NS, local=prefix, value=value))
    if plain:
        resolved: dict[tuple[str, str], str] = {}
        for name, value in plain:
            a_local, a_uri = _resolve(text, close, name, scope, attribute=True)
            if (a_uri, a_local) in resolved:
                raise _error(text, close, f"attribute {a_local!r} bound twice "
                                          f"in namespace {a_uri!r}")
            resolved[(a_uri, a_local)] = value
        for (a_uri, a_local), value in sorted(resolved.items()):
            emit(SaxEvent(EventKind.ATTR, a_local, a_uri, value))
    if empty:
        emit(SaxEvent(EventKind.ELEM_END, local, uri))
    else:
        stack.append((qname, local, uri, scope))
    return end


def _scan_start_tag(text: str, pos: int,
                    raw: dict[str, str]) -> tuple[str, bool, int]:
    """The start tag at ``pos``, one step at a time: every malformed tag
    is rejected here.  Fills ``raw``; returns ``(qname, empty, end)``."""
    name = _name(text, pos + 1)
    qname, pos = name[0], name.end()
    while True:
        pos = _WS_RE.match(text, pos).end()
        if text.startswith((">", "/>"), pos):
            empty = text.startswith("/", pos)
            return qname, empty, pos + 1 + empty
        if pos >= len(text):
            raise _error(text, pos, f"unterminated start tag <{qname}>")
        name = _name(text, pos)
        pos = _WS_RE.match(text, name.end()).end()
        if not text.startswith("=", pos):
            raise _error(text, pos, "expected '='")
        pos = _WS_RE.match(text, pos + 1).end()
        quote = text[pos:pos + 1]  # "" at the end of the input
        if quote not in "'\"":
            raise _error(text, pos, "attribute value must be quoted")
        end = _find(text, quote, pos + 1, "attribute value")
        _add_attribute(text, raw, name[0], text[pos + 1:end], end + 1)
        pos = end + 1


def _add_attribute(text: str, raw: dict[str, str], name: str, value: str,
                   pos: int) -> None:
    if "<" in value:
        raise _error(text, pos, "'<' in attribute value")
    if name in raw:
        raise _error(text, pos, f"duplicate attribute {name!r}")
    raw[name] = _expand_entities(text, value, pos) if "&" in value else value


def _end_tag(text: str, pos: int, m: re.Match[str] | None, qname: str) -> int:
    """Check the end tag at ``pos`` closes ``qname``; returns its end."""
    if m is not None:
        if m[5] != qname:
            raise _error(text, m.end(5),
                         f"mismatched end tag </{m[5]}> for <{qname}>")
        return m.end()
    name = _name(text, pos + 2)
    if name[0] != qname:
        raise _error(text, name.end(),
                     f"mismatched end tag </{name[0]}> for <{qname}>")
    pos = _WS_RE.match(text, name.end()).end()
    if not text.startswith(">", pos):
        raise _error(text, pos, "expected '>'")
    return pos + 1


def _skip_doctype(text: str, pos: int) -> int:
    depth = 0
    for mark in _DOCTYPE_MARK.finditer(text, pos):
        if mark[0] == "[":
            depth += 1
        elif mark[0] == "]":
            depth -= 1
        elif depth == 0:
            return mark.end()
    raise _error(text, len(text), "unterminated DOCTYPE")


# -- names and entities -----------------------------------------------------------

def _resolve(text: str, pos: int, qname: str, scope: dict[str, str],
             attribute: bool) -> tuple[str, str]:
    if ":" not in qname:  # unprefixed attributes have no namespace
        return qname, "" if attribute else scope.get("", "")
    prefix, _, local = qname.partition(":")
    if not local or ":" in local:
        raise _error(text, pos, f"malformed qualified name {qname!r}")
    uri = scope.get(prefix)
    if uri is None:
        raise _error(text, pos, f"unbound namespace prefix {prefix!r}")
    return local, uri


def _expand_entities(text: str, raw: str, pos: int) -> str:
    parts: list[str] = []
    start = 0
    while (amp := raw.find("&", start)) >= 0:
        semi = raw.find(";", amp)
        if semi < 0:
            raise _error(text, pos, "unterminated entity in attribute value")
        parts += raw[start:amp], _decode_entity(text, raw[amp + 1:semi], pos)
        start = semi + 1
    parts.append(raw[start:])
    return "".join(parts)


def _decode_entity(text: str, body: str, pos: int) -> str:
    if body.startswith("#"):
        ref = _CHAR_REF.fullmatch(body)
        code = -1 if ref is None else \
            int(ref[1], 16) if ref[1] else int(ref[2])
        if not 0 <= code <= 0x10FFFF or _NOT_CHAR.match(chr(code)):
            raise _error(text, pos, f"bad character reference &{body};")
        return chr(code)
    expansion = _PREDEFINED_ENTITIES.get(body)
    if expansion is None:
        raise _error(text, pos, f"unknown entity &{body};")
    return expansion


def parse(text: str, strip_whitespace: bool = False) -> TokenStream:
    """Parse ``text`` into a buffered token stream."""
    return XmlParser(strip_whitespace=strip_whitespace).parse(text)


def parse_sax(text: str, handler: Callable[[SaxEvent], None],
              strip_whitespace: bool = False) -> None:
    """Parse ``text`` calling ``handler`` per event."""
    XmlParser(strip_whitespace=strip_whitespace).parse_sax(text, handler)
