"""Non-validating XML parser (Fig. 4, right-hand path).

A from-scratch, namespace-aware parser "custom-made for high-performance"
(§3.2): a single left-to-right scan with no intermediate DOM.  Two output
interfaces are provided:

* :func:`parse` — the engine's own interface: a buffered
  :class:`~repro.xdm.tokens.TokenStream` with prefixes resolved and
  namespace/attribute order adjusted;
* :func:`parse_sax` — a per-event callback interface, kept as the baseline
  the paper argues *against* ("significant overhead of excessive procedure
  calls for event handling"); experiment E4 compares the two.

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

_PREDEFINED_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "apos": "'", "quot": '"',
}

_XML_NS = "http://www.w3.org/XML/1998/namespace"

#: A character outside XML 1.0's ``Char`` production: C0 controls other
#: than tab, LF and CR, lone surrogates, U+FFFE and U+FFFF.
_NOT_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_CHAR_REF = re.compile("#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")

#: Deepest element nesting a document may have.  The parser recurses once
#: per level, so without a bound a hostile document would exhaust the
#: interpreter stack (a server worker thread first) instead of getting an
#: :class:`XmlParseError`.
MAX_DEPTH = 256

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-·")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA or ord(ch) > 0x7F


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA or ord(ch) > 0x7F


class _Scanner:
    """Cursor over the document text with positioned error reporting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def error(self, message: str) -> XmlParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return XmlParseError(f"{message} at line {line}, column {col}")

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_ws(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, token: str, what: str) -> str:
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(token)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.eof() or not _is_name_start(self.text[self.pos]):
            raise self.error("expected a name")
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]


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
        """Parse into a buffered token stream (the engine path)."""
        stream = TokenStream()
        self._run(text, stream.append_event)
        return stream

    def parse_sax(self, text: str, handler: Callable[[SaxEvent], None]) -> None:
        """Parse invoking ``handler`` once per event (the baseline path)."""
        self._run(text, handler)

    # -- scanning core -----------------------------------------------------------

    def _run(self, text: str, emit: Callable[[SaxEvent], None]) -> None:
        scanner = _Scanner(text)
        bad = _NOT_CHAR.search(text)
        if bad is not None:
            scanner.pos = bad.start()
            raise scanner.error(
                f"character U+{ord(bad[0]):04X} is not allowed in XML")
        if scanner.startswith("﻿"):
            scanner.pos += 1
        emit(SaxEvent(EventKind.DOC_START))
        self._prolog(scanner, emit)
        if scanner.eof() or scanner.peek() != "<":
            raise scanner.error("expected the document element")
        # ns_stack maps prefix -> uri; "" is the default namespace.
        ns_stack: list[dict[str, str]] = [{"": "", "xml": _XML_NS}]
        self._element(scanner, emit, ns_stack)
        self._misc(scanner, emit)
        if not scanner.eof():
            raise scanner.error("content after the document element")
        emit(SaxEvent(EventKind.DOC_END))

    def _prolog(self, scanner: _Scanner, emit) -> None:
        scanner.skip_ws()
        if scanner.startswith("<?xml"):
            scanner.read_until("?>", "XML declaration")
        while True:
            scanner.skip_ws()
            if scanner.startswith("<!--"):
                scanner.pos += 4
                self._comment(scanner, emit)
            elif scanner.startswith("<!DOCTYPE"):
                self._doctype(scanner)
            elif scanner.startswith("<?"):
                scanner.pos += 2
                self._pi(scanner, emit)
            else:
                return

    def _misc(self, scanner: _Scanner, emit) -> None:
        while True:
            scanner.skip_ws()
            if scanner.startswith("<!--"):
                scanner.pos += 4
                self._comment(scanner, emit)
            elif scanner.startswith("<?"):
                scanner.pos += 2
                self._pi(scanner, emit)
            else:
                return

    def _doctype(self, scanner: _Scanner) -> None:
        scanner.pos += len("<!DOCTYPE")
        depth = 0
        while not scanner.eof():
            ch = scanner.peek()
            scanner.pos += 1
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth == 0:
                return
        raise scanner.error("unterminated DOCTYPE")

    def _comment(self, scanner: _Scanner, emit) -> None:
        body = scanner.read_until("-->", "comment")
        if "--" in body:
            raise scanner.error("'--' inside a comment")
        emit(SaxEvent(EventKind.COMMENT, value=body))

    def _pi(self, scanner: _Scanner, emit) -> None:
        target = scanner.read_name()
        if target.lower() == "xml":
            raise scanner.error("processing instruction target 'xml' is reserved")
        body = scanner.read_until("?>", "processing instruction")
        emit(SaxEvent(EventKind.PI, local=target, value=body.lstrip()))

    def _element(self, scanner: _Scanner, emit,
                 ns_stack: list[dict[str, str]]) -> None:
        # ns_stack holds the document scope plus one scope per open element.
        if len(ns_stack) > MAX_DEPTH:
            raise scanner.error(
                f"elements nested deeper than {MAX_DEPTH} levels")
        scanner.expect("<")
        qname = scanner.read_name()
        raw_attrs: list[tuple[str, str]] = []
        while True:
            scanner.skip_ws()
            ch = scanner.peek()
            if ch == ">" or scanner.startswith("/>"):
                break
            if scanner.eof():
                raise scanner.error(f"unterminated start tag <{qname}>")
            attr_name = scanner.read_name()
            scanner.skip_ws()
            scanner.expect("=")
            scanner.skip_ws()
            quote = scanner.peek()
            if quote not in "'\"":
                raise scanner.error("attribute value must be quoted")
            scanner.pos += 1
            raw_value = scanner.read_until(quote, "attribute value")
            if "<" in raw_value:
                raise scanner.error("'<' in attribute value")
            if any(name == attr_name for name, _ in raw_attrs):
                raise scanner.error(f"duplicate attribute {attr_name!r}")
            raw_attrs.append((attr_name, self._expand_entities(scanner, raw_value)))

        # Namespace processing: collect declarations first.
        scope = dict(ns_stack[-1])
        declarations: list[tuple[str, str]] = []
        plain_attrs: list[tuple[str, str]] = []
        for name, value in raw_attrs:
            if name == "xmlns":
                scope[""] = value
                declarations.append(("", value))
            elif name.startswith("xmlns:"):
                prefix = name[6:]
                if not prefix:
                    raise scanner.error("empty namespace prefix")
                scope[prefix] = value
                declarations.append((prefix, value))
            else:
                plain_attrs.append((name, value))
        ns_stack.append(scope)

        local, uri = self._resolve(scanner, qname, scope, is_attribute=False)
        emit(SaxEvent(EventKind.ELEM_START, local=local, uri=uri))
        # "namespace and attribute order adjusted" (§3.2): declarations by
        # prefix, attributes by (uri, local).
        for prefix, value in sorted(declarations):
            emit(SaxEvent(EventKind.NS, local=prefix, value=value))
        resolved_attrs = []
        seen: set[tuple[str, str]] = set()
        for name, value in plain_attrs:
            a_local, a_uri = self._resolve(scanner, name, scope, is_attribute=True)
            if (a_uri, a_local) in seen:
                raise scanner.error(
                    f"attribute {a_local!r} bound twice in namespace {a_uri!r}")
            seen.add((a_uri, a_local))
            resolved_attrs.append((a_uri, a_local, value))
        for a_uri, a_local, value in sorted(resolved_attrs):
            emit(SaxEvent(EventKind.ATTR, local=a_local, uri=a_uri, value=value))

        if scanner.startswith("/>"):
            scanner.pos += 2
            emit(SaxEvent(EventKind.ELEM_END, local=local, uri=uri))
            ns_stack.pop()
            return
        scanner.expect(">")
        self._content(scanner, emit, ns_stack)
        scanner.expect("</")
        end_qname = scanner.read_name()
        if end_qname != qname:
            raise scanner.error(
                f"mismatched end tag </{end_qname}> for <{qname}>")
        scanner.skip_ws()
        scanner.expect(">")
        emit(SaxEvent(EventKind.ELEM_END, local=local, uri=uri))
        ns_stack.pop()

    def _content(self, scanner: _Scanner, emit,
                 ns_stack: list[dict[str, str]]) -> None:
        text_parts: list[str] = []

        def flush_text() -> None:
            if not text_parts:
                return
            text = "".join(text_parts)
            text_parts.clear()
            if self.strip_whitespace and not text.strip():
                return
            emit(SaxEvent(EventKind.TEXT, value=text))

        while True:
            if scanner.eof():
                raise scanner.error("unterminated element content")
            ch = scanner.peek()
            if ch == "<":
                if scanner.startswith("</"):
                    flush_text()
                    return
                if scanner.startswith("<!--"):
                    flush_text()
                    scanner.pos += 4
                    self._comment(scanner, emit)
                elif scanner.startswith("<![CDATA["):
                    scanner.pos += 9
                    text_parts.append(scanner.read_until("]]>", "CDATA section"))
                elif scanner.startswith("<?"):
                    flush_text()
                    scanner.pos += 2
                    self._pi(scanner, emit)
                else:
                    flush_text()
                    self._element(scanner, emit, ns_stack)
            elif ch == "&":
                text_parts.append(self._entity(scanner))
            else:
                start = scanner.pos
                while (scanner.pos < scanner.length
                       and scanner.text[scanner.pos] not in "<&"):
                    scanner.pos += 1
                text_parts.append(scanner.text[start:scanner.pos])

    # -- helpers --------------------------------------------------------------

    def _resolve(self, scanner: _Scanner, qname: str, scope: dict[str, str],
                 is_attribute: bool) -> tuple[str, str]:
        if ":" in qname:
            prefix, _, local = qname.partition(":")
            if not local or ":" in local:
                raise scanner.error(f"malformed qualified name {qname!r}")
            uri = scope.get(prefix)
            if uri is None:
                raise scanner.error(f"unbound namespace prefix {prefix!r}")
            return local, uri
        if is_attribute:
            return qname, ""  # unprefixed attributes have no namespace
        return qname, scope.get("", "")

    def _entity(self, scanner: _Scanner) -> str:
        scanner.expect("&")
        body = scanner.read_until(";", "entity reference")
        return self._decode_entity(scanner, body)

    def _expand_entities(self, scanner: _Scanner, raw: str) -> str:
        if "&" not in raw:
            return raw
        parts: list[str] = []
        pos = 0
        while True:
            amp = raw.find("&", pos)
            if amp < 0:
                parts.append(raw[pos:])
                return "".join(parts)
            parts.append(raw[pos:amp])
            semi = raw.find(";", amp)
            if semi < 0:
                raise scanner.error("unterminated entity in attribute value")
            parts.append(self._decode_entity(scanner, raw[amp + 1:semi]))
            pos = semi + 1

    def _decode_entity(self, scanner: _Scanner, body: str) -> str:
        if body.startswith("#"):
            ref = _CHAR_REF.fullmatch(body)
            code = -1 if ref is None else \
                int(ref[1], 16) if ref[1] else int(ref[2])
            if not 0 <= code <= 0x10FFFF or _NOT_CHAR.match(chr(code)):
                raise scanner.error(f"bad character reference &{body};")
            return chr(code)
        expansion = _PREDEFINED_ENTITIES.get(body)
        if expansion is None:
            raise scanner.error(f"unknown entity &{body};")
        return expansion


def parse(text: str, strip_whitespace: bool = False) -> TokenStream:
    """Parse ``text`` into a buffered token stream."""
    return XmlParser(strip_whitespace=strip_whitespace).parse(text)


def parse_sax(text: str, handler: Callable[[SaxEvent], None],
              strip_whitespace: bool = False) -> None:
    """Parse ``text`` calling ``handler`` per event (baseline interface)."""
    XmlParser(strip_whitespace=strip_whitespace).parse_sax(text, handler)
