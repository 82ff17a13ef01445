"""XML serialization (Fig. 8, "serialization services").

The serializer is one of the three shared runtime tasks: it consumes virtual
SAX events from *any* iterator (token stream, persistent records, constructed
data), or pushed one at a time by a driver, and produces the textual XML
string, generating namespace declarations on demand.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import XmlError
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.nodes import Node
from repro.xdm.events import events_from_tree

_XML_NS = "http://www.w3.org/XML/1998/namespace"


def _escape_text(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _escape_attr(text: str) -> str:
    return (_escape_text(text).replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;"))


class _PendingElement:
    __slots__ = ("local", "uri", "attrs", "declarations")

    def __init__(self, local: str, uri: str) -> None:
        self.local = local
        self.uri = uri
        self.attrs: list[tuple[str, str, str]] = []
        self.declarations: list[tuple[str, str]] = []


class Serializer:
    """One event stream to XML text: :meth:`feed` each event in turn, then
    :meth:`finish` for the text.  A producer that drives its own loop (the
    stored records' driver) pushes into it, building no event list."""

    def __init__(self, omit_declaration: bool = True) -> None:
        self._out: list[str] = [] if omit_declaration else [
            '<?xml version="1.0" encoding="UTF-8"?>']
        # Namespace scopes: prefix -> uri.
        self._scopes: list[dict[str, str]] = [{"": "", "xml": _XML_NS}]
        # (prefix, local) of the open tags.
        self._open_names: list[tuple[str, str]] = []
        self._pending: _PendingElement | None = None
        self._generated = 0

    def feed(self, event: SaxEvent) -> None:
        """Take the next event of the stream."""
        kind = event.kind
        if kind is EventKind.ELEM_START:
            self._flush_pending()
            self._pending = _PendingElement(event.local, event.uri)
        elif kind is EventKind.TEXT:
            self._flush_pending()
            self._out.append(_escape_text(event.value))
        elif kind is EventKind.ELEM_END:
            if self._pending is not None:
                self._flush_pending(self_closing=True)
            else:
                if not self._open_names:
                    raise XmlError("unbalanced element end event")
                prefix, local = self._open_names.pop()
                self._scopes.pop()
                tag = f"{prefix}:{local}" if prefix else local
                self._out.append(f"</{tag}>")
        elif kind is EventKind.ATTR:
            if self._pending is None:
                raise XmlError("attribute event outside an element start")
            self._pending.attrs.append((event.local, event.uri, event.value))
        elif kind is EventKind.NS:
            if self._pending is None:
                raise XmlError("namespace event outside an element start")
            self._pending.declarations.append((event.local, event.value))
        elif kind is EventKind.DOC_START or kind is EventKind.DOC_END:
            self._flush_pending()
        elif kind is EventKind.COMMENT:
            self._flush_pending()
            self._out.append(f"<!--{event.value}-->")
        elif kind is EventKind.PI:
            self._flush_pending()
            body = f" {event.value}" if event.value else ""
            self._out.append(f"<?{event.local}{body}?>")
        else:  # pragma: no cover - exhaustive
            raise XmlError(f"unknown event kind {kind}")

    def finish(self) -> str:
        """The text of the events fed so far, which must be balanced."""
        self._flush_pending()
        if self._open_names:
            raise XmlError("unterminated elements in event stream")
        return "".join(self._out)

    def _flush_pending(self, self_closing: bool = False) -> None:
        pending = self._pending
        if pending is None:
            return
        scope = dict(self._scopes[-1])
        declarations = list(pending.declarations)
        for prefix, uri in declarations:
            scope[prefix] = uri

        def prefix_for(uri: str, for_attribute: bool) -> str:
            if uri == _XML_NS:
                return "xml"
            if not for_attribute and scope.get("") == uri:
                return ""
            if uri:
                for known_prefix, known_uri in scope.items():
                    if known_uri == uri and known_prefix not in ("", "xml"):
                        return known_prefix
            if not for_attribute:
                # (Re)declare the default namespace for this element.
                declarations.append(("", uri))
                scope[""] = uri
                return ""
            # An attribute in a namespace needs a real prefix.
            self._generated += 1
            prefix = f"ns{self._generated}"
            declarations.append((prefix, uri))
            scope[prefix] = uri
            return prefix

        elem_prefix = prefix_for(pending.uri, for_attribute=False)
        tag = f"{elem_prefix}:{pending.local}" if elem_prefix else pending.local
        parts = [f"<{tag}"]
        attr_texts = []
        for local, uri, value in pending.attrs:
            if uri:
                a_prefix = prefix_for(uri, for_attribute=True)
                attr_texts.append(f'{a_prefix}:{local}="{_escape_attr(value)}"')
            else:
                attr_texts.append(f'{local}="{_escape_attr(value)}"')
        for prefix, uri in sorted(set(declarations)):
            name = f"xmlns:{prefix}" if prefix else "xmlns"
            parts.append(f' {name}="{_escape_attr(uri)}"')
        for text in attr_texts:
            parts.append(" " + text)
        if self_closing:
            parts.append("/>")
        else:
            parts.append(">")
            self._scopes.append(scope)
            self._open_names.append((elem_prefix, pending.local))
        self._out.append("".join(parts))
        self._pending = None


def serialize(source: Node | Iterable[SaxEvent],
              omit_declaration: bool = True) -> str:
    """Serialize an XDM tree or an event stream to XML text."""
    if isinstance(source, Node):
        source = events_from_tree(source)
    serializer = Serializer(omit_declaration)
    feed = serializer.feed
    for event in source:
        feed(event)
    return serializer.finish()
