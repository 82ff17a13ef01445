"""Buffered token streams (§3.2).

"To reduce the overhead, we use a proprietary parsing and validation
interface, which is the buffered token stream.  The token stream is a binary
stream of tokens with namespace prefixes resolved, namespace and attribute
order adjusted, and optionally with type annotation if a document is
Schema-validated."  (§3.2; similar to the BEA/XQRL stream [10].)

A :class:`TokenStream` is a single ``bytes`` buffer; producers append encoded
tokens, consumers decode them in one pass.  Compared to the per-event SAX
interface this amortizes call overhead — experiment E4 measures exactly this
difference.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from repro.errors import XmlError
from repro.rdb import codec
from repro.xdm.events import EventKind, SaxEvent

#: Token kinds are the event kinds; annotations ride on ELEM_START/ATTR.
TokenKind = EventKind

_HAS_ANNOTATION = 0x80


class TokenStream:
    """An append-only binary buffer of XML tokens."""

    def __init__(self, data: bytes | bytearray | None = None) -> None:
        self._buf = bytearray(data) if data is not None else bytearray()
        self.token_count = 0 if data is None else sum(1 for _ in self)

    # -- producing ----------------------------------------------------------

    def append(self, kind: TokenKind, local: str = "", uri: str = "",
               value: str = "", annotation: str | None = None) -> None:
        """Encode one token onto the buffer."""
        flags = int(kind)
        if annotation is not None:
            flags |= _HAS_ANNOTATION
        self._buf.append(flags)
        if kind in (TokenKind.ELEM_START, TokenKind.ELEM_END,
                    TokenKind.ATTR, TokenKind.PI, TokenKind.NS):
            codec.write_str(self._buf, local)
        if kind in (TokenKind.ELEM_START, TokenKind.ATTR):
            codec.write_str(self._buf, uri)
        if kind in (TokenKind.ATTR, TokenKind.TEXT, TokenKind.COMMENT,
                    TokenKind.PI, TokenKind.NS):
            codec.write_str(self._buf, value)
        if annotation is not None:
            codec.write_str(self._buf, annotation)
        self.token_count += 1

    def append_event(self, event: SaxEvent) -> None:
        """Append a virtual SAX event as a token."""
        self.append(event.kind, event.local, event.uri, event.value)

    # -- consuming -----------------------------------------------------------

    def __iter__(self) -> Iterator[SaxEvent]:
        return self.events()

    def events(self) -> Iterator[SaxEvent]:
        """Decode the buffer into virtual SAX events (Fig. 8 iterator)."""
        return map(itemgetter(0), self.annotated_events())

    def annotated_events(self) -> Iterator[tuple[SaxEvent, str | None]]:
        """Decode the buffer into ``(event, schema type annotation)`` pairs."""
        buf = self._buf
        pos = 0
        end = len(buf)
        while pos < end:
            flags = buf[pos]
            pos += 1
            try:
                kind = TokenKind(flags & ~_HAS_ANNOTATION)
            except ValueError:
                raise XmlError(f"corrupt token stream (kind byte {flags})") from None
            local = uri = value = ""
            if kind in (TokenKind.ELEM_START, TokenKind.ELEM_END,
                        TokenKind.ATTR, TokenKind.PI, TokenKind.NS):
                local, pos = codec.read_str(buf, pos)
            if kind in (TokenKind.ELEM_START, TokenKind.ATTR):
                uri, pos = codec.read_str(buf, pos)
            if kind in (TokenKind.ATTR, TokenKind.TEXT, TokenKind.COMMENT,
                        TokenKind.PI, TokenKind.NS):
                value, pos = codec.read_str(buf, pos)
            annotation: str | None = None
            if flags & _HAS_ANNOTATION:
                annotation, pos = codec.read_str(buf, pos)
            yield SaxEvent(kind, local, uri, value), annotation

    # -- introspection --------------------------------------------------------

    @property
    def byte_size(self) -> int:
        """Encoded size of the buffer."""
        return len(self._buf)

    def to_bytes(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return self.token_count
