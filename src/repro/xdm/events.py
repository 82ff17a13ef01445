"""Virtual SAX: the one event vocabulary every runtime component speaks.

Figure 8's runtime attaches an *iterator* to whatever form the XML data is in
(token stream, persistent records, constructed data, in-memory sequence) and
converts each item into "a virtual SAX-like event, which is a set of
parameters required by the routines performing the task" (§4.4).  Tree
construction, serialization and XPath evaluation are all written against
:class:`SaxEvent` streams, so no unified in-memory tree is ever materialized.

Adapters provided here cover in-memory trees; the token-stream adapter lives
in :mod:`repro.xdm.tokens` and the persistent-record adapter in
:mod:`repro.xmlstore.traversal`.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from repro.errors import XmlError
from repro.xdm.nodes import (AttributeNode, CommentNode, DocumentNode,
                             ElementNode, Node,
                             ProcessingInstructionNode, TextNode)


class EventKind(enum.IntEnum):
    """Virtual SAX event kinds (one per token/storage item kind)."""

    DOC_START = 0
    DOC_END = 1
    ELEM_START = 2
    ELEM_END = 3
    ATTR = 4
    TEXT = 5
    NS = 6
    COMMENT = 7
    PI = 8


class SaxEvent:
    """One virtual SAX event.

    Attributes:
        kind: The :class:`EventKind`.
        local: Element/attribute local name, PI target, or namespace prefix.
        uri: Namespace URI for named events.
        value: Attribute value, text content, comment text, PI data, or the
            declared URI for NS events.
        node_id: Dewey absolute node ID when the source assigns them
            (persistent data, tree construction); ``None`` for raw streams.
    """

    __slots__ = ("kind", "local", "uri", "value", "node_id")

    def __init__(self, kind: EventKind, local: str = "", uri: str = "",
                 value: str = "", node_id: bytes | None = None) -> None:
        self.kind = kind
        self.local = local
        self.uri = uri
        self.value = value
        self.node_id = node_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SaxEvent):
            return NotImplemented
        return (self.kind, self.local, self.uri, self.value, self.node_id) == \
            (other.kind, other.local, other.uri, other.value, other.node_id)

    def __repr__(self) -> str:
        bits = [self.kind.name]
        if self.local:
            bits.append(self.local)
        if self.value:
            bits.append(repr(self.value[:24]))
        return f"SaxEvent({' '.join(bits)})"


def events_from_tree(node: Node, emit_document: bool = True
                     ) -> Iterator[SaxEvent]:
    """Iterator adapter for in-memory XDM trees (Fig. 8, "constructed data").

    Iterative (explicit stack) so arbitrarily deep trees do not overflow the
    Python recursion limit.
    """
    if isinstance(node, DocumentNode):
        if emit_document:
            yield SaxEvent(EventKind.DOC_START, node_id=node.node_id)
        for child in node.children():
            yield from events_from_tree(child, emit_document=False)
        if emit_document:
            yield SaxEvent(EventKind.DOC_END)
        return

    # (node, phase) stack; phase 0 = enter, 1 = leave.
    stack: list[tuple[Node, int]] = [(node, 0)]
    while stack:
        current, phase = stack.pop()
        if phase == 1:
            yield SaxEvent(EventKind.ELEM_END,
                           local=current.local, uri=current.uri)  # type: ignore[attr-defined]
            continue
        if isinstance(current, ElementNode):
            yield SaxEvent(EventKind.ELEM_START, local=current.local,
                           uri=current.uri, node_id=current.node_id)
            for ns in current.namespaces:
                yield SaxEvent(EventKind.NS, local=ns.prefix, value=ns.uri,
                               node_id=ns.node_id)
            for attr in current.attributes:
                yield SaxEvent(EventKind.ATTR, local=attr.local, uri=attr.uri,
                               value=attr.value, node_id=attr.node_id)
            stack.append((current, 1))
            for child in reversed(current.children()):
                stack.append((child, 0))
        elif isinstance(current, TextNode):
            yield SaxEvent(EventKind.TEXT, value=current.value,
                           node_id=current.node_id)
        elif isinstance(current, CommentNode):
            yield SaxEvent(EventKind.COMMENT, value=current.value,
                           node_id=current.node_id)
        elif isinstance(current, ProcessingInstructionNode):
            yield SaxEvent(EventKind.PI, local=current.target,
                           value=current.value, node_id=current.node_id)
        elif isinstance(current, AttributeNode):
            yield SaxEvent(EventKind.ATTR, local=current.local,
                           uri=current.uri, value=current.value,
                           node_id=current.node_id)
        else:
            raise XmlError(f"cannot stream node kind {current.kind}")


def build_tree(events: Iterable[SaxEvent]) -> Node:
    """Tree-construction task (Fig. 8): assemble an XDM tree from events.

    Returns the :class:`DocumentNode` when the stream is document-wrapped,
    otherwise the single top-level node.
    """
    doc: DocumentNode | None = None
    stack: list[Node] = []
    roots: list[Node] = []

    def attach(node: Node) -> None:
        if stack:
            container = stack[-1]
            if isinstance(container, (DocumentNode, ElementNode)):
                container.append(node)
            else:
                raise XmlError(f"cannot attach children to {container.kind}")
        else:
            roots.append(node)

    for event in events:
        if event.kind is EventKind.DOC_START:
            if doc is not None or stack:
                raise XmlError("unexpected document start")
            doc = DocumentNode()
            doc.node_id = event.node_id
            stack.append(doc)
        elif event.kind is EventKind.DOC_END:
            if len(stack) != 1 or stack[0] is not doc:
                raise XmlError("unbalanced document end")
            stack.pop()
        elif event.kind is EventKind.ELEM_START:
            elem = ElementNode(event.local, event.uri)
            elem.node_id = event.node_id
            attach(elem)
            stack.append(elem)
        elif event.kind is EventKind.ELEM_END:
            if not stack or not isinstance(stack[-1], ElementNode):
                raise XmlError("unbalanced element end")
            stack.pop()
        elif event.kind is EventKind.ATTR:
            if not stack or not isinstance(stack[-1], ElementNode):
                raise XmlError("attribute outside an element start")
            attr = stack[-1].set_attribute(event.local, event.value, event.uri)
            attr.node_id = event.node_id
        elif event.kind is EventKind.NS:
            if not stack or not isinstance(stack[-1], ElementNode):
                raise XmlError("namespace outside an element start")
            ns = stack[-1].declare_namespace(event.local, event.value)
            ns.node_id = event.node_id
        elif event.kind is EventKind.TEXT:
            node = TextNode(event.value)
            node.node_id = event.node_id
            attach(node)
        elif event.kind is EventKind.COMMENT:
            node = CommentNode(event.value)
            node.node_id = event.node_id
            attach(node)
        elif event.kind is EventKind.PI:
            node = ProcessingInstructionNode(event.local, event.value)
            node.node_id = event.node_id
            attach(node)
        else:  # pragma: no cover - exhaustive
            raise XmlError(f"unknown event kind {event.kind}")

    if stack:
        raise XmlError("unterminated elements in event stream")
    if doc is not None:
        return doc
    if len(roots) == 1:
        return roots[0]
    raise XmlError(f"event stream produced {len(roots)} top-level nodes")


#: Events that are nodes and so get an ID: elements and the leaf kinds.
_NODE_KINDS = frozenset((EventKind.ELEM_START, EventKind.ATTR, EventKind.NS,
                         EventKind.TEXT, EventKind.COMMENT, EventKind.PI))


def assign_node_ids(events: Iterable[SaxEvent]) -> Iterator[SaxEvent]:
    """Decorate a raw event stream with Dewey node IDs.

    It numbers raw streams for consumers that read IDs off the events: the
    XPath evaluators' inputs and the shredded store.  The tree packer applies
    the same rule itself as it packs.  Namespace nodes, attributes and
    children of an element share one ordinal sequence, in the order the
    events arrive (NS, then attributes, then children) — matching the
    traversal order of ``Node.descendants_or_self``.
    """
    from repro.xdm.nodeid import ROOT_ID, child_id

    path: list[bytes] = []        # absolute id of each open container
    counters: list[int] = []      # next child ordinal per open container
    for event in events:
        kind = event.kind
        if kind is EventKind.ELEM_END or kind is EventKind.DOC_END:
            path.pop()
            counters.pop()
            yield event
        elif kind is EventKind.DOC_START:
            path.append(ROOT_ID)
            counters.append(1)
            yield SaxEvent(kind, node_id=ROOT_ID)
        elif kind in _NODE_KINDS:
            if kind is EventKind.ELEM_START and not path:
                path.append(ROOT_ID)  # fragment without document wrapper
                counters.append(1)
            abs_id = child_id(path[-1], counters[-1])
            counters[-1] += 1
            if kind is EventKind.ELEM_START:
                path.append(abs_id)
                counters.append(1)
                yield SaxEvent(kind, event.local, event.uri, node_id=abs_id)
            else:
                yield SaxEvent(kind, event.local, event.uri, event.value,
                               abs_id)
        else:  # pragma: no cover - exhaustive
            raise XmlError(f"unknown event kind {event.kind}")
