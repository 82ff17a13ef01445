"""SQL/XML constructor functions with tagging-template optimization (§4.1).

"We optimize constructor functions by flattening the nested functions into
one function and represent the nesting structure with a tagging template ...
The result of the constructor functions is an intermediate result
representation that includes a pointer to the template with a data record."
(Fig. 5.)

The compile-time form is a nested spec (XMLELEMENT / XMLATTRIBUTES /
XMLFOREST / XMLCONCAT) whose argument slots reference per-row values.
Compilation flattens it into a :class:`Template` — a linear op list with the
static tags fixed — built once per query; each row then yields a
:class:`ConstructedValue` that is just ``(template pointer, args record)``
and streams virtual SAX events on demand (Fig. 8's "constructed data"
iterator).  The naive baseline (:func:`naive_construct`) re-builds a full
XDM tree per row, re-tagging everything.

``XMLAGG ... ORDER BY`` is provided by :class:`XmlAggregator` with the
paper's two sort paths: in-memory quicksort on the linked row list versus a
work-file external sort (experiment E7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import QueryError
from repro.rdb.sort import (ExternalSorter, linked_list_from,
                            linked_list_to_list, quicksort_linked_list)
from repro.rdb.tablespace import TableSpace
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import QNAME
from repro.xdm.nodes import ElementNode
from repro.xdm.serializer import serialize


# -- constructor specs (the nested function form) ---------------------------

class Spec:
    """Base class of constructor specs."""


@dataclass(frozen=True)
class Arg(Spec):
    """A per-row argument slot (the numbers in Fig. 5's template)."""

    index: int


@dataclass(frozen=True)
class Const(Spec):
    """A constant text fragment."""

    text: str


@dataclass(frozen=True)
class XAttr:
    """One XMLATTRIBUTES item: name plus value source."""

    name: str
    value: Arg | Const


@dataclass(frozen=True)
class XElem(Spec):
    """XMLELEMENT(NAME name, XMLATTRIBUTES(...), children...)."""

    name: str
    attrs: tuple[XAttr, ...] = ()
    children: tuple[Spec, ...] = ()


@dataclass(frozen=True)
class XForest(Spec):
    """XMLFOREST(value AS name, ...) — one element per item."""

    items: tuple[tuple[str, Arg | Const], ...]


@dataclass(frozen=True)
class XConcat(Spec):
    """XMLCONCAT(children...)."""

    children: tuple[Spec, ...]


def elem(name: str, *children: Spec | str,
         attrs: dict[str, Arg | Const | str] | None = None) -> XElem:
    """Convenience builder for :class:`XElem`."""
    built_attrs = tuple(
        XAttr(attr_name, value if isinstance(value, (Arg, Const))
              else Const(str(value)))
        for attr_name, value in (attrs or {}).items())
    built_children = tuple(
        Const(child) if isinstance(child, str) else child
        for child in children)
    return XElem(name, built_attrs, built_children)


def forest(**items: Arg | Const | str) -> XForest:
    """Convenience builder for :class:`XForest`."""
    return XForest(tuple(
        (name, value if isinstance(value, (Arg, Const)) else Const(str(value)))
        for name, value in items.items()))


def arg(index: int) -> Arg:
    return Arg(index)


# -- the flattened tagging template ------------------------------------------

class _Op(enum.IntEnum):
    OPEN = 0        # payload: element name
    CLOSE = 1
    ATTR_CONST = 2  # payload: (name, text)
    ATTR_SLOT = 3   # payload: (name, slot)
    TEXT_CONST = 4  # payload: text
    TEXT_SLOT = 5   # payload: slot


@dataclass
class Template:
    """Fig. 5's tagging template: static structure, numbered slots."""

    ops: list[tuple] = field(default_factory=list)
    slot_count: int = 0

    def instantiate(self, args: tuple) -> "ConstructedValue":
        """Bind one row's values; no tags are copied ("no repetition of the
        tagging template occurs")."""
        if len(args) < self.slot_count:
            raise QueryError(
                f"template needs {self.slot_count} args, got {len(args)}")
        return ConstructedValue(self, args)

    @property
    def op_count(self) -> int:
        return len(self.ops)


class ConstructedValue:
    """The intermediate result: a template pointer plus a data record."""

    __slots__ = ("template", "args")

    def __init__(self, template: Template, args: tuple) -> None:
        self.template = template
        self.args = args

    def events(self) -> Iterator[SaxEvent]:
        """Virtual SAX iterator over the constructed data (Fig. 8)."""
        args = self.args
        for op in self.template.ops:
            kind = op[0]
            if kind is _Op.OPEN:
                yield SaxEvent(EventKind.ELEM_START, local=op[1])
            elif kind is _Op.CLOSE:
                yield SaxEvent(EventKind.ELEM_END, local=op[1])
            elif kind is _Op.ATTR_CONST:
                yield SaxEvent(EventKind.ATTR, local=op[1], value=op[2])
            elif kind is _Op.ATTR_SLOT:
                yield SaxEvent(EventKind.ATTR, local=op[1],
                               value=_text(args[op[2]]))
            elif kind is _Op.TEXT_CONST:
                yield SaxEvent(EventKind.TEXT, value=op[1])
            else:  # TEXT_SLOT
                text = _text(args[op[1]])
                if text:  # NULL / empty values produce no text node
                    yield SaxEvent(EventKind.TEXT, value=text)

    def serialize(self) -> str:
        return serialize(self.events())


def _text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _qname(name: str) -> str:
    """``name`` if it is an XML ``QName``: anything else would serialize
    as ill-formed markup (``NAME "a><x"``)."""
    if QNAME.fullmatch(name) is None:
        raise QueryError(f"{name!r} is not a valid XML name")
    return name


def compile_template(spec: Spec) -> Template:
    """Flatten a nested constructor spec into one tagging template."""
    template = Template()
    max_slot = -1

    def emit_value(value: Arg | Const, as_attr: str | None) -> None:
        nonlocal max_slot
        if isinstance(value, Const):
            if as_attr is not None:
                template.ops.append((_Op.ATTR_CONST, as_attr, value.text))
            elif value.text:
                template.ops.append((_Op.TEXT_CONST, value.text))
        else:
            max_slot = max(max_slot, value.index)
            if as_attr is not None:
                template.ops.append((_Op.ATTR_SLOT, as_attr, value.index))
            else:
                template.ops.append((_Op.TEXT_SLOT, value.index))

    def walk(node: Spec) -> None:
        if isinstance(node, (Arg, Const)):
            emit_value(node, None)
        elif isinstance(node, XElem):
            template.ops.append((_Op.OPEN, _qname(node.name)))
            for attr in node.attrs:
                emit_value(attr.value, _qname(attr.name))
            for child in node.children:
                walk(child)
            template.ops.append((_Op.CLOSE, node.name))
        elif isinstance(node, XForest):
            for name, value in node.items:
                template.ops.append((_Op.OPEN, _qname(name)))
                emit_value(value, None)
                template.ops.append((_Op.CLOSE, name))
        elif isinstance(node, XConcat):
            for child in node.children:
                walk(child)
        else:
            raise QueryError(f"unknown constructor spec {node!r}")

    walk(spec)
    template.slot_count = max_slot + 1
    return template


# -- naive baseline: per-row tree construction ---------------------------------

def naive_construct(spec: Spec, args: tuple) -> list[ElementNode]:
    """Evaluate the nested constructors the standard way: build XDM nodes
    bottom-up for every row (the cost Fig. 5's optimization removes)."""

    def value_of(value: Arg | Const) -> str:
        return value.text if isinstance(value, Const) else _text(args[value.index])

    def walk(node: Spec) -> list:
        from repro.xdm.nodes import TextNode
        if isinstance(node, (Arg, Const)):
            text = value_of(node)
            return [TextNode(text)] if text else []
        if isinstance(node, XElem):
            element = ElementNode(node.name)
            for attr in node.attrs:
                element.set_attribute(attr.name, value_of(attr.value))
            for child in node.children:
                for built in walk(child):
                    element.append(built)
            return [element]
        if isinstance(node, XForest):
            out = []
            for name, value in node.items:
                element = ElementNode(name)
                text = value_of(value)
                if text:
                    from repro.xdm.nodes import TextNode
                    element.append(TextNode(text))
                out.append(element)
            return out
        if isinstance(node, XConcat):
            out = []
            for child in node.children:
                out.extend(walk(child))
            return out
        raise QueryError(f"unknown constructor spec {node!r}")

    return walk(spec)


# -- XMLAGG -----------------------------------------------------------------------

class XmlAggregator:
    """XMLAGG with ORDER BY over constructed values (§4.1).

    ``sort_path``: "quicksort" applies in-memory quicksort to the linked-list
    row representation (the paper's optimization); "external" runs the
    work-file external sort (the baseline it replaces).
    """

    def __init__(self) -> None:
        self._rows: list[tuple[ConstructedValue, object]] = []

    def add(self, value: ConstructedValue, sort_key: object = None) -> None:
        self._rows.append((value, sort_key))

    def __len__(self) -> int:
        return len(self._rows)

    def result_events(self, order_by: bool = False,
                      sort_path: str = "quicksort",
                      work_space: TableSpace | None = None
                      ) -> Iterator[SaxEvent]:
        """Concatenated events of all aggregated values."""
        for value in self.sorted_values(order_by, sort_path, work_space):
            yield from value.events()

    def sorted_values(self, order_by: bool, sort_path: str,
                      work_space: TableSpace | None) -> list[ConstructedValue]:
        if not order_by:
            return [value for value, _ in self._rows]
        if sort_path == "quicksort":
            head = linked_list_from(self._rows)
            return linked_list_to_list(quicksort_linked_list(head))  # type: ignore[return-value]
        if sort_path == "external":
            if work_space is None:
                raise QueryError("external sort needs a work space")
            from ast import literal_eval
            by_token: dict[int, ConstructedValue] = {}
            rows = []
            for token, (value, key) in enumerate(self._rows):
                by_token[token] = value
                rows.append((token, key))
            sorter = ExternalSorter(
                work_space,
                encode=lambda o: repr(o).encode(),
                decode=lambda b: literal_eval(b.decode()),
                run_limit=64)
            ordered = sorter.sort(rows)
            return [by_token[token] for token in ordered]  # type: ignore[index]
        raise QueryError(f"unknown sort path {sort_path!r}")

    def serialize(self, order_by: bool = False, sort_path: str = "quicksort",
                  work_space: TableSpace | None = None) -> str:
        return serialize(self.result_events(order_by, sort_path, work_space))
