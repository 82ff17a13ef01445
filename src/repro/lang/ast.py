"""XPath abstract syntax tree.

The supported subset is the one QuickXScan targets (§4.2): location paths
over the five forward axes (child, attribute, descendant, self,
descendant-or-self) plus the parent axis (handled by rewrite, [24]);
predicates with ``and``/``or``, general comparisons, arithmetic, literals and
a core function library.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Axis(enum.Enum):
    CHILD = "child"
    DESCENDANT = "descendant"
    ATTRIBUTE = "attribute"
    SELF = "self"
    DESCENDANT_OR_SELF = "descendant-or-self"
    PARENT = "parent"

    @classmethod
    def parse(cls, name: str) -> "Axis":
        from repro.errors import XPathUnsupportedError
        try:
            return cls(name)
        except ValueError:
            raise XPathUnsupportedError(
                f"axis {name!r} is outside the supported subset") from None


class Expr:
    """Base class of all expression nodes."""


@dataclass(frozen=True)
class NameTest:
    """Element/attribute name test; ``local == '*'`` is a wildcard."""

    local: str
    prefix: str | None = None
    #: Resolved namespace URI; filled by compile-time prefix resolution.
    uri: str | None = None

    def matches(self, local: str, uri: str) -> bool:
        if self.local != "*" and self.local != local:
            return False
        if self.uri is None:
            # Unresolved prefix-less test: no-namespace semantics.
            return self.prefix is None and (self.local == "*" or uri == "")
        return self.uri == "*" or self.uri == uri

    def __str__(self) -> str:
        return f"{self.prefix}:{self.local}" if self.prefix else self.local


@dataclass(frozen=True)
class KindTest:
    """node() / text() / comment() / processing-instruction(['t'])."""

    kind: str
    target: str | None = None

    def __str__(self) -> str:
        inner = f"'{self.target}'" if self.target else ""
        return f"{self.kind}({inner})"


@dataclass
class Step(Expr):
    """One location step: axis, node test, predicates."""

    axis: Axis
    test: NameTest | KindTest
    predicates: list["Expr"] = field(default_factory=list)

    def __str__(self) -> str:
        axis = "@" if self.axis is Axis.ATTRIBUTE else f"{self.axis.value}::"
        preds = "".join(f"[{p}]" for p in self.predicates)
        return f"{axis}{self.test}{preds}"


@dataclass
class LocationPath(Expr):
    """A (possibly absolute) sequence of steps."""

    absolute: bool
    steps: list[Step]

    def __str__(self) -> str:
        body = "/".join(str(s) for s in self.steps)
        return ("/" + body) if self.absolute else body


@dataclass(frozen=True)
class Literal(Expr):
    """String or numeric literal."""

    value: object
    #: The statement's literal slot this literal fills, when the parser
    #: numbered it (see :func:`bind`); not part of the literal's value.
    slot: int | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"\"{self.value}\""
        return repr(self.value)


@dataclass
class BinaryOp(Expr):
    """or/and/comparison/arithmetic operator application."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class UnaryOp(Expr):
    """Unary minus."""

    op: str
    operand: Expr

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class FunctionCall(Expr):
    """Core-library function application."""

    name: str
    args: list[Expr]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def self_node_step() -> Step:
    """The step for ``.`` (self::node())."""
    return Step(Axis.SELF, KindTest("node"))


def parent_step() -> Step:
    """The step for ``..`` (parent::node())."""
    return Step(Axis.PARENT, KindTest("node"))


def descendant_or_self_step() -> Step:
    """The implicit step ``//`` abbreviates (descendant-or-self::node())."""
    return Step(Axis.DESCENDANT_OR_SELF, KindTest("node"))


def bind(expr: Expr, values) -> Expr:
    """``expr`` with each numbered literal's value taken from ``values``.

    The result is a new tree along the paths to the numbered literals;
    every subtree without one is shared with ``expr``, not copied.
    """
    if isinstance(expr, Literal):
        if expr.slot is None:
            return expr
        return Literal(values[expr.slot], expr.slot)
    if isinstance(expr, LocationPath):
        steps = _bind_all(expr.steps, values, _bind_step)
        return expr if steps is None else LocationPath(expr.absolute, steps)
    if isinstance(expr, BinaryOp):
        left, right = bind(expr.left, values), bind(expr.right, values)
        if left is expr.left and right is expr.right:
            return expr
        return BinaryOp(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = bind(expr.operand, values)
        return expr if operand is expr.operand else UnaryOp(expr.op, operand)
    if isinstance(expr, FunctionCall):
        args = _bind_all(expr.args, values, bind)
        return expr if args is None else FunctionCall(expr.name, args)
    return expr


def _bind_step(step: Step, values) -> Step:
    predicates = _bind_all(step.predicates, values, bind)
    if predicates is None:
        return step
    return Step(step.axis, step.test, predicates)


def _bind_all(items: list, values, bind_one) -> list | None:
    """``items`` bound one by one, or None when none of them changed."""
    out = None
    for i, item in enumerate(items):
        new = bind_one(item, values)
        if new is not item:
            if out is None:
                out = list(items)
            out[i] = new
    return out


def children(expr: Expr) -> list[Expr]:
    """The expressions directly under ``expr`` (steps count as one level)."""
    if isinstance(expr, LocationPath):
        return list(expr.steps)
    if isinstance(expr, Step):
        return list(expr.predicates)
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    return []


def literal_slots(expr: Expr) -> list[int]:
    """The slots of the numbered literals in ``expr``, one per literal."""
    slots = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Literal) and node.slot is not None:
            slots.append(node.slot)
        stack.extend(children(node))
    return slots
