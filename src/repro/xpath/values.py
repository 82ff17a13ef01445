"""XPath value semantics: items, sequences, coercions, general comparisons.

QuickXScan's synthesized attributes are *sequence-valued* (§4.2): a matching
instance accumulates the sequence of nodes its predicate branches matched.
This module defines the item/sequence representation those attributes hold
and the XPath-1.0-style value semantics used to evaluate predicates:
effective boolean value, string/number coercion, and general (existential)
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TypeError_


@dataclass(frozen=True)
class Item:
    """One node in a result/attribute sequence.

    ``order`` is a document-order key (the event ordinal at match time), so
    sequences can be emitted in document order even though the streaming
    algorithm finalizes nodes in end-tag order.  ``value`` is the node's XDM
    string value when the query needs it (``None`` otherwise).
    """

    order: int
    node_id: bytes | None
    kind: str               # "element" | "attribute" | "text" | ...
    local: str
    value: str | None

    def string_value(self) -> str:
        if self.value is None:
            raise TypeError_(
                f"string value of {self.local!r} was not collected "
                "(compiler flag missing)")
        return self.value


#: An XPath value: number, string, boolean, or a node sequence.
XValue = float | str | bool | list


def dedup(seq: list[Item]) -> list[Item]:
    """Document-ordered, duplicate-free copy of a sequence."""
    previous = -1
    for item in seq:
        if item.order <= previous:
            break
        previous = item.order
    else:
        return list(seq)  # already strictly increasing: the common case
    seen: set[int] = set()
    out: list[Item] = []
    for item in sorted(seq, key=lambda item: item.order):
        if item.order not in seen:
            seen.add(item.order)
            out.append(item)
    return out


def is_sequence(value: XValue) -> bool:
    return isinstance(value, list)


def effective_boolean(value: XValue) -> bool:
    """XPath effective boolean value."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and not math.isnan(value)
    if isinstance(value, str):
        return bool(value)
    return bool(value)  # node sequence: non-empty


def to_number(value: XValue) -> float:
    """XPath number() coercion (NaN on failure)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return float("nan")
    if isinstance(value, list):
        if not value:
            return float("nan")
        first = min(value, key=lambda item: item.order)
        return to_number(first.string_value())
    raise TypeError_(f"cannot convert {value!r} to a number")


def to_string(value: XValue) -> str:
    """XPath string() coercion."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        if not value:
            return ""
        first = min(value, key=lambda item: item.order)
        return first.string_value()
    raise TypeError_(f"cannot convert {value!r} to a string")


def _atom_compare(op: str, left: float | str | bool,
                  right: float | str | bool) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = effective_boolean(left) == effective_boolean(right)
        elif isinstance(left, float) or isinstance(right, float):
            result = to_number(left) == to_number(right)
        else:
            result = left == right
        return result if op == "=" else not result
    # Ordering comparisons are numeric in XPath 1.0.
    ln, rn = to_number(left), to_number(right)
    if math.isnan(ln) or math.isnan(rn):
        return False
    if op == "<":
        return ln < rn
    if op == "<=":
        return ln <= rn
    if op == ">":
        return ln > rn
    if op == ">=":
        return ln >= rn
    raise TypeError_(f"unknown comparison operator {op!r}")


def general_compare(op: str, left: XValue, right: XValue) -> bool:
    """XPath general comparison: existential over node sequences."""
    if is_sequence(left) and is_sequence(right):
        return any(
            _atom_compare(op, li.string_value(), ri.string_value())
            for li in left for ri in right)
    if is_sequence(left):
        return any(_atom_compare(op, item.string_value(), right)  # type: ignore[arg-type]
                   for item in left)
    if is_sequence(right):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        return any(_atom_compare(flipped, item.string_value(), left)  # type: ignore[arg-type]
                   for item in right)
    return _atom_compare(op, left, right)  # type: ignore[arg-type]


def arithmetic(op: str, left: XValue, right: XValue) -> float:
    """XPath arithmetic (operands coerced with number())."""
    ln, rn = to_number(left), to_number(right)
    if op == "+":
        return ln + rn
    if op == "-":
        return ln - rn
    if op == "*":
        return ln * rn
    if op == "div":
        if rn == 0:
            return math.inf if ln > 0 else (-math.inf if ln < 0 else math.nan)
        return ln / rn
    if op == "mod":
        if rn == 0:
            return math.nan
        return math.fmod(ln, rn)
    raise TypeError_(f"unknown arithmetic operator {op!r}")
