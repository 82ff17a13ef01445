"""Prefix-encoded Dewey node IDs (§3.1).

Encoding rules straight from the paper:

* a **relative** node ID is a byte string whose last byte is even and whose
  other bytes are all odd ("any odd-numbered byte means that the relative ID
  is extended to the next byte");
* the **absolute** node ID is the concatenation of the relative IDs along the
  path from the root; the root's own ID is always ``00`` and therefore
  implicit — here the document node's absolute ID is ``b""``;
* plain byte-string comparison of absolute IDs gives document order;
* "there is always space for insertion in the middle by extending the node
  ID length when necessary" — :func:`between_relative` realizes this;
* ancestry is a prefix test (§5.2): because an even byte always terminates a
  level, a valid absolute ID that is a string prefix of another is exactly an
  ancestor-or-self, so ``descendant.startswith(ancestor)`` is sound.

Byte 0 is never used (the implicit root owns ``00``), so relative IDs use
even bytes ``2..254`` and odd bytes ``1..255``.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import NodeIdError

#: Absolute node ID of the document (root) node.
ROOT_ID = b""

_MAX_EVEN = 254
_MAX_SINGLE_ORDINAL = _MAX_EVEN // 2  # 127
#: Leading ``0xFF`` bytes a child ID may carry before its number widens.
_UNARY_FF = 8
#: The one-byte relative IDs of the first 127 ordinals (index = ordinal).
_ONE_BYTE = [b""] + [bytes([2 * n]) for n in range(1, _MAX_SINGLE_ORDINAL + 1)]


def is_valid_relative(rel: bytes) -> bool:
    """Whether ``rel`` is a well-formed relative node ID."""
    if not rel or rel[-1] % 2 or rel[-1] == 0:
        return False
    return all(b % 2 for b in rel[:-1])


def validate_absolute(abs_id: bytes) -> None:
    """Raise :class:`NodeIdError` unless ``abs_id`` parses into levels."""
    for _ in split_levels(abs_id):
        pass


def relative_from_ordinal(ordinal: int) -> bytes:
    """Relative ID for the ``ordinal``-th child slot (1-based).

    An ID is ``f`` ``0xFF`` bytes and then a base-127 number of ``d`` digits:
    odd bytes ``1..253`` and a final even byte ``2..254``.  Ordinals fill
    ``f = 0, 1, 2, ...`` in turn, so allocation order is kept (``0xFF`` sorts
    after every other byte).  Up to :data:`_UNARY_FF` leading ``0xFF`` bytes
    the number has one digit (the first 1 143 children: ``2*ordinal``, then
    one ``0xFF`` more per 127 siblings); past that each ``0xFF`` adds a
    digit, so a wide fan-out costs logarithmic, not linear, ID length.
    """
    if 0 < ordinal <= _MAX_SINGLE_ORDINAL:
        return _ONE_BYTE[ordinal]
    if ordinal < 1:
        raise NodeIdError(f"child ordinal must be positive, got {ordinal}")
    index, ffs, digits = ordinal - 1, 0, 1
    while index >= _MAX_SINGLE_ORDINAL ** digits:
        index -= _MAX_SINGLE_ORDINAL ** digits
        ffs += 1
        digits = max(1, ffs - _UNARY_FF + 1)
    out = [2 * (index % _MAX_SINGLE_ORDINAL) + 2]
    for _ in range(digits - 1):
        index //= _MAX_SINGLE_ORDINAL
        out.append(2 * (index % _MAX_SINGLE_ORDINAL) + 1)
    return b"\xff" * ffs + bytes(reversed(out))


def split_levels(abs_id: bytes) -> list[bytes]:
    """Split an absolute ID into its per-level relative IDs."""
    levels = []
    start = 0
    for pos, byte in enumerate(abs_id):
        if byte == 0:
            raise NodeIdError(f"zero byte in node ID {abs_id.hex()}")
        if byte % 2 == 0:
            levels.append(abs_id[start:pos + 1])
            start = pos + 1
    if start != len(abs_id):
        raise NodeIdError(f"dangling continuation bytes in node ID {abs_id.hex()}")
    return levels


def depth(abs_id: bytes) -> int:
    """Number of levels below the root (root itself has depth 0)."""
    return len(split_levels(abs_id))


def parent(abs_id: bytes) -> bytes:
    """Absolute ID of the parent node (the root's parent is an error)."""
    if not abs_id:
        raise NodeIdError("the root node has no parent")
    pos = len(abs_id) - 2
    while pos >= 0 and abs_id[pos] % 2:
        pos -= 1
    return abs_id[:pos + 1]


def ancestors(abs_id: bytes) -> Iterator[bytes]:
    """Yield proper ancestors from the root down (root first)."""
    prefix = b""
    for level in split_levels(abs_id)[:-1]:
        yield prefix
        prefix += level
    if abs_id:
        yield prefix


def is_ancestor_or_self(candidate: bytes, node: bytes) -> bool:
    """Prefix test: is ``candidate`` an ancestor of ``node`` or the node itself?"""
    return node.startswith(candidate)


def is_ancestor(candidate: bytes, node: bytes) -> bool:
    """Proper-ancestor test."""
    return candidate != node and node.startswith(candidate)


def child_id(parent_id: bytes, ordinal: int) -> bytes:
    """Absolute ID of the ``ordinal``-th child of ``parent_id``."""
    return parent_id + relative_from_ordinal(ordinal)


def between_relative(low: bytes | None, high: bytes | None) -> bytes:
    """A valid relative ID strictly between ``low`` and ``high``.

    ``None`` bounds mean "before the first sibling" / "after the last
    sibling".  This is the paper's insert-in-the-middle operation: existing
    sibling IDs never change; the new ID may be longer.
    """
    if low is not None and not is_valid_relative(low):
        raise NodeIdError(f"invalid relative ID {low.hex()}")
    if high is not None and not is_valid_relative(high):
        raise NodeIdError(f"invalid relative ID {high.hex()}")
    if low is not None and high is not None and low >= high:
        raise NodeIdError(
            f"no gap: low {low.hex()} is not before high {high.hex()}")

    out = bytearray()
    pos = 0
    lo_tight = low is not None
    hi_tight = high is not None
    while True:
        lo_byte = low[pos] if lo_tight and pos < len(low) else None  # type: ignore[index]
        hi_byte = high[pos] if hi_tight and pos < len(high) else None  # type: ignore[index]

        if lo_byte is None and hi_byte is None:
            # Unconstrained: middle-of-the-road even byte ends the ID.
            out.append(128)
            return bytes(out)
        if lo_byte is None:
            # Only bounded above.
            if hi_byte > 2:
                candidate = hi_byte - 1 if hi_byte % 2 else hi_byte - 2
                if candidate % 2:  # odd gap byte: go below then terminate
                    out.append(candidate)
                    out.append(128)
                else:
                    out.append(candidate)
                return bytes(out)
            # hi_byte is 1 or 2: squeeze underneath with a continuation byte.
            out.append(1)
            if hi_byte == 2:
                out.append(2)  # p+[1,2] < p+[2...]
                return bytes(out)
            pos += 1  # hi_byte == 1: stay tight against high
            continue
        if hi_byte is None:
            # Only bounded below.
            if lo_byte % 2 == 0:
                # low terminates here; bump past it.
                if lo_byte + 2 <= _MAX_EVEN:
                    out.append(lo_byte + 2)
                else:
                    out.append(lo_byte + 1)  # odd continuation (255)
                    out.append(128)
                return bytes(out)
            # low continues (odd byte): anything larger at this position wins,
            # except 0xFF which cannot be exceeded — follow low one byte.
            if lo_byte == 0xFF:
                out.append(lo_byte)
                pos += 1
                continue
            out.append(lo_byte + 1)  # even, ends the ID
            return bytes(out)

        # Tight on both sides.
        if hi_byte - lo_byte >= 2:
            candidate = lo_byte + 1
            if candidate % 2 == 0:
                out.append(candidate)
                return bytes(out)
            # candidate odd; prefer an even byte in the gap if one exists
            if lo_byte + 2 < hi_byte:
                out.append(lo_byte + 2)
                return bytes(out)
            out.append(candidate)
            out.append(128)
            return bytes(out)
        if hi_byte - lo_byte == 1:
            if lo_byte % 2:
                # low continues below lo_byte...; follow low.
                out.append(lo_byte)
                hi_tight = False
                pos += 1
                continue
            # low ends at even lo_byte; follow high (odd hi_byte continues).
            out.append(hi_byte)
            lo_tight = False
            pos += 1
            continue
        # Equal bytes: shared (necessarily odd) prefix of low and high.
        out.append(lo_byte)
        pos += 1


def between(left_abs: bytes | None, right_abs: bytes | None,
            parent_id: bytes) -> bytes:
    """Absolute ID for a new node between two siblings under ``parent_id``.

    ``left_abs``/``right_abs`` are absolute IDs of the adjacent siblings (or
    ``None`` at either end).
    """
    def last_level(abs_id: bytes) -> bytes:
        if not abs_id.startswith(parent_id) or abs_id == parent_id:
            raise NodeIdError(
                f"{abs_id.hex()} is not a child of {parent_id.hex()}")
        rel = abs_id[len(parent_id):]
        if not is_valid_relative(rel):
            raise NodeIdError(f"{abs_id.hex()} is not a direct child "
                              f"of {parent_id.hex()}")
        return rel

    low = last_level(left_abs) if left_abs is not None else None
    high = last_level(right_abs) if right_abs is not None else None
    return parent_id + between_relative(low, high)


def format_id(abs_id: bytes) -> str:
    """Human-readable rendering, e.g. ``"02.0206"`` (root is ``"00"``)."""
    if not abs_id:
        return "00"
    return ".".join(level.hex() for level in split_levels(abs_id))
