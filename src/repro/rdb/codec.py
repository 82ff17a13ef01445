"""Low-level binary codec helpers shared by every on-"disk" format.

All engine formats (slotted pages, B+tree nodes, packed XML records, the
compiled schema format, log records) are built from the same three primitives:
unsigned LEB128 varints, length-prefixed byte strings, and length-prefixed
UTF-8 strings.  Keeping them in one module keeps the formats consistent and
trivially testable.
"""

from __future__ import annotations


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) to ``out`` as a LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(buf: bytes | memoryview, pos: int) -> tuple[int, int]:
    """Read a LEB128 varint from ``buf`` at ``pos``.

    Returns ``(value, next_pos)``.
    """
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`write_uvarint` needs for ``value``."""
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed integer using zig-zag + LEB128."""
    write_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def read_svarint(buf: bytes | memoryview, pos: int) -> tuple[int, int]:
    """Read a zig-zag varint written by :func:`write_svarint`."""
    raw, pos = read_uvarint(buf, pos)
    if raw & 1:
        return -((raw + 1) >> 1), pos
    return raw >> 1, pos


def write_bytes(out: bytearray, data: bytes) -> None:
    """Append ``data`` to ``out`` prefixed with its varint length."""
    write_uvarint(out, len(data))
    out.extend(data)


def read_bytes(buf: bytes | memoryview, pos: int) -> tuple[bytes, int]:
    """Read a varint-length-prefixed byte string; returns ``(data, next_pos)``."""
    length, pos = read_uvarint(buf, pos)
    end = pos + length
    return bytes(buf[pos:end]), end


def write_str(out: bytearray, text: str) -> None:
    """Append ``text`` as length-prefixed UTF-8."""
    write_bytes(out, text.encode("utf-8"))


def read_str(buf: bytes | memoryview, pos: int) -> tuple[str, int]:
    """Read a string written by :func:`write_str`."""
    data, pos = read_bytes(buf, pos)
    return data.decode("utf-8"), pos


def write_u32(out: bytearray, value: int) -> None:
    """Append a fixed 4-byte big-endian unsigned integer."""
    out.extend(value.to_bytes(4, "big"))


def read_u32(buf: bytes | memoryview, pos: int) -> tuple[int, int]:
    """Read a fixed 4-byte big-endian unsigned integer."""
    return int.from_bytes(buf[pos:pos + 4], "big"), pos + 4
