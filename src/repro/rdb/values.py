"""SQL value types, row codecs, and order-preserving key encodings.

The relational infrastructure stores typed column values in records and in
B+tree keys.  B+tree keys must be *memcomparable*: byte-wise comparison of the
encoded form must agree with the logical ordering of the values.  The XPath
value indexes (§3.3) reuse these encodings — in particular ``DECFLOAT``, the
paper's IEEE-754r decimal floating point used "for numeric value indexing,
which provides precise values within its range" (§4.3).
"""

from __future__ import annotations

import datetime as _dt
import enum
import struct
from decimal import ROUND_HALF_EVEN, Context, Decimal, InvalidOperation

from repro.errors import TypeError_
from repro.rdb import codec

#: Arithmetic context mirroring decimal128 (34 significant digits).
DECFLOAT_CONTEXT = Context(prec=34, rounding=ROUND_HALF_EVEN)

_EPOCH = _dt.date(1970, 1, 1)

#: BIGINT is a signed 64-bit integer.
BIGINT_MIN = -(1 << 63)
BIGINT_MAX = (1 << 63) - 1


class SqlType(enum.Enum):
    """Column/key types supported by the relational layer."""

    BIGINT = "bigint"
    DOUBLE = "double"
    DECFLOAT = "decfloat"
    VARCHAR = "varchar"
    VARBINARY = "varbinary"
    DATE = "date"
    XML = "xml"

    @classmethod
    def parse(cls, name: str) -> "SqlType":
        """Case-insensitive lookup, accepting SQL spellings."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise TypeError_(f"unknown SQL type {name!r}") from None


def coerce(sql_type: SqlType, value: object) -> object:
    """Coerce a Python value to the canonical runtime form of ``sql_type``.

    Strings are converted for numeric/date types (the paper's value indexes
    convert node *string values* to the index key type, §3.3).
    """
    if value is None:
        return None
    try:
        if sql_type is SqlType.BIGINT:
            if isinstance(value, bool):
                raise TypeError_("BIGINT cannot store bool")
            number = int(value)  # type: ignore[arg-type]
            if not BIGINT_MIN <= number <= BIGINT_MAX:
                raise TypeError_(f"BIGINT out of range: {number}")
            return number
        if sql_type is SqlType.DOUBLE:
            return float(value)  # type: ignore[arg-type]
        if sql_type is SqlType.DECFLOAT:
            if isinstance(value, Decimal):
                return DECFLOAT_CONTEXT.plus(value)
            if isinstance(value, float):
                return DECFLOAT_CONTEXT.create_decimal(repr(value))
            return DECFLOAT_CONTEXT.create_decimal(str(value).strip())
        if sql_type is SqlType.VARCHAR:
            if isinstance(value, (bytes, bytearray)):
                return bytes(value).decode("utf-8")
            return str(value)
        if sql_type is SqlType.VARBINARY:
            if isinstance(value, str):
                return value.encode("utf-8")
            return bytes(value)  # type: ignore[arg-type]
        if sql_type is SqlType.DATE:
            if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
                return value
            return _dt.date.fromisoformat(str(value).strip())
        if sql_type is SqlType.XML:
            return value
    except (ValueError, OverflowError, InvalidOperation) as exc:
        raise TypeError_(f"cannot coerce {value!r} to {sql_type.value}") from exc
    raise TypeError_(f"unhandled SQL type {sql_type}")


# ---------------------------------------------------------------------------
# Row storage encoding (compact, not order-preserving)
# ---------------------------------------------------------------------------

_NULL_TAG = 0
_PRESENT_TAG = 1


def encode_value(out: bytearray, sql_type: SqlType, value: object) -> None:
    """Append ``value`` of ``sql_type`` to ``out`` in row-storage form."""
    if value is None:
        out.append(_NULL_TAG)
        return
    if isinstance(value, bool):
        raise TypeError_(f"{sql_type.value.upper()} cannot store bool: SQL "
                         f"has no boolean column type")
    out.append(_PRESENT_TAG)
    value = coerce(sql_type, value)
    if sql_type is SqlType.BIGINT:
        codec.write_svarint(out, value)  # type: ignore[arg-type]
    elif sql_type is SqlType.DOUBLE:
        out.extend(struct.pack(">d", value))
    elif sql_type is SqlType.DECFLOAT:
        codec.write_str(out, str(value))
    elif sql_type is SqlType.VARCHAR:
        try:
            codec.write_str(out, value)  # type: ignore[arg-type]
        except UnicodeEncodeError as error:
            raise TypeError_(
                f"text is not encodable as UTF-8: {error.reason} at offset "
                f"{error.start}") from None
    elif sql_type in (SqlType.VARBINARY, SqlType.XML):
        codec.write_bytes(out, value)  # type: ignore[arg-type]
    elif sql_type is SqlType.DATE:
        codec.write_svarint(out, (value - _EPOCH).days)  # type: ignore[operator]
    else:  # pragma: no cover - exhaustive above
        raise TypeError_(f"unhandled SQL type {sql_type}")


def decode_value(buf: bytes | memoryview, pos: int, sql_type: SqlType) -> tuple[object, int]:
    """Read one value written by :func:`encode_value`."""
    tag = buf[pos]
    pos += 1
    if tag == _NULL_TAG:
        return None, pos
    if sql_type is SqlType.BIGINT:
        return codec.read_svarint(buf, pos)
    if sql_type is SqlType.DOUBLE:
        return struct.unpack(">d", bytes(buf[pos:pos + 8]))[0], pos + 8
    if sql_type is SqlType.DECFLOAT:
        text, pos = codec.read_str(buf, pos)
        return Decimal(text), pos
    if sql_type is SqlType.VARCHAR:
        return codec.read_str(buf, pos)
    if sql_type in (SqlType.VARBINARY, SqlType.XML):
        return codec.read_bytes(buf, pos)
    if sql_type is SqlType.DATE:
        days, pos = codec.read_svarint(buf, pos)
        return _EPOCH + _dt.timedelta(days=days), pos
    raise TypeError_(f"unhandled SQL type {sql_type}")  # pragma: no cover


def encode_row(types: list[SqlType], row: tuple) -> bytes:
    """Encode a full row (one value per column type)."""
    if len(types) != len(row):
        raise TypeError_(f"row has {len(row)} values for {len(types)} columns")
    out = bytearray()
    for sql_type, value in zip(types, row, strict=True):
        encode_value(out, sql_type, value)
    return bytes(out)


def decode_row(types: list[SqlType], data: bytes | memoryview) -> tuple:
    """Decode a row written by :func:`encode_row`."""
    pos = 0
    values = []
    for sql_type in types:
        value, pos = decode_value(data, pos, sql_type)
        values.append(value)
    return tuple(values)


# ---------------------------------------------------------------------------
# Memcomparable key encoding (order-preserving)
# ---------------------------------------------------------------------------

def key_encode(sql_type: SqlType, value: object) -> bytes:
    """Encode ``value`` so that ``bytes`` comparison matches value order.

    NULL sorts lowest (a single ``0x00`` byte); every non-NULL encoding
    starts with ``0x01``.
    """
    if value is None:
        return b"\x00"
    value = coerce(sql_type, value)
    if sql_type is SqlType.BIGINT:
        return b"\x01" + _key_encode_int(value)  # type: ignore[arg-type]
    if sql_type is SqlType.DOUBLE:
        return b"\x01" + _key_encode_double(value)  # type: ignore[arg-type]
    if sql_type is SqlType.DECFLOAT:
        return b"\x01" + _key_encode_decimal(value)  # type: ignore[arg-type]
    if sql_type is SqlType.VARCHAR:
        return b"\x01" + value.encode("utf-8")  # type: ignore[union-attr]
    if sql_type is SqlType.VARBINARY:
        return b"\x01" + bytes(value)  # type: ignore[arg-type]
    if sql_type is SqlType.DATE:
        return b"\x01" + _key_encode_int((value - _EPOCH).days)  # type: ignore[operator]
    raise TypeError_(f"type {sql_type} has no key encoding")


def _key_encode_int(value: int) -> bytes:
    """64-bit two's complement with the sign bit flipped (memcomparable).

    BIGINT values are range-checked by :func:`coerce`; DATE day counts of
    any representable date are far inside the range.
    """
    return (value - BIGINT_MIN).to_bytes(8, "big")


def _key_encode_double(value: float) -> bytes:
    """IEEE-754 double as memcomparable bytes.

    Positive numbers get the sign bit flipped; negative numbers are fully
    complemented, giving total order over finite doubles (NaN rejected).
    """
    if value != value:  # NaN
        raise TypeError_("NaN cannot be used as an index key")
    raw = struct.unpack(">Q", struct.pack(">d", value))[0]
    if raw & (1 << 63):
        raw = (~raw) & ((1 << 64) - 1)
    else:
        raw |= 1 << 63
    return raw.to_bytes(8, "big")


def _key_encode_decimal(value: Decimal) -> bytes:
    """Order-preserving encoding of a decimal128-range value.

    Layout: sign class byte (1 negative / 2 zero / 3 positive), then for
    non-zero magnitudes the adjusted exponent (offset to unsigned 32-bit) and
    the significant digits ``0x30+d`` terminated by ``0x00``.  For negative
    values the exponent and digits are complemented so larger magnitude sorts
    *earlier*.
    """
    if not value.is_finite():
        raise TypeError_(f"non-finite DECFLOAT key: {value}")
    if value == 0:
        return b"\x02"
    sign, digits, exponent = value.as_tuple()
    # Strip trailing zero digits so equal values share one encoding.
    while len(digits) > 1 and digits[-1] == 0:
        digits = digits[:-1]
        exponent += 1  # type: ignore[operator]
    adjusted = exponent + len(digits) - 1  # type: ignore[operator]
    exp_field = adjusted + (1 << 31)
    digit_bytes = bytes(0x30 + d for d in digits)
    if sign == 0:
        return b"\x03" + exp_field.to_bytes(4, "big") + digit_bytes + b"\x00"
    flipped_exp = ((1 << 32) - 1 - exp_field).to_bytes(4, "big")
    flipped_digits = bytes(0xFF - b for b in digit_bytes)
    return b"\x01" + flipped_exp + flipped_digits + b"\xff"
