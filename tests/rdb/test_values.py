"""Unit tests for SQL value codecs and memcomparable key encodings."""

import datetime as dt
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TypeError_
from repro.rdb.values import (SqlType, coerce, decode_row, decode_value,
                              encode_row, encode_value, key_encode)


class TestCoerce:
    def test_bigint_from_string(self):
        assert coerce(SqlType.BIGINT, "42") == 42

    def test_double_from_string(self):
        assert coerce(SqlType.DOUBLE, "3.5") == 3.5

    def test_decfloat_from_string_is_exact(self):
        assert coerce(SqlType.DECFLOAT, "0.1") == Decimal("0.1")

    def test_decfloat_from_float_uses_shortest_repr(self):
        assert coerce(SqlType.DECFLOAT, 0.1) == Decimal("0.1")

    def test_varchar_from_bytes(self):
        assert coerce(SqlType.VARCHAR, b"abc") == "abc"

    def test_varbinary_from_str(self):
        assert coerce(SqlType.VARBINARY, "abc") == b"abc"

    def test_date_from_iso_string(self):
        assert coerce(SqlType.DATE, "2005-06-16") == dt.date(2005, 6, 16)

    def test_none_passthrough(self):
        assert coerce(SqlType.DOUBLE, None) is None

    def test_bad_numeric_raises(self):
        with pytest.raises(TypeError_):
            coerce(SqlType.DOUBLE, "not a number")

    def test_bad_date_raises(self):
        with pytest.raises(TypeError_):
            coerce(SqlType.DATE, "June 16")

    def test_bigint_outside_64_bits_raises(self):
        # BIGINT is 64-bit: a wider value is refused, never stored as some
        # other number.
        for value in (2**63, -2**63 - 1, 2**70, "99999999999999999999"):
            with pytest.raises(TypeError_, match="BIGINT"):
                coerce(SqlType.BIGINT, value)
        for value in (2**63 - 1, -2**63):
            out = bytearray()
            encode_value(out, SqlType.BIGINT, value)
            assert decode_value(bytes(out), 0, SqlType.BIGINT)[0] == value

    def test_parse_type_names(self):
        assert SqlType.parse("VARCHAR") is SqlType.VARCHAR
        assert SqlType.parse(" xml ") is SqlType.XML
        with pytest.raises(TypeError_):
            SqlType.parse("blob")


class TestRowCodec:
    TYPES = [SqlType.BIGINT, SqlType.DOUBLE, SqlType.VARCHAR,
             SqlType.VARBINARY, SqlType.DATE, SqlType.DECFLOAT]

    def test_roundtrip(self):
        row = (7, 2.5, "hello", b"\x00raw", dt.date(2005, 6, 16), Decimal("1.25"))
        assert decode_row(self.TYPES, encode_row(self.TYPES, row)) == row

    def test_nulls_roundtrip(self):
        row = (None,) * len(self.TYPES)
        assert decode_row(self.TYPES, encode_row(self.TYPES, row)) == row

    def test_wrong_arity_raises(self):
        with pytest.raises(TypeError_):
            encode_row([SqlType.BIGINT], (1, 2))

    def test_single_value_roundtrip(self):
        out = bytearray()
        encode_value(out, SqlType.VARCHAR, "只")
        value, pos = decode_value(bytes(out), 0, SqlType.VARCHAR)
        assert value == "只"
        assert pos == len(out)


def _ordered(sql_type, values):
    """Assert key_encode agrees with logical ordering of values."""
    coerced = [coerce(sql_type, v) for v in values]
    keys = [key_encode(sql_type, v) for v in values]
    for i in range(len(values)):
        for j in range(len(values)):
            logical = (coerced[i] > coerced[j]) - (coerced[i] < coerced[j])
            encoded = (keys[i] > keys[j]) - (keys[i] < keys[j])
            assert encoded == logical, (values[i], values[j])


class TestKeyEncoding:
    def test_bigint_order(self):
        _ordered(SqlType.BIGINT, [-(2**62), -100, -1, 0, 1, 7, 2**62])

    def test_double_order(self):
        _ordered(SqlType.DOUBLE, [-1e300, -2.0, -0.5, 0.0, 1e-10, 1.0, 300.0, 1e300])

    def test_decfloat_order(self):
        _ordered(SqlType.DECFLOAT, ["-1000", "-1.23", "-1.2", "0", "0.001",
                                    "1.2", "1.23", "9.9", "10", "1000"])

    def test_decfloat_trailing_zeros_equal(self):
        assert key_encode(SqlType.DECFLOAT, "1.20") == key_encode(SqlType.DECFLOAT, "1.2")
        assert key_encode(SqlType.DECFLOAT, "100") == key_encode(SqlType.DECFLOAT, "1e2")

    def test_varchar_order(self):
        _ordered(SqlType.VARCHAR, ["", "a", "ab", "b", "ba"])

    def test_date_order(self):
        _ordered(SqlType.DATE, ["1969-12-31", "1970-01-01", "2005-06-16"])

    def test_null_sorts_lowest(self):
        assert key_encode(SqlType.BIGINT, None) < key_encode(SqlType.BIGINT, -(2**62))

    def test_nan_rejected(self):
        with pytest.raises(TypeError_):
            key_encode(SqlType.DOUBLE, float("nan"))

    def test_xml_has_no_key_encoding(self):
        with pytest.raises(TypeError_):
            key_encode(SqlType.XML, b"<a/>")

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1),
           st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_bigint_order_property(self, a, b):
        assert (key_encode(SqlType.BIGINT, a) < key_encode(SqlType.BIGINT, b)) == (a < b)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_double_order_property(self, a, b):
        ka, kb = key_encode(SqlType.DOUBLE, a), key_encode(SqlType.DOUBLE, b)
        if a < b:
            assert ka < kb
        elif a > b:
            assert ka > kb

    @given(st.decimals(allow_nan=False, allow_infinity=False, places=6),
           st.decimals(allow_nan=False, allow_infinity=False, places=6))
    def test_decfloat_order_property(self, a, b):
        ka, kb = key_encode(SqlType.DECFLOAT, a), key_encode(SqlType.DECFLOAT, b)
        if a < b:
            assert ka < kb
        elif a > b:
            assert ka > kb
        else:
            assert ka == kb
