"""XPath value index definitions (§3.3).

"Users can create XPath value indexes on frequently searched elements or
attributes by specifying a simple XPath expression without predicates, such
as ``/catalog//productname``, and a data type for the key values."  Key
values are converted from the *string values* of the nodes the path
identifies; entries are ``(keyval, DocID, NodeID, RID)``.

Numeric indexes use DECFLOAT — "we use decimal floating-point number based on
the new IEEE 754r for numeric value indexing, which provides precise values
within its range" (§4.3) — through the relational key encodings of
:mod:`repro.rdb.values`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TypeError_, XPathUnsupportedError
from repro.lang import ast
from repro.lang.parser import parse_path
from repro.rdb.tablespace import Rid
from repro.rdb.values import SqlType, key_encode

#: SQL types usable as value-index key types.  BIGINT and DATE are
#: relational column types only: XPath 1.0 compares numbers as doubles
#: and has no date type, so a BIGINT key (which skips ``7.5``) or a DATE
#: key could never be probed without missing matches.
KEY_TYPES = {
    "double": SqlType.DOUBLE,
    "decfloat": SqlType.DECFLOAT,
    "string": SqlType.VARCHAR,
    "varchar": SqlType.VARCHAR,
}


@dataclass(frozen=True)
class IndexHit:
    """One decoded value-index entry (sans key)."""

    docid: int
    node_id: bytes
    rid: Rid


class XPathIndexDefinition:
    """A validated XPath value index definition."""

    def __init__(self, name: str, path_text: str, key_type: str,
                 namespaces: dict[str, str] | None = None) -> None:
        self.name = name
        self.path_text = path_text
        type_key = key_type.strip().lower()
        if type_key not in KEY_TYPES:
            raise TypeError_(
                f"index key type {key_type!r}; expected one of "
                f"{sorted(KEY_TYPES)}")
        self.key_type_name = type_key
        self.key_type = KEY_TYPES[type_key]
        self.path = parse_path(path_text, namespaces)
        self._validate_path(self.path)

    @staticmethod
    def _validate_path(path: ast.LocationPath) -> None:
        if not path.absolute:
            raise XPathUnsupportedError(
                "index paths must be absolute (start with / or //)")
        if not path.steps:
            raise XPathUnsupportedError("index paths need at least one step")
        for step in path.steps:
            if step.predicates:
                raise XPathUnsupportedError(
                    "index paths must not contain predicates (§3.3)")
            if step.axis not in (ast.Axis.CHILD, ast.Axis.DESCENDANT,
                                 ast.Axis.ATTRIBUTE,
                                 ast.Axis.DESCENDANT_OR_SELF):
                raise XPathUnsupportedError(
                    f"axis {step.axis.value!r} in an index path")
            if isinstance(step.test, ast.KindTest):
                raise XPathUnsupportedError(
                    "kind tests are not allowed in index paths")

    def convert_key(self, string_value: str) -> bytes | None:
        """Convert a node string value to its memcomparable key.

        Values that do not convert to the key type (e.g. non-numeric text
        under a ``double`` index) yield ``None`` and are skipped — indexed
        per the engine's "index what converts" policy.
        """
        try:
            return key_encode(self.key_type, string_value)
        except TypeError_:
            return None

    def spec(self) -> dict[str, str]:
        """Catalog representation."""
        return {"path": self.path_text, "type": self.key_type_name}

    def __repr__(self) -> str:
        return (f"XPathIndexDefinition({self.name!r}, {self.path_text!r}, "
                f"{self.key_type_name})")


def encode_entry_value(docid: int, node_id: bytes, rid: Rid) -> bytes:
    """Entry payload: DocID(8) || NodeID || RID(6).

    RID is fixed-width at the tail, so the variable-length NodeID decodes
    unambiguously; byte order of payloads equals (DocID, document order).
    """
    return docid.to_bytes(8, "big") + node_id + rid.to_bytes()


def decode_entry_value(payload: bytes) -> IndexHit:
    docid = int.from_bytes(payload[:8], "big")
    rid = Rid.from_bytes(payload[-6:])
    return IndexHit(docid, payload[8:-6], rid)
