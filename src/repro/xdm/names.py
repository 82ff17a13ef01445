"""Database-wide integer encoding of XML names.

"In the stored XML data, all the names for elements, attributes, and
namespaces are encoded using integers across the entire database" (§3.1).
The :class:`NameTable` interns ``(namespace-uri, local-name)`` pairs and
namespace URIs, and lives in the catalog.
"""

from __future__ import annotations

import re

from repro.errors import CatalogError

#: Reserved URI id meaning "no namespace".
NO_NAMESPACE = 0

_NAME_START = ("A-Z_a-z\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d"
               "\u037f-\u1fff\u200c-\u200d\u2070-\u218f\u2c00-\u2fef"
               "\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd"
               "\U00010000-\U000effff")
_NAME_CHAR = _NAME_START + "\\-.0-9\u00b7\u0300-\u036f\u203f-\u2040"
_NCNAME = f"[{_NAME_START}][{_NAME_CHAR}]*"

#: The XML Namespaces ``QName`` production: ``prefix:local`` or ``local``,
#: each part an ``NCName`` (XML 1.0 5th-edition name characters).
QNAME = re.compile(f"(?:{_NCNAME}:)?{_NCNAME}")


class NameTable:
    """Bidirectional mapping between names and small integers."""

    def __init__(self) -> None:
        self._uri_to_id: dict[str, int] = {"": NO_NAMESPACE}
        self._uris: list[str] = [""]
        self._name_to_id: dict[tuple[int, str], int] = {}
        self._names: list[tuple[int, str]] = []

    # -- namespace URIs ----------------------------------------------------

    def intern_uri(self, uri: str) -> int:
        """Intern a namespace URI, returning its id."""
        found = self._uri_to_id.get(uri)
        if found is not None:
            return found
        uri_id = len(self._uris)
        self._uris.append(uri)
        self._uri_to_id[uri] = uri_id
        return uri_id

    def uri(self, uri_id: int) -> str:
        """The URI string for ``uri_id``."""
        try:
            return self._uris[uri_id]
        except IndexError:
            raise CatalogError(f"unknown namespace-uri id {uri_id}") from None

    # -- qualified names -----------------------------------------------------

    def intern_name(self, local: str, uri: str = "") -> int:
        """Intern a qualified name, returning its id."""
        uri_id = self.intern_uri(uri)
        key = (uri_id, local)
        found = self._name_to_id.get(key)
        if found is not None:
            return found
        name_id = len(self._names)
        self._names.append(key)
        self._name_to_id[key] = name_id
        return name_id

    def lookup_name(self, local: str, uri: str = "") -> int | None:
        """Id of an already-interned name, or None."""
        uri_id = self._uri_to_id.get(uri)
        if uri_id is None:
            return None
        return self._name_to_id.get((uri_id, local))

    def name(self, name_id: int) -> tuple[str, str]:
        """``(local, uri)`` for ``name_id``."""
        try:
            uri_id, local = self._names[name_id]
        except IndexError:
            raise CatalogError(f"unknown name id {name_id}") from None
        return local, self._uris[uri_id]

    def local_name(self, name_id: int) -> str:
        """Just the local part of ``name_id``."""
        return self.name(name_id)[0]
