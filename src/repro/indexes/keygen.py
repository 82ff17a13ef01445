"""Per-record index key generation (§3.2-§3.3).

"Index keys for the node ID index and XPath value indexes are generated per
record, which fits existing infrastructure very well."  A record is
self-contained: its header carries the context path (ancestor element names)
and in-scope namespaces, so the index path can be evaluated against a single
record.  The events come from the stored-document reader
(:mod:`repro.xmlstore.traversal`): its walker run without a proxy resolver,
so packed-out subtrees produce their keys when their own records are
processed, inside its ancestor replay.  "A simplified version of our
streaming XPath algorithm (QuickXScan) is used to evaluate the XPath on each
record."

Known simplification (documented in DESIGN.md): a matched element whose text
was split into a packed-out record contributes only the text present in its
own record to the key value; the packer keeps text with its parent, so this
arises only for oversized subtrees.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.stats import StatsRegistry
from repro.xdm.events import SaxEvent
from repro.xdm.names import NameTable
from repro.xmlstore import format as fmt
from repro.xmlstore.traversal import in_context_events, walk
from repro.xpath.qtree import QueryTree, compile_query
from repro.xpath.quickxscan import QuickXScan
from repro.xpath.values import Item

from repro.indexes.definition import XPathIndexDefinition


def record_local_events(record: bytes, names: NameTable
                        ) -> Iterator[SaxEvent]:
    """Virtual SAX events for one record only (ancestors and the context
    node's in-scope namespaces replayed from the header, proxies skipped)."""
    header, body_start = fmt.decode_header(record)
    ancestors = [names.name(name_id) for name_id in header.context_path]
    namespaces = [(prefix, uri) for prefix, uri_id in header.namespaces
                  if (uri := names.uri(uri_id))]
    yield from in_context_events(ancestors, walk(
        record, body_start, len(record), header.context_id, names),
        namespaces)


def generate_keys(definition: XPathIndexDefinition, record: bytes,
                  names: NameTable, stats: StatsRegistry | None = None
                  ) -> list[tuple[bytes, Item]]:
    """Evaluate the index path over one record, charging ``stats``.

    Returns ``(encoded_key, item)`` pairs — zero, one or more per record
    (the extended-index property the index manager must support, §3.3).
    Nodes whose value does not convert to the key type are skipped.
    """
    query = _query_for(definition)
    items = QuickXScan(query, stats=stats).run(
        record_local_events(record, names))
    out = []
    for item in items:
        if item.node_id is None:
            continue  # a synthesized ancestor matched; it has no identity here
        key = definition.convert_key(item.string_value())
        if key is not None:
            out.append((key, item))
    return out


def _query_for(definition: XPathIndexDefinition) -> QueryTree:
    # Compile once per definition and cache on the definition itself.
    query = getattr(definition, "_compiled_query", None)
    if query is None:
        query = compile_query(definition.path, collect_result_values=True)
        definition._compiled_query = query  # type: ignore[attr-defined]
    return query
