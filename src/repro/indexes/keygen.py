"""Per-record index key generation (§3.2-§3.3).

"Index keys for the node ID index and XPath value indexes are generated per
record, which fits existing infrastructure very well."  A record is
self-contained: its header carries the context path (ancestor element names)
and in-scope namespaces, so the index path can be evaluated against a single
record.  The stored-document reader's one record driver
(:meth:`repro.xmlstore.traversal.RecordScan.of_record`) feeds it to one
scanner per index definition, without a proxy resolver, so packed-out
subtrees produce their keys when their own records are processed; driven
into an :class:`~repro.xmlstore.traversal.EventSink` instead, the same
record gives :func:`record_local_events`, the events that scan sees.  "A
simplified version of our streaming XPath algorithm (QuickXScan) is used to
evaluate the XPath on each record."

Known simplification (documented in DESIGN.md): a matched element whose text
was split into a packed-out record contributes only the text present in its
own record to the key value; the packer keeps text with its parent, so this
arises only for oversized subtrees.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.stats import StatsRegistry, default_stats
from repro.xdm.events import EventKind, SaxEvent
from repro.xdm.names import NameTable
from repro.xmlstore.traversal import EventSink, RecordScan
from repro.xpath.qtree import compile_query
from repro.xpath.quickxscan import QuickXScan
from repro.xpath.values import Item

from repro.indexes.definition import XPathIndexDefinition


def record_local_events(record: bytes, names: NameTable
                        ) -> Iterator[SaxEvent]:
    """Virtual SAX events for one record only, as :func:`generate_keys`
    scans it: the header's ancestors (synthetic, without node IDs) and
    in-scope namespaces around the body, proxies skipped."""
    out = [SaxEvent(EventKind.DOC_START)]
    RecordScan.of_record(record, names).drive(EventSink(out.append))
    out.append(SaxEvent(EventKind.DOC_END))
    yield from out


def generate_keys(definition: XPathIndexDefinition, record: bytes,
                  names: NameTable, stats: StatsRegistry | None = None
                  ) -> list[tuple[bytes, Item]]:
    """Evaluate the index path over one record, charging ``stats``.

    Returns ``(encoded_key, item)`` pairs — zero, one or more per record
    (the extended-index property the index manager must support, §3.3).
    Nodes whose value does not convert to the key type are skipped.
    """
    items = _scanner_for(definition, stats).run(
        RecordScan.of_record(record, names))
    out = []
    for item in items:
        if item.node_id is None:
            continue  # a synthesized ancestor matched; it has no identity here
        key = definition.convert_key(item.string_value())
        if key is not None:
            out.append((key, item))
    return out


def _scanner_for(definition: XPathIndexDefinition,
                 stats: StatsRegistry | None) -> QuickXScan:
    # One scanner per definition; another registry gets one on the same tree.
    stats = default_stats(stats)
    scanner = getattr(definition, "_scanner", None)
    if scanner is None or scanner.stats is not stats:
        query = compile_query(definition.path, collect_result_values=True) \
            if scanner is None else scanner.query
        scanner = QuickXScan(query, stats=stats)
        definition._scanner = scanner  # type: ignore[attr-defined]
    return scanner
