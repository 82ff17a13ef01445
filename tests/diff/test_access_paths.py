"""Differential gate for the three access paths and the DocID join.

A full scan reads the NodeID index once, grouped by DocID; a DocID-list
plan reads each candidate document's entry range; a NodeID-list plan
descends to each anchor and probes the index for its proxies.  All three
must return the same rows on documents split across many records (record
limits from 64 B, so proxies appear at every level), after deletes leave
gaps in the DocIDs, and on an empty column.  Every row must carry its own
document's base row, although the join searches once per document.
"""

from collections import Counter

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import Database
from repro.query.plan import AccessMethod
from repro.workload.generator import catalog_document

_LIMITS = [64, 128, 400]
_QUERIES = ["/Catalog/Categories/Product[RegPrice > 250]",
            "/Catalog/Categories/Product[RegPrice > 100 and RegPrice < 300]",
            "/Catalog/Categories/Product[RegPrice = 1]",
            "/Catalog/Categories/Product/RegPrice[. > 400]"]


def _database(limit):
    db = Database(EngineConfig(page_size=1024, buffer_pool_pages=64,
                               record_size_limit=limit))
    db.create_table("t", [("id", "BIGINT"), ("doc", "XML")])
    db.create_xpath_index("ix_price", "t", "doc",
                          "/Catalog/Categories/Product/RegPrice", "double")
    return db


def _rows(db, query, method):
    return [(r.docid, r.node_id, r.row)
            for r in db.xpath("t", "doc", query, method=method)]


def _assert_paths_agree(db):
    for query in _QUERIES:
        results = {method: _rows(db, query, method) for method in AccessMethod}
        assert results[AccessMethod.FULL_SCAN] == \
            results[AccessMethod.DOCID_LIST] == \
            results[AccessMethod.NODEID_LIST], query


@pytest.mark.parametrize("limit", _LIMITS)
def test_paths_agree_across_records_and_docid_gaps(limit):
    db = _database(limit)
    for i in range(12):
        db.insert("t", (i, catalog_document(4, seed=i)))
    store = db.xml_stores[("t", "doc")]
    assert len(store.node_index.record_rids(1)) > 1  # proxies to resolve
    _assert_paths_agree(db)
    for rid, row in list(db.tables["t"].scan_rids()):
        if row[0] % 3 == 0:
            db.delete_row("t", rid)
    for i in range(12, 16):
        db.insert("t", (i, catalog_document(4, seed=i)))
    docids = store.docids()
    assert docids != list(range(docids[0], docids[0] + len(docids)))
    _assert_paths_agree(db)
    assert db.xpath("t", "doc", _QUERIES[0],
                    method=AccessMethod.FULL_SCAN)  # not vacuous


def test_paths_agree_on_an_empty_column():
    db = _database(64)
    for method in AccessMethod:
        assert db.xpath("t", "doc", _QUERIES[0], method=method) == []
    db.insert("t", (0, catalog_document(4, seed=0)))
    db.delete_row("t", next(db.tables["t"].scan_rids())[0])
    _assert_paths_agree(db)
    assert db.xpath("t", "doc", "/Catalog",
                    method=AccessMethod.FULL_SCAN) == []


@pytest.mark.parametrize("method", list(AccessMethod))
def test_each_result_joins_its_own_base_row(method):
    """Several matches in each of several documents: a match never takes
    the previous match's base row unless they share a document."""
    db = _database(128)
    for i in range(6):
        db.insert("t", (100 + i, catalog_document(8, seed=i)))
    ids = {row[1]: row[0] for _, row in db.tables["t"].scan_rids()}
    results = db.xpath("t", "doc", _QUERIES[1], method=method)
    per_doc = Counter(result.docid for result in results)
    assert len(per_doc) > 2 and max(per_doc.values()) > 1
    for result in results:
        assert result.row == (ids[result.docid], result.docid)
        assert db.tables["t"].fetch(result.base_rid) == result.row


def test_full_scan_searches_once_per_matched_document():
    """Over single-record documents a full scan makes no NodeID-index
    probe, and the join one DocID search per document with a result."""
    db = _database(4000)
    for i in range(10):
        db.insert("t", (i, catalog_document(3, seed=i)))
    store = db.xml_stores[("t", "doc")]
    assert all(len(store.node_index.record_rids(docid)) == 1
               for docid in store.docids())
    query = "/Catalog/Categories/Product[RegPrice > 300]"
    with db.stats.charge(delta := Counter()):
        results = db.xpath("t", "doc", query, method=AccessMethod.FULL_SCAN)
    matched = {result.docid for result in results}
    assert 1 < len(matched) < min(10, len(results))
    assert delta["btree.searches"] == len(matched)
    assert delta["ts.records_read"] == 10 + len(matched)
