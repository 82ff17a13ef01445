"""EXPLAIN ANALYZE acceptance tests: span trees with per-operator counter
deltas for all four access-method operators (full scan, DocID list, anchor
verification, NodeID list)."""

import json

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.query.plan import AccessMethod


def catalog_doc(price, discount, name):
    return (f"<Catalog><Categories><Product id='x'>"
            f"<ProductName>{name}</ProductName>"
            f"<RegPrice>{price}</RegPrice>"
            f"<Discount>{discount}</Discount>"
            f"</Product></Categories></Catalog>")


QUERY = "/Catalog/Categories/Product[RegPrice > 100]"


@pytest.fixture
def db():
    database = Database(DEFAULT_CONFIG.with_(record_size_limit=128))
    database.create_table("catalog", [("id", "bigint"), ("doc", "xml")])
    prices = [50, 80, 120.5, 150, 200, 95, 130]
    discounts = [0.05, 0.2, 0.15, 0.3, 0.02, 0.12, 0.25]
    for i, (price, discount) in enumerate(zip(prices, discounts, strict=True)):
        database.insert("catalog",
                        (i, catalog_doc(price, discount, f"Item{i}")))
    database.create_xpath_index(
        "ix_price", "catalog", "doc",
        "/Catalog/Categories/Product/RegPrice", "double")
    return database


class TestExplainAnalyze:
    def test_full_scan_span_tree(self, db):
        result = db.explain_analyze("catalog", "doc", QUERY,
                                    method=AccessMethod.FULL_SCAN)
        assert result.plan.method is AccessMethod.FULL_SCAN
        assert result.row_count == 4
        scan = result.span("exec.full_scan")
        assert scan is not None
        assert scan.attrs["docs"] == 7
        assert scan.attrs["rows"] == 4
        # The operator's counter deltas carry the actual work.
        assert scan.counter("exec.docs_evaluated") == 7
        assert scan.counter("xscan.events") > 0
        # One QuickXScan child per evaluated document.
        assert len(scan.find_all("xscan.run")) == 7

    def test_docid_list_span_tree(self, db):
        result = db.explain_analyze("catalog", "doc", QUERY,
                                    method=AccessMethod.DOCID_LIST)
        assert result.row_count == 4
        op = result.span("exec.docid_list")
        assert op is not None
        probe = op.find("exec.probe")
        assert probe.attrs["candidates"] == 4
        assert probe.counter("btree.entries_scanned") > 0
        # Only candidate documents were re-evaluated.
        assert op.counter("exec.docs_evaluated") == 4

    def test_nodeid_list_and_anchor_spans(self, db):
        result = db.explain_analyze("catalog", "doc", QUERY,
                                    method=AccessMethod.NODEID_LIST)
        assert result.row_count == 4
        op = result.span("exec.nodeid_list")
        assert op is not None
        anchor = op.find("exec.anchor")
        assert anchor is not None
        assert anchor.attrs["anchors"] == 4
        assert anchor.counter("exec.anchors_verified") == 4
        # Anchor verification replays subtrees, never whole documents.
        assert op.counter("exec.docs_evaluated") == 0
        assert anchor.counter("buffer.hits") + \
            anchor.counter("buffer.misses") > 0

    def test_operator_costs_summary(self, db):
        result = db.explain_analyze("catalog", "doc", QUERY,
                                    method=AccessMethod.DOCID_LIST)
        costs = result.operator_costs()
        assert "exec.docid_list" in costs
        assert costs["exec.probe"]["exec.candidates"] == 4
        # Repeated per-document scans aggregate into one operator row.
        assert costs["xscan.run"]["xscan.events"] > 0

    def test_format_is_db2_style_text(self, db):
        result = db.explain_analyze("catalog", "doc", QUERY)
        text = result.format()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "access method:" in text
        assert "actual rows: 4" in text
        assert "operators (actual):" in text
        assert "trace:" in text

    def test_to_json_is_loadable(self, db):
        result = db.explain_analyze("catalog", "doc", QUERY,
                                    method=AccessMethod.NODEID_LIST)
        data = json.loads(result.to_json())
        assert data["plan"]["method"] == "nodeid-list"
        assert data["rows"] == 4
        assert data["trace"]["children"]  # span tree present

    def test_results_match_plain_xpath(self, db):
        plain = db.xpath("catalog", "doc", QUERY)
        explained = db.explain_analyze("catalog", "doc", QUERY)
        assert sorted(m.docid for m in explained.matches) == \
            sorted(r.docid for r in plain)

    def test_tracer_uninstalled_afterwards(self, db):
        db.explain_analyze("catalog", "doc", QUERY)
        assert db.stats.tracer is None

    def test_plain_queries_untraced_by_default(self, db):
        # No tracer installed: the hot path must not build spans.
        assert db.stats.tracer is None
        rows = db.xpath("catalog", "doc", QUERY)
        assert len(rows) == 4

    def test_explain_traces_dml_too(self, db):
        from repro.obs import Tracer
        tracer = Tracer(db.stats)
        with tracer.install():
            db.insert("catalog", (99, catalog_doc(999, 0.5, "Traced")))
        insert_span = tracer.root.find("db.insert")
        assert insert_span is not None
        assert insert_span.counter("wal.records") >= 1
        assert insert_span.counter("btree.inserts") >= 1
