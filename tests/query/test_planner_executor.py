"""Tests for access-path selection and plan execution (Table 2)."""

from collections import Counter

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.query.plan import AccessMethod


def catalog_doc(price, discount, name, nested=0):
    product = (f"<Product id='x'><ProductName>{name}</ProductName>"
               f"<RegPrice>{price}</RegPrice>"
               f"<Discount>{discount}</Discount></Product>")
    filler = "".join(f"<Filler n='{i}'>pad pad pad</Filler>"
                     for i in range(nested))
    return f"<Catalog><Categories>{product}{filler}</Categories></Catalog>"


@pytest.fixture
def db():
    database = Database(DEFAULT_CONFIG.with_(record_size_limit=128))
    database.create_table("catalog", [("id", "bigint"), ("doc", "xml")])
    prices = [50, 80, 120.5, 150, 200, 95, 130]
    discounts = [0.05, 0.2, 0.15, 0.3, 0.02, 0.12, 0.25]
    for i, (price, discount) in enumerate(zip(prices, discounts, strict=True)):
        database.insert("catalog",
                        (i, catalog_doc(price, discount, f"Item{i}")))
    return database


@pytest.fixture
def indexed_db(db):
    db.create_xpath_index("ix_price", "catalog", "doc",
                          "/Catalog/Categories/Product/RegPrice", "double")
    db.create_xpath_index("ix_discount", "catalog", "doc",
                          "//Discount", "double")
    return db


QUERY_PRICE = "/Catalog/Categories/Product[RegPrice > 100]"
QUERY_DISCOUNT = "/Catalog/Categories/Product[Discount > 0.1]"
QUERY_BOTH = ("/Catalog/Categories/Product[RegPrice > 100 and "
              "Discount > 0.1]")


class TestPlanner:
    def test_no_index_full_scan(self, db):
        plan = db.plan_xpath("catalog", "doc", QUERY_PRICE)
        assert plan.method is AccessMethod.FULL_SCAN

    def test_exact_index_match(self, indexed_db):
        """Table 2 case 1: index path equals the value path."""
        plan = indexed_db.plan_xpath("catalog", "doc", QUERY_PRICE)
        assert plan.method is not AccessMethod.FULL_SCAN
        assert len(plan.source_groups) == 1
        source = plan.source_groups[0][0]
        assert source.exact
        assert plan.exact

    def test_containment_filtering_match(self, indexed_db):
        """Table 2 case 2: //Discount contains the value path."""
        plan = indexed_db.plan_xpath("catalog", "doc", QUERY_DISCOUNT)
        source = plan.source_groups[0][0]
        assert source.index.definition.name == "ix_discount"
        assert not source.exact
        assert not plan.exact

    def test_anding_two_indexes(self, indexed_db):
        """Table 2 case 3: both predicates match indexes; ANDing applies."""
        plan = indexed_db.plan_xpath("catalog", "doc", QUERY_BOTH)
        assert len(plan.source_groups) == 2
        # One exact + one containment: NodeID-level ANDing yields an exact
        # list per the paper, but the simple planner reports filtering.
        names = {g[0].index.definition.name for g in plan.source_groups}
        assert names == {"ix_price", "ix_discount"}

    def test_oring(self, indexed_db):
        plan = indexed_db.plan_xpath(
            "catalog", "doc",
            "/Catalog/Categories/Product[RegPrice > 180 or Discount > 0.28]")
        assert len(plan.source_groups) == 1
        assert len(plan.source_groups[0]) == 2

    def test_or_with_unsargable_side_scans(self, indexed_db):
        plan = indexed_db.plan_xpath(
            "catalog", "doc",
            "/Catalog/Categories/Product[RegPrice > 180 or "
            "contains(ProductName, 'Item')]")
        assert plan.method is AccessMethod.FULL_SCAN

    def test_unsargable_conjunct_keeps_index(self, indexed_db):
        plan = indexed_db.plan_xpath(
            "catalog", "doc",
            "/Catalog/Categories/Product[RegPrice > 100 and "
            "contains(ProductName, 'Item')]")
        assert plan.method is not AccessMethod.FULL_SCAN
        assert len(plan.source_groups) == 1
        assert not plan.exact

    def test_flipped_literal(self, indexed_db):
        plan = indexed_db.plan_xpath(
            "catalog", "doc", "/Catalog/Categories/Product[100 < RegPrice]")
        assert plan.method is not AccessMethod.FULL_SCAN
        assert plan.source_groups[0][0].op == ">"

    def test_method_threshold(self, indexed_db):
        planner = indexed_db.planner("catalog", "doc")
        planner.nodeid_threshold = 1  # force "large documents"
        compiled = indexed_db.compile_xpath(QUERY_PRICE)
        plan = planner.plan(*compiled)
        assert plan.method is AccessMethod.NODEID_LIST
        planner.nodeid_threshold = 10**9
        plan = planner.plan(*compiled)
        assert plan.method is AccessMethod.DOCID_LIST

    def test_explain(self, indexed_db):
        plan = indexed_db.plan_xpath("catalog", "doc", QUERY_BOTH)
        text = plan.explain()
        assert "probe" in text and "ANDing" in text


class TestExecutionEquivalence:
    """All three access methods return identical results."""

    QUERIES = [QUERY_PRICE, QUERY_DISCOUNT, QUERY_BOTH,
               "/Catalog/Categories/Product[RegPrice > 100 or "
               "Discount > 0.2]",
               "/Catalog/Categories/Product[RegPrice = 120.5]",
               "/Catalog/Categories/Product[RegPrice > 1000]"]

    @pytest.mark.parametrize("query", QUERIES)
    def test_methods_agree(self, indexed_db, query):
        results = {}
        for method in AccessMethod:
            rows = indexed_db.xpath("catalog", "doc", query, method=method)
            results[method] = sorted(
                (r.docid, r.node_id) for r in rows)
        assert results[AccessMethod.FULL_SCAN] == \
            results[AccessMethod.DOCID_LIST] == \
            results[AccessMethod.NODEID_LIST]

    def test_expected_counts(self, indexed_db):
        # prices: 50, 80, 120.5, 150, 200, 95, 130 -> 4 above 100
        assert len(indexed_db.xpath("catalog", "doc", QUERY_PRICE)) == 4
        # discounts above 0.1: 0.2, 0.15, 0.3, 0.12, 0.25 -> 5
        assert len(indexed_db.xpath("catalog", "doc", QUERY_DISCOUNT)) == 5
        # both: (120.5,0.15),(150,0.3),(130,0.25) -> 3
        assert len(indexed_db.xpath("catalog", "doc", QUERY_BOTH)) == 3

    def test_index_access_touches_fewer_documents(self, indexed_db):
        stats = indexed_db.stats
        with stats.charge(scan_delta := Counter()):
            indexed_db.xpath("catalog", "doc", QUERY_PRICE,
                             method=AccessMethod.FULL_SCAN)
        with stats.charge(index_delta := Counter()):
            indexed_db.xpath("catalog", "doc", QUERY_PRICE,
                             method=AccessMethod.DOCID_LIST)
        assert index_delta.get("exec.docs_evaluated", 0) < \
            scan_delta.get("exec.docs_evaluated", 0)

    def test_nodeid_access_fetches_records_not_documents(self, indexed_db):
        stats = indexed_db.stats
        with stats.charge(delta := Counter()):
            rows = indexed_db.xpath("catalog", "doc", QUERY_PRICE,
                                    method=AccessMethod.NODEID_LIST)
        assert len(rows) == 4
        assert delta.get("exec.anchors_verified", 0) == 4
        assert delta.get("exec.docs_evaluated", 0) == 0


class TestEngineSurface:
    def test_results_join_base_rows(self, indexed_db):
        rows = indexed_db.xpath("catalog", "doc", QUERY_PRICE)
        for result in rows:
            assert result.row[0] in range(7)        # base id column
            assert result.row[1] == result.docid    # XML column holds DocID

    def test_serialize_result(self, indexed_db):
        rows = indexed_db.xpath("catalog", "doc",
                                "/Catalog/Categories/Product[RegPrice = 200]")
        xml = indexed_db.serialize_result("catalog", "doc", rows[0])
        assert xml.startswith("<Product")
        assert "<RegPrice>200</RegPrice>" in xml

    def test_get_document(self, db):
        text = db.get_document("catalog", "doc", 1)
        assert text.startswith("<Catalog>")

    def test_delete_row_cleans_everything(self, indexed_db):
        rows = indexed_db.xpath("catalog", "doc", QUERY_PRICE)
        before = len(rows)
        victim = rows[0]
        indexed_db.delete_row("catalog", victim.base_rid)
        after = indexed_db.xpath("catalog", "doc", QUERY_PRICE)
        assert len(after) == before - 1
        assert all(r.docid != victim.docid for r in after)

    def test_attribute_query_through_engine(self, db):
        rows = db.xpath("catalog", "doc", "//Product/@id")
        assert len(rows) == 7

    def test_recovery_replay(self, indexed_db):
        replayed = Database.replay(indexed_db.log, indexed_db.config)
        original = indexed_db.xpath("catalog", "doc", QUERY_BOTH)
        recovered = replayed.xpath("catalog", "doc", QUERY_BOTH)
        assert [(r.docid, r.node_id) for r in original] == \
            [(r.docid, r.node_id) for r in recovered]
        # Value indexes were rebuilt by DDL replay.
        assert replayed.plan_xpath("catalog", "doc", QUERY_PRICE).method \
            is not AccessMethod.FULL_SCAN

    def test_recovery_skips_uncommitted(self):
        db = Database()
        db.create_table("t", [("doc", "xml")])
        txn = db.txns.begin()
        db.insert("t", ("<a>committed</a>",), txn_id=txn.txn_id)
        txn.commit()
        loser = db.txns.begin()
        db.insert("t", ("<a>lost</a>",), txn_id=loser.txn_id)
        # loser never commits; replay must drop its insert.
        replayed = Database.replay(db.log)
        assert replayed.tables["t"].row_count == 1
