"""E6 — Table 2: index-based access methods (§4.3).

Reproduces the paper's three access-method cases over two corpora:

* **small-many** — many small documents, where "using indexes to identify
  qualifying documents would be efficient" (DocID-list access);
* **large-few** — few large documents, where "the DocID list access is no
  longer efficient.  Instead, the NodeID list access applies".

For each Table-2 case the bench runs full scan, DocID list and NodeID list,
reporting documents evaluated, logical page touches, and B+tree traffic —
and checks the paper's shape: indexes beat scans everywhere, and the
DocID/NodeID preference flips with document size.
"""

from collections import Counter

from conftest import export_trace, print_table

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.query.plan import AccessMethod
from repro.workload.generator import catalog_document
from repro.workload.queries import Table2Case

# Selective variants of the Table 2 cases (~10% selectivity), per the
# paper's "use indexes to quickly identify a small subset of candidates".
TABLE2_CASES = (
    Table2Case("(1) DocID/NodeID list", "list",
               "/Catalog/Categories/Product[RegPrice > 490]",
               (("ix_regprice",
                 "/Catalog/Categories/Product/RegPrice", "double"),)),
    Table2Case("(2) DocID/NodeID filtering list", "filtering",
               "/Catalog/Categories/Product[Discount > 0.48]",
               (("ix_discount", "//Discount", "double"),)),
    Table2Case("(3) DocID/NodeID ANDing/ORing", "anding",
               "/Catalog/Categories/Product[RegPrice > 400 and "
               "Discount > 0.4]",
               (("ix_regprice",
                 "/Catalog/Categories/Product/RegPrice", "double"),
                ("ix_discount", "//Discount", "double"))),
)


def build_db(n_docs, products_per_doc, with_indexes=True):
    db = Database(DEFAULT_CONFIG.with_(record_size_limit=512,
                                       buffer_pool_pages=4096))
    db.create_table("catalog", [("id", "bigint"), ("doc", "xml")])
    for i in range(n_docs):
        db.insert("catalog",
                  (i, catalog_document(products_per_doc, seed=i)))
    if with_indexes:
        created = set()
        for case in TABLE2_CASES:
            for name, path, key_type in case.index_paths:
                if name not in created:
                    db.create_xpath_index(name, "catalog", "doc",
                                          path, key_type)
                    created.add(name)
    return db


def run_case(db, query, method):
    stats = db.stats
    db.pool.evict_all()
    with stats.charge(delta := Counter()):
        rows = db.xpath("catalog", "doc", query, method=method)
    return len(rows), delta


def corpus_rows(db, corpus_label):
    out = []
    for case in TABLE2_CASES:
        reference = None
        for method in (AccessMethod.FULL_SCAN, AccessMethod.DOCID_LIST,
                       AccessMethod.NODEID_LIST):
            count, delta = run_case(db, case.query, method)
            if reference is None:
                reference = count
            assert count == reference, (case.label, method)
            out.append([
                corpus_label, case.label, method.value, count,
                delta.get("exec.docs_evaluated", 0),
                delta.get("exec.anchors_verified", 0),
                delta.get("buffer.hits", 0) + delta.get("buffer.misses", 0),
                delta.get("btree.entries_scanned", 0),
            ])
    return out


def test_e6_access_methods(benchmark):
    small_many = build_db(n_docs=60, products_per_doc=3)
    large_few = build_db(n_docs=4, products_per_doc=150)

    rows = corpus_rows(small_many, "small-many") + \
        corpus_rows(large_few, "large-few")
    print_table(
        "E6: Table 2 access methods "
        "(small-many: 60 docs x 3 products; large-few: 4 docs x 150)",
        ["corpus", "case", "method", "results", "docs eval",
         "anchors", "page touches", "ix entries"],
        rows)

    def pages(db, query, method):
        _count, delta = run_case(db, query, method)
        return delta.get("buffer.hits", 0) + delta.get("buffer.misses", 0)

    query1 = TABLE2_CASES[0].query
    # Index access beats the scan on both corpora.
    assert pages(small_many, query1, AccessMethod.DOCID_LIST) < \
        pages(small_many, query1, AccessMethod.FULL_SCAN)
    assert pages(large_few, query1, AccessMethod.NODEID_LIST) < \
        pages(large_few, query1, AccessMethod.FULL_SCAN)
    # The paper's crossover: NodeID lists win on large documents.
    assert pages(large_few, query1, AccessMethod.NODEID_LIST) < \
        pages(large_few, query1, AccessMethod.DOCID_LIST)
    # The planner's own heuristic picks accordingly.
    assert small_many.plan_xpath("catalog", "doc", query1).method \
        is AccessMethod.DOCID_LIST
    assert large_few.plan_xpath("catalog", "doc", query1).method \
        is AccessMethod.NODEID_LIST

    # Attach an EXPLAIN ANALYZE trace artifact per access method so the
    # per-operator counter deltas behind the table are inspectable.
    for method in (AccessMethod.FULL_SCAN, AccessMethod.DOCID_LIST,
                   AccessMethod.NODEID_LIST):
        analyzed = large_few.explain_analyze("catalog", "doc", query1,
                                             method=method)
        export_trace(f"e6_{method.value.replace('-', '_')}", analyzed)

    benchmark(lambda: large_few.xpath("catalog", "doc", query1,
                                      method=AccessMethod.NODEID_LIST))


def test_e6_exact_vs_filtering(benchmark):
    """Case 1 (exact) vs case 2 (containment/filtering): the filtering list
    admits candidates the re-evaluation must discard."""
    db = build_db(n_docs=40, products_per_doc=3)
    exact_plan = db.plan_xpath("catalog", "doc", TABLE2_CASES[0].query)
    filtering_plan = db.plan_xpath("catalog", "doc", TABLE2_CASES[1].query)
    assert exact_plan.exact
    assert not filtering_plan.exact
    rows = [
        [TABLE2_CASES[0].label, "exact" if exact_plan.exact else "filtering"],
        [TABLE2_CASES[1].label,
         "exact" if filtering_plan.exact else "filtering"],
    ]
    print_table("E6: list exactness per Table 2 case",
                ["case", "list kind"], rows)
    benchmark(lambda: db.xpath("catalog", "doc", TABLE2_CASES[1].query,
                               method=AccessMethod.DOCID_LIST))
