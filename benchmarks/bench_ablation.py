"""Ablations for the design choices DESIGN.md calls out (§3.1, §3.3).

* **Interval-endpoint NodeID keys** vs. one entry per node: index size and
  probe cost of the paper's scheme against the naive alternative.
* **Logical links through the NodeID index** (no physical pointers): a
  relocation storm moves records around; traversal cost must not degrade.
* **Record-size limit as the only packing knob** ("simple size-based
  grouping"): end-to-end query cost across the sweep, exposing the
  read-vs-update tradeoff E1-E3 quantify per layer.
"""

from conftest import fresh_names, fresh_pool, print_table

from repro.lang.parser import parse_xpath
from repro.rdb.btree import BTree
from repro.workload.generator import wide_document
from repro.xdm.events import EventKind
from repro.xmlstore import format as fmt
from repro.xmlstore.node_index import index_key
from repro.xmlstore.store import XmlStore
from repro.xmlstore.traversal import EventSink, RecordScan
from repro.xmlstore.update import XmlUpdater
from repro.xpath.qtree import compile_query
from repro.xpath.quickxscan import QuickXScan, evaluate

DOC = wide_document(n_children=300, payload_words=4, seed=21)
#: Compiled once, so each run measures the scan, not the XPath parser.
ROW_250 = compile_query(parse_xpath("//row[@n = '250']"))


def test_ablation_interval_vs_per_node_index(benchmark):
    """The paper's upper-endpoint interval entries vs. one entry per node."""
    pool, stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=512)
    store.insert_document_text(1, DOC)

    # Build the naive variant: one (DocID, NodeID) -> RID entry per node.
    per_node = BTree(pool, name="pernode", unique=True)
    node_ids = []
    for rid in store.node_index.record_rids(1):
        record = store.read_record(rid)
        header, start = fmt.decode_header(record)
        events = []
        RecordScan(store.names, record, start, len(record),
                   header.context_id).drive(EventSink(events.append))
        for event in events:
            if event.kind is not EventKind.ELEM_END:
                per_node.insert(index_key(1, event.node_id), rid.to_bytes())
                node_ids.append(event.node_id)

    with stats.delta() as interval_probe:
        for abs_id in node_ids:
            assert store.node_index.probe(1, abs_id) is not None
    with stats.delta() as pernode_probe:
        for abs_id in node_ids:
            assert per_node.search_one(index_key(1, abs_id)) is not None

    rows = [
        ["interval endpoints (paper)", store.node_index.entry_count,
         store.node_index.tree.page_count,
         interval_probe.get("buffer.hits", 0)
         + interval_probe.get("buffer.misses", 0)],
        ["one entry per node", per_node.entry_count, per_node.page_count,
         pernode_probe.get("buffer.hits", 0)
         + pernode_probe.get("buffer.misses", 0)],
    ]
    print_table(
        f"ablation: NodeID index schemes ({len(node_ids)} nodes)",
        ["scheme", "entries", "index pages", "page touches / full probe set"],
        rows)
    # Same probe capability, far smaller index.
    assert store.node_index.entry_count * 5 < per_node.entry_count
    assert store.node_index.tree.page_count <= per_node.page_count

    benchmark(lambda: [store.node_index.probe(1, abs_id)
                       for abs_id in node_ids[:50]])


def test_ablation_logical_links_survive_relocation(benchmark):
    """Free record placement: traversal cost before and after a relocation
    storm (records moved by growth updates) stays flat because links are
    logical (DocID, NodeID) pairs, not physical pointers."""
    pool, stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=128)
    store.insert_document_text(1, DOC)

    def traversal_fetches():
        with stats.delta() as delta:
            sum(1 for _ in store.document(1).events())
        return delta.get("ts.records_read", 0)

    before = traversal_fetches()
    updater = XmlUpdater(store)
    texts = [e.node_id for e in store.document(1).events()
             if e.kind is EventKind.TEXT][:80]
    for i, node_id in enumerate(texts):
        updater.replace_text(1, node_id, f"grown-{i}-" + "z" * 100)
    after = traversal_fetches()
    print_table(
        "ablation: traversal record fetches before/after relocation storm",
        ["phase", "record fetches"],
        [["before (clustered)", before],
         ["after 80 growth updates", after]])
    # Records grew (more of them), but cost stays proportional to the
    # record count — no broken chains, no extra indirection.
    assert after <= before * 3
    result = evaluate("//row", store.document(1).events())
    assert len(result) == 300

    benchmark(lambda: sum(1 for _ in store.document(1).events()))


def test_ablation_record_limit_query_cost(benchmark):
    """End-to-end query page touches across the packing sweep."""
    rows = []
    for limit in (64, 256, 1024, 4000):
        pool, stats = fresh_pool(capacity=64)
        store = XmlStore(pool, fresh_names(), record_limit=limit)
        store.insert_document_text(1, DOC)
        pool.evict_all()
        with stats.delta() as delta:
            matches = QuickXScan(ROW_250).run(store.document(1).events())
        assert len(matches) == 1
        rows.append([limit, store.space.record_count,
                     delta.get("buffer.misses", 0),
                     delta.get("ts.records_read", 0)])
    print_table(
        "ablation: scan-query cost vs record-size limit (cold pool)",
        ["limit", "records", "page misses", "record fetches"],
        rows)

    pool, _stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=1024)
    store.insert_document_text(1, DOC)
    benchmark(lambda: QuickXScan(ROW_250).run(store.document(1).events()))
