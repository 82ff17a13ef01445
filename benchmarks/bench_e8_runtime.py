"""E8 — virtual SAX runtime: shared routines, no unified tree (Fig. 8, §4.4).

Paper claims: "To avoid data copying and format conversion cost, we do not
construct a single unified in-memory tree representation for a task"; a
proper iterator adapts each data form (token stream, persistent records,
constructed data, in-memory sequence) to virtual SAX events, and the three
tasks (serialization, tree construction, XPath evaluation) share one code
path.  The bench runs the full matrix and compares pipelined serialization
against materialize-then-serialize.
"""

import time

from conftest import fresh_names, fresh_pool, print_table

from repro.lang.parser import parse_xpath
from repro.query.constructors import Arg, XElem, compile_template
from repro.workload.generator import catalog_document
from repro.xdm.events import build_tree, events_from_tree
from repro.xdm.parser import parse
from repro.xdm.serializer import serialize
from repro.xmlstore.store import XmlStore
from repro.xpath.qtree import compile_query
from repro.xpath.quickxscan import QuickXScan

DOC = catalog_document(n_products=80, seed=2)
QUERY = "//Product[RegPrice > 250]/ProductName"
#: Compiled once, so each run measures the scan, not the XPath parser.
QUERY_TREE = compile_query(parse_xpath(QUERY))


def xscan(events):
    return QuickXScan(QUERY_TREE).run(events)


def sources():
    """The four data forms of Fig. 8, each exposing an event iterator."""
    token_stream = parse(DOC)

    pool, _stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=512)
    store.insert_document_text(1, DOC)

    tree = build_tree(parse(DOC))

    template = compile_template(XElem("wrap", children=(Arg(0),)))
    constructed = template.instantiate((DOC.replace("<", "[")
                                        .replace(">", "]")[:200],))
    return {
        "token stream": lambda: token_stream.events(),
        "persistent records": lambda: store.document(1).events(),
        "in-memory tree": lambda: events_from_tree(tree),
        "constructed data": lambda: constructed.events(),
    }


def test_e8_task_matrix(benchmark):
    rows = []
    for label, make_events in sources().items():
        serialized = serialize(make_events())
        rebuilt = build_tree(make_events()) if label != "constructed data" \
            else build_tree(make_events())
        matches = xscan(make_events()) \
            if label != "constructed data" else []
        rows.append([label, len(serialized),
                     sum(1 for _ in rebuilt.descendants_or_self()),
                     len(matches)])
    print_table(
        "E8: every task over every data form (shared virtual-SAX routines)",
        ["data form", "serialize -> bytes", "tree-construct -> nodes",
         "xpath -> matches"],
        rows)
    # The engine paths agree regardless of the input form.
    forms = sources()
    assert serialize(forms["token stream"]()) == \
        serialize(forms["persistent records"]()) == \
        serialize(forms["in-memory tree"]())
    assert len(xscan(forms["token stream"]())) == \
        len(xscan(forms["persistent records"]()))

    store_events = forms["persistent records"]
    benchmark(lambda: serialize(store_events()))


def timed(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e8_pipelining_vs_materialization(benchmark):
    """Serialize straight off the stored records (the record driver feeds
    the serializer, no event list) vs building a unified tree first — the
    conversion cost the paper's design avoids."""
    pool, _stats = fresh_pool()
    store = XmlStore(pool, fresh_names(), record_limit=512)
    store.insert_document_text(1, DOC)

    pipelined = timed(lambda: store.document(1).serialize())
    materialized = timed(
        lambda: serialize(events_from_tree(
            build_tree(store.document(1).events()))))
    print_table(
        "E8: pipelined vs materialize-then-serialize (persistent source)",
        ["path", "ms"],
        [["pipelined (iterator -> serializer)", f"{pipelined * 1e3:.2f}"],
         ["materialized (iterator -> tree -> serializer)",
          f"{materialized * 1e3:.2f}"]])
    assert pipelined < materialized
    benchmark(lambda: store.document(1).serialize())
