"""E5c — Table 1: propagation of sequence-valued attributes.

The four matching shapes of Table 1 (child/descendant axis × flat/nested
outer step) are generated at scale; the experiment verifies the propagated
sequences are complete and duplicate-free (counts match the DOM evaluator)
and times the propagation-heavy recursive case.
"""

from conftest import print_table

from repro.lang.parser import parse_xpath
from repro.xdm.events import assign_node_ids
from repro.xdm.parser import parse
from repro.xpath.domeval import evaluate_dom
from repro.xpath.qtree import compile_query
from repro.xpath.quickxscan import QuickXScan


def _case1(n):  # a/b, flat
    return "<a>" + "<b>x</b>" * n + "</a>", "/a/b"


def _case2(n):  # a/b with nested a's
    doc = "<a><b>t</b>" * n + "</a>" * n
    return doc, "//a/b"


def _case3(n):  # a//b with nested b's
    return "<a>" + "<b>" * n + "x" + "</b>" * n + "</a>", "/a//b"


def _case4(n):  # a//b, both nested
    doc = ("<a>" * n) + ("<b>" * n) + "x" + ("</b>" * n) + ("</a>" * n)
    return doc, "//a//b"


CASES = [("1: a/b", _case1), ("2: nested-a a/b", _case2),
         ("3: a//b nested-b", _case3), ("4: nested both a//b", _case4)]


def test_e5c_table1_propagation(benchmark):
    n = 24
    rows = []
    for label, make in CASES:
        doc, query = make(n)
        events = list(assign_node_ids(parse(doc).events()))
        stream = QuickXScan(compile_query(parse_xpath(query))).run(
            iter(events))
        dom = evaluate_dom(query, iter(events))
        ids = [i.node_id for i in stream]
        assert ids == [i.node_id for i in dom], label
        assert len(set(ids)) == len(ids), f"duplicates in {label}"
        rows.append([label, query, len(stream),
                     "duplicate-free" if len(set(ids)) == len(ids)
                     else "DUPLICATES"])
    print_table("E5c: Table 1 propagation scenarios (n = 24)",
                ["case", "path", "sequence length", "check"], rows)

    doc, query = _case4(n)
    events = list(assign_node_ids(parse(doc).events()))
    compiled = compile_query(parse_xpath(query),
                             collect_result_values=False)
    benchmark(lambda: QuickXScan(compiled).run(iter(events)))
