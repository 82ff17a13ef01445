"""QuickXScan: the streaming XPath evaluation algorithm (§4.2).

The paper's base access method: "it evaluates an XPath expression by one
pass scan of a document without help from extra indexes" with relational-scan
cost characteristics.  The implementation follows the paper's design:

* the query tree drives an attribute-grammar-style evaluation: the
  *inherited* attribute (does this document node match this query node?) is
  decided on the way down; *synthesized* sequence-valued attributes are
  accumulated on the way up;
* "a logical (horizontal) stack is associated with each query node to keep
  track of matching instances with transitivity, as in the Twig Stack
  algorithm";
* "only the stack top needs to be checked for matching a node, which reduces
  the number of active states ... from potentially exponential ... to the
  number of query nodes at maximum" for each nesting level — the worst-case
  number of live matching units is O(|Q|·r), where r is the document's
  recursion degree;
* matching instances carry an upward link to the deepest matching instance
  of the previous step; at pop time the instance's contribution propagates
  *upward* along that link, and its collected sequences propagate *sideways*
  to the enclosing instance of the same query node (Table 1's transitivity
  propagation).

One divergence from the paper, recorded in DESIGN.md: the unpublished
duplicate-free propagation rules for predicates ([31]) are replaced by
consumption-time de-duplication on document-order keys — same results, same
streaming/state bounds, slightly more work at predicate evaluation.

The evaluator consumes virtual SAX events, so it runs unchanged over parsed
token streams, persistent records, and constructed data (Fig. 8).

Per event the work is kept small: an element or attribute start looks its
candidate query nodes up by local name (wildcard and ``node()`` tests sit in
every list), an element end finalizes only the instances its start pushed,
and the ``xscan.*`` counters are charged once per run.

Skipping subtrees.  When an element start leaves nothing for its subtree to
match, the scan sends the source a skip hint (``send(True)``; see
:func:`repro.xmlstore.traversal.walk`), and the stored-record walker steps
over the subtree without decoding it (§3.4's subtree lengths).  All three
must hold:

* the element pushed no matching instance, so no child step can extend it;
* no value collector is live, so no ancestor needs the subtree's text;
* no query node with a descendant edge has a live parent instance (a
  counter kept on push and pop), so no deeper step can match.

Under those conditions the subtree's events would match nothing, so a
source without ``send`` (a list, a token stream) or one that ignores the
hint gives the identical result.  ``xscan.events`` counts the events the
evaluator consumed: a skipped subtree's never reach it.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import ExecutionError
from repro.lang import ast
from repro.lang.ast import LocationPath
from repro.lang.parser import parse_xpath
from repro.xdm.events import EventKind, SaxEvent
from repro.xpath import functions
from repro.xpath.qtree import (EdgeType, PBinary, PFunction, PLiteral,
                               PPathRef, PSelfRef, PUnary, QNode, QueryTree,
                               Target, compile_query)
from repro.xpath.values import (Item, arithmetic, effective_boolean,
                                general_compare, to_number)

_DOC_START = EventKind.DOC_START
_DOC_END = EventKind.DOC_END
_ELEM_START = EventKind.ELEM_START
_ELEM_END = EventKind.ELEM_END
_ATTR = EventKind.ATTR
_TEXT = EventKind.TEXT
_COMMENT = EventKind.COMMENT
_PI = EventKind.PI


class MatchInstance:
    """A matching instance ("matching"): one (document node, query node)
    pair currently live on its query node's stack."""

    __slots__ = ("qnode", "depth", "order", "node_id", "kind", "local",
                 "value_parts", "seq", "link", "cidx")

    def __init__(self, qnode: QNode, depth: int, order: int,
                 node_id: bytes | None, kind: str, local: str,
                 link: "MatchInstance | None") -> None:
        self.qnode = qnode
        self.depth = depth
        self.order = order
        self.node_id = node_id
        self.kind = kind
        self.local = local
        self.value_parts: list[str] | None = \
            [] if qnode.need_value and kind == "element" else None
        self.seq: dict[int, list[Item]] = {}
        self.link = link
        #: Position in the run's live-collector list (swap-pop removal).
        self.cidx = -1

    def item(self, value: str | None) -> Item:
        return Item(self.order, self.node_id, self.kind, self.local, value)


def _dedup(seq: list[Item]) -> list[Item]:
    """Document-ordered, duplicate-free view of a sequence."""
    seen: set[int] = set()
    out: list[Item] = []
    for item in sorted(seq, key=lambda item: item.order):
        if item.order not in seen:
            seen.add(item.order)
            out.append(item)
    return out


#: Candidates for one event: ``(qnode, uri)`` pairs in qid order, ``uri``
#: the namespace the node's test requires (None: any).
_Candidates = list[tuple[QNode, "str | None"]]


def _name_dispatch(qnodes: list[QNode]
                   ) -> tuple[dict[str, _Candidates], _Candidates]:
    """``local name -> candidates`` for named tests, plus the shared list of
    wildcard and ``node()`` tests (also merged into every name's list).

    Each list keeps qid order: a descendant-or-self child links to its
    parent's instance pushed for the same node in the same event, so the
    parent must be pushed first.
    """
    named: dict[str, _Candidates] = {}
    wild: _Candidates = []
    for qnode in qnodes:
        test = qnode.test
        if not isinstance(test, ast.NameTest):  # node(): any element
            wild.append((qnode, None))
            continue
        # The uri half of ast.NameTest.matches, decided once.
        if test.uri is None:
            if test.prefix is not None:
                continue  # unresolved prefix: matches nothing
            uri = None if test.local == "*" else ""
        else:
            uri = None if test.uri == "*" else test.uri
        if test.local == "*":
            wild.append((qnode, uri))
        else:
            named.setdefault(test.local, []).append((qnode, uri))
    return ({local: sorted(candidates + wild, key=lambda c: c[0].qid)
             for local, candidates in named.items()}, wild)


class QuickXScan:
    """One-pass streaming evaluator for a compiled query tree.

    Construction does the per-query set-up (name dispatch), so one scanner
    serves every document of an execution; :meth:`run` keeps no state
    between documents.
    """

    def __init__(self, query: QueryTree,
                 stats: StatsRegistry | None = None) -> None:
        self.query = query
        self.stats = default_stats(stats)
        # Pre-split query nodes by what they can match.
        self._elements, self._any_element = _name_dispatch(
            [q for q in query.nodes
             if q.target in (Target.ELEMENT, Target.ANY)
             and q.test is not None])
        self._attributes, self._any_attribute = _name_dispatch(
            [q for q in query.nodes if q.target is Target.ATTRIBUTE])
        self._texts = [q for q in query.nodes
                       if q.target in (Target.TEXT, Target.ANY)
                       and q.test is not None]
        self._comments = [q for q in query.nodes
                          if q.target in (Target.COMMENT, Target.ANY)
                          and q.test is not None]
        # With the PI target its kind test names (None: any).
        self._pis = [(q, q.test.target) for q in query.nodes
                     if q.target in (Target.PI, Target.ANY)
                     and isinstance(q.test, ast.KindTest)]
        #: By qid: does an instance of this node arm a descendant edge?
        self._arms = [any(child.edge is not EdgeType.CHILD
                          for child in q.children) for q in query.nodes]

    # -- public API ------------------------------------------------------------

    def run(self, events: Iterable[SaxEvent]) -> list[Item]:
        """Evaluate over one document's event stream; returns the result
        sequence in document order."""
        with self.stats.trace("xscan.run", qnodes=self.query.size) as span:
            result = self._run(events)
            if span is not None:
                span.set("rows", len(result))
            return result

    def _run(self, events: Iterable[SaxEvent]) -> list[Item]:
        stacks: list[list[MatchInstance]] = [[] for _ in self.query.nodes]
        collectors: list[MatchInstance] = []
        #: Per open element, the instances its start pushed (None: none).
        opened: list[list[MatchInstance] | None] = []
        arms = self._arms
        armed = 0  # live instances with a descendant-edge child query node
        live_units = 0
        peak_units = 0
        matchings = 0
        order = 0
        depth = -1
        root_instance: MatchInstance | None = None
        stats = self.stats

        def push(qnode: QNode, node_id: bytes | None, kind: str,
                 local: str, link: MatchInstance | None) -> MatchInstance:
            nonlocal live_units, peak_units, matchings, armed
            instance = MatchInstance(qnode, depth, order, node_id, kind,
                                     local, link)
            stacks[qnode.qid].append(instance)
            if instance.value_parts is not None:
                instance.cidx = len(collectors)
                collectors.append(instance)
            if arms[qnode.qid]:
                armed += 1
            live_units += 1
            matchings += 1
            peak_units = max(peak_units, live_units)
            return instance

        def parent_link(qnode: QNode, node_depth: int
                        ) -> MatchInstance | None:
            """The deepest valid previous-step instance, or None.

            Stack depths increase strictly, so at most the top two entries
            need checking: the top may be an instance pushed for the *same*
            document node in this very event (same depth), in which case the
            deepest strict ancestor sits just below it.
            """
            assert qnode.parent is not None
            stack = stacks[qnode.parent.qid]
            limit = node_depth if qnode.edge is EdgeType.DESCENDANT_OR_SELF \
                else node_depth - 1
            for instance in reversed(stack):
                if instance.depth <= limit:
                    if qnode.edge is EdgeType.CHILD and \
                            instance.depth != node_depth - 1:
                        return None
                    return instance
            return None

        def finalize(instance: MatchInstance) -> None:
            nonlocal live_units, armed
            live_units -= 1
            if arms[instance.qnode.qid]:
                armed -= 1
            if instance.cidx >= 0:
                # O(1) removal: swap the last live collector into this
                # instance's slot (order among collectors is irrelevant —
                # each accumulates text independently).
                last = collectors.pop()
                if last is not instance:
                    collectors[instance.cidx] = last
                    last.cidx = instance.cidx
                instance.cidx = -1
            qnode = instance.qnode
            # Sideways propagation (transitivity, Table 1): collected
            # sequences of descendant-edge children flow to the enclosing
            # instance of the same query node.
            stack = stacks[qnode.qid]
            enclosing = stack[-1] if stack else None
            if enclosing is not None:
                for child in qnode.children:
                    if child.edge is EdgeType.CHILD:
                        continue
                    got = instance.seq.get(child.qid)
                    if got:
                        enclosing.seq.setdefault(child.qid, []).extend(got)
            # Predicate filtering.
            for predicate in qnode.predicates:
                if not effective_boolean(
                        self._eval_pexpr(predicate, instance)):
                    return
            # Upward propagation of this instance's contribution.
            if instance.link is None:
                return
            contribution = self._contribution(instance)
            if contribution:
                instance.link.seq.setdefault(qnode.qid, []).extend(contribution)

        def finalize_leaf(qnode: QNode, node_id: bytes | None, kind: str,
                          local: str, value: str,
                          link: MatchInstance) -> None:
            nonlocal matchings
            if qnode.path_child is not None:
                # An intermediate query node (e.g. an unreduced //) matched a
                # leaf document node: leaves have no subtree, so nothing can
                # match below — the contribution is empty.
                return
            matchings += 1
            # Leaf nodes (attributes/text/comments/PIs) have no subtree:
            # evaluate predicates (rare; must not contain paths) directly.
            if qnode.predicates:
                probe = MatchInstance(qnode, depth + 1, order, node_id, kind,
                                      local, link)
                probe.value_parts = [value]
                for predicate in qnode.predicates:
                    if not effective_boolean(
                            self._eval_pexpr(predicate, probe)):
                        return
            link.seq.setdefault(qnode.qid, []).append(
                Item(order, node_id, kind, local, value))

        elements, any_element = self._elements, self._any_element
        attributes, any_attribute = self._attributes, self._any_attribute
        source = iter(events)
        advance = source.__next__
        # Only a generator can take the skip hint; one that ignores it
        # yields the subtree anyway, which then matches nothing.
        send = getattr(source, "send", None)
        skip = False
        while True:
            try:
                event = send(True) if skip else advance()
            except StopIteration:
                break
            skip = False
            order += 1
            kind = event.kind
            if kind is _ELEM_START:
                depth += 1
                local = event.local
                pushed = None
                for qnode, uri in elements.get(local, any_element):
                    if uri is not None and uri != event.uri:
                        continue
                    link = parent_link(qnode, depth)
                    if link is None:
                        continue
                    instance = push(qnode, event.node_id, "element", local,
                                    link)
                    if pushed is None:
                        pushed = [instance]
                    else:
                        pushed.append(instance)
                opened.append(pushed)
                # Nothing in this subtree can match: no instance here for a
                # child step to extend, no descendant step armed, and no
                # string value being collected.
                skip = pushed is None and not armed and not collectors \
                    and send is not None
            elif kind is _ELEM_END:
                if not opened:
                    raise ExecutionError("unbalanced event stream")
                pushed = opened.pop()
                if pushed is not None:
                    # Children-first (reverse topological) pop order so
                    # upward propagation reaches parent instances before
                    # they finalize.
                    for instance in reversed(pushed):
                        stacks[instance.qnode.qid].pop()
                        finalize(instance)
                depth -= 1
            elif kind is _TEXT:
                for collector in collectors:
                    collector.value_parts.append(event.value)  # type: ignore[union-attr]
                for qnode in self._texts:
                    link = parent_link(qnode, depth + 1)
                    if link is not None:
                        finalize_leaf(qnode, event.node_id, "text", "",
                                      event.value, link)
            elif kind is _ATTR:
                for qnode, uri in attributes.get(event.local, any_attribute):
                    if uri is not None and uri != event.uri:
                        continue
                    link = parent_link(qnode, depth + 1)
                    if link is not None:
                        finalize_leaf(qnode, event.node_id, "attribute",
                                      event.local, event.value, link)
            elif kind is _DOC_START:
                root_instance = push(self.query.root, event.node_id,
                                     "document", "", None)
            elif kind is _COMMENT:
                for qnode in self._comments:
                    link = parent_link(qnode, depth + 1)
                    if link is not None:
                        finalize_leaf(qnode, event.node_id, "comment", "",
                                      event.value, link)
            elif kind is _PI:
                for qnode, target in self._pis:
                    if target and target != event.local:
                        continue
                    link = parent_link(qnode, depth + 1)
                    if link is not None:
                        finalize_leaf(qnode, event.node_id,
                                      "processing-instruction", event.local,
                                      event.value, link)
            elif kind is _DOC_END:
                if root_instance is None:
                    raise ExecutionError("document end before start")
                # NS events and unclosed elements would leave stacks dirty.
                for stack in stacks[1:]:
                    if stack:
                        raise ExecutionError("unbalanced event stream")
                stacks[0].pop()
                live_units -= 1
            # NS events carry no query-visible content here.

        # One charge per run: events consumed (a skipped subtree's never
        # reached the evaluator), matchings, and the per-document shapes.
        stats.add("xscan.events", order)
        stats.add("xscan.matchings", matchings)
        stats.set_high_water("xscan.peak_units", peak_units)
        # Distribution variants of the global totals: one observation per
        # scanned document, so the tail (the one huge document) is visible.
        stats.observe("xscan.doc_events", order)
        stats.observe("xscan.doc_peak_units", peak_units)
        if root_instance is None:
            raise ExecutionError("event stream had no document")
        main = self.query.main_first
        if main is None:
            return [root_instance.item(None)]
        return _dedup(root_instance.seq.get(main.qid, []))

    # -- contributions and predicate evaluation ---------------------------------

    def _contribution(self, instance: MatchInstance) -> list[Item]:
        qnode = instance.qnode
        if qnode.path_child is None:
            value = "".join(instance.value_parts) \
                if instance.value_parts is not None else None
            return [instance.item(value)]
        return instance.seq.get(qnode.path_child.qid, [])

    def _eval_pexpr(self, expr, instance: MatchInstance):
        if isinstance(expr, PLiteral):
            return expr.value
        if isinstance(expr, PBinary):
            if expr.op == "and":
                return (effective_boolean(self._eval_pexpr(expr.left, instance))
                        and effective_boolean(
                            self._eval_pexpr(expr.right, instance)))
            if expr.op == "or":
                return (effective_boolean(self._eval_pexpr(expr.left, instance))
                        or effective_boolean(
                            self._eval_pexpr(expr.right, instance)))
            if expr.op in ("=", "!=", "<", "<=", ">", ">="):
                return general_compare(expr.op,
                                       self._eval_pexpr(expr.left, instance),
                                       self._eval_pexpr(expr.right, instance))
            return arithmetic(expr.op,
                              self._eval_pexpr(expr.left, instance),
                              self._eval_pexpr(expr.right, instance))
        if isinstance(expr, PUnary):
            return -to_number(self._eval_pexpr(expr.operand, instance))
        if isinstance(expr, PFunction):
            args = [self._eval_pexpr(arg, instance) for arg in expr.args]
            return functions.call(expr.name, args)
        if isinstance(expr, PPathRef):
            return _dedup(instance.seq.get(expr.branch.qid, []))
        if isinstance(expr, PSelfRef):
            value = "".join(instance.value_parts) \
                if instance.value_parts is not None else None
            return [instance.item(value)]
        raise ExecutionError(f"unknown predicate expression {expr!r}")


def evaluate(path: LocationPath | str, events: Iterable[SaxEvent],
             namespaces: dict[str, str] | None = None,
             stats: StatsRegistry | None = None,
             collect_result_values: bool = True) -> list[Item]:
    """Parse (if needed), compile and run QuickXScan over an event stream.

    Nothing is cached: a caller that runs one path many times compiles it
    once and reuses one :class:`QuickXScan` (the engine's query cache,
    ``Database.compile_xpath``, does this for stored documents).
    """
    if isinstance(path, str):
        parsed = parse_xpath(path, namespaces)
        if not isinstance(parsed, LocationPath):
            raise ExecutionError(f"{path!r} is not a location path")
        path = parsed
    query = compile_query(path, collect_result_values=collect_result_values)
    return QuickXScan(query, stats=stats).run(events)
