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
"""

from __future__ import annotations

from typing import Iterable

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import ExecutionError
from repro.lang.ast import LocationPath
from repro.xdm.events import EventKind, SaxEvent
from repro.xpath import functions
from repro.xpath.cache import cached_compile, cached_parse
from repro.xpath.qtree import (EdgeType, PBinary, PFunction, PLiteral,
                               PPathRef, PSelfRef, PUnary, QNode, QueryTree,
                               Target)
from repro.xpath.values import (Item, arithmetic, effective_boolean,
                                general_compare, to_number)


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


class QuickXScan:
    """One-pass streaming evaluator for a compiled query tree."""

    def __init__(self, query: QueryTree,
                 stats: StatsRegistry | None = None) -> None:
        self.query = query
        self.stats = default_stats(stats)
        # Pre-split query nodes by what they can match.
        self._element_nodes = [q for q in query.nodes
                               if q.target in (Target.ELEMENT, Target.ANY)
                               and q.test is not None]
        self._leaf_nodes = {
            Target.ATTRIBUTE: [q for q in query.nodes
                               if q.target is Target.ATTRIBUTE],
            Target.TEXT: [q for q in query.nodes
                          if q.target in (Target.TEXT, Target.ANY)
                          and q.test is not None],
            Target.COMMENT: [q for q in query.nodes
                             if q.target in (Target.COMMENT, Target.ANY)
                             and q.test is not None],
            Target.PI: [q for q in query.nodes
                        if q.target in (Target.PI, Target.ANY)
                        and q.test is not None],
        }

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
        live_units = 0
        peak_units = 0
        matchings = 0
        order = 0
        depth = -1
        root_instance: MatchInstance | None = None
        stats = self.stats

        def push(qnode: QNode, node_id: bytes | None, kind: str,
                 local: str, link: MatchInstance | None) -> MatchInstance:
            nonlocal live_units, peak_units, matchings
            instance = MatchInstance(qnode, depth, order, node_id, kind,
                                     local, link)
            stacks[qnode.qid].append(instance)
            if instance.value_parts is not None:
                instance.cidx = len(collectors)
                collectors.append(instance)
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
            nonlocal live_units
            live_units -= 1
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

        for event in events:
            stats.add("xscan.events")
            order += 1
            kind = event.kind
            if kind is EventKind.DOC_START:
                root_instance = push(self.query.root, event.node_id,
                                     "document", "", None)
            elif kind is EventKind.ELEM_START:
                depth += 1
                for qnode in self._element_nodes:
                    if not qnode.matches_element(event.local, event.uri):
                        continue
                    link = parent_link(qnode, depth)
                    if link is None:
                        continue
                    push(qnode, event.node_id, "element", event.local, link)
            elif kind is EventKind.ELEM_END:
                # Children-first (reverse topological) pop order so upward
                # propagation reaches parent instances before they finalize.
                for qid in range(len(stacks) - 1, -1, -1):
                    stack = stacks[qid]
                    if stack and stack[-1].depth == depth and \
                            stack[-1].kind == "element":
                        finalize(stack.pop())
                depth -= 1
            elif kind is EventKind.TEXT:
                for collector in collectors:
                    collector.value_parts.append(event.value)  # type: ignore[union-attr]
                for qnode in self._leaf_nodes[Target.TEXT]:
                    link = parent_link(qnode, depth + 1)
                    if link is not None and qnode.matches_leaf(
                            Target.TEXT, "", ""):
                        finalize_leaf(qnode, event.node_id, "text", "",
                                      event.value, link)
            elif kind is EventKind.ATTR:
                for qnode in self._leaf_nodes[Target.ATTRIBUTE]:
                    if not qnode.matches_leaf(Target.ATTRIBUTE, event.local,
                                              event.uri):
                        continue
                    link = parent_link(qnode, depth + 1)
                    if link is not None:
                        finalize_leaf(qnode, event.node_id, "attribute",
                                      event.local, event.value, link)
            elif kind is EventKind.COMMENT:
                for qnode in self._leaf_nodes[Target.COMMENT]:
                    link = parent_link(qnode, depth + 1)
                    if link is not None and qnode.matches_leaf(
                            Target.COMMENT, "", ""):
                        finalize_leaf(qnode, event.node_id, "comment", "",
                                      event.value, link)
            elif kind is EventKind.PI:
                for qnode in self._leaf_nodes[Target.PI]:
                    if not qnode.matches_leaf(Target.PI, event.local, ""):
                        continue
                    link = parent_link(qnode, depth + 1)
                    if link is not None:
                        finalize_leaf(qnode, event.node_id,
                                      "processing-instruction", event.local,
                                      event.value, link)
            elif kind is EventKind.DOC_END:
                if root_instance is None:
                    raise ExecutionError("document end before start")
                # NS events and unclosed elements would leave stacks dirty.
                for stack in stacks[1:]:
                    if stack:
                        raise ExecutionError("unbalanced event stream")
                stacks[0].pop()
                live_units -= 1
            # NS events carry no query-visible content here.

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
    """Parse/compile (if needed) and run QuickXScan over an event stream.

    Parsing and compilation go through the LRU caches of
    :mod:`repro.xpath.cache`, so repeated evaluation of the same path only
    pays for the scan itself.
    """
    if isinstance(path, str):
        parsed = cached_parse(path, namespaces, stats=stats)
        if not isinstance(parsed, LocationPath):
            raise ExecutionError(f"{path!r} is not a location path")
        path = parsed
    query = cached_compile(path, collect_result_values=collect_result_values,
                           stats=stats)
    return QuickXScan(query, stats=stats).run(events)
