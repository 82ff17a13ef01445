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

One matcher, two drivers (Fig. 8).  The match rules exist once, as the
per-event handlers of one run (:class:`ScanRun`), fed by :meth:`QuickXScan.run`
either from token streams, lists and constructed data (the SaxEvent driver)
or from stored entries directly, names dispatched on their ids (the
packed-record driver, :class:`repro.xmlstore.traversal.RecordScan`).

Per event the work is kept small: a named event gets its candidate query
nodes from a per-name list, an element end finalizes only the instances
its start pushed, predicates are closures compiled with the query tree,
and the ``xscan.*`` counters are charged once per run.

Skipping subtrees.  The element-start handler reports when nothing in the
element's subtree can match, and the record driver then steps over it
without decoding it (§3.4's subtree lengths), packed-out records included.
All three must hold:

* the element pushed no matching instance, so no child step can extend it;
* no value collector is live, so no ancestor needs the subtree's text;
* no query node with a descendant edge has a live parent instance (a
  counter kept on push and pop), so no deeper step can match.

Under those conditions the subtree's events would match nothing, so the
SaxEvent driver, which feeds every event, gives the identical result.
``xscan.events`` counts the events the matcher consumed: a skipped
subtree's never reach it.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import ExecutionError
from repro.lang import ast
from repro.lang.ast import LocationPath
from repro.lang.parser import parse_xpath
from repro.xdm.events import EventKind, SaxEvent
from repro.xpath.qtree import (EdgeType, QNode, QueryTree, Target,
                               compile_query)
from repro.xpath.values import Item, dedup, effective_boolean

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

    def item(self) -> Item:
        value = "".join(self.value_parts) \
            if self.value_parts is not None else None
        return Item(self.order, self.node_id, self.kind, self.local, value)


def _name_matches(qnode: QNode, local: str, uri: str) -> bool:
    test = qnode.test
    return not isinstance(test, ast.NameTest) or test.matches(local, uri)


def _by_local(qnodes: list[QNode]
              ) -> tuple[dict[str, list[QNode]], list[QNode]]:
    """Per local name a test names, the tests that name it or are wildcard
    or ``node()`` tests (qid order); and those alone, for any other name."""
    named: dict[str, list[QNode]] = {}
    wild: list[QNode] = []
    for qnode in qnodes:
        test = qnode.test
        if isinstance(test, ast.NameTest) and test.local != "*":
            named.setdefault(test.local, []).append(qnode)
        else:
            wild.append(qnode)
    return ({local: sorted(tests + wild, key=lambda q: q.qid)
             for local, tests in named.items()}, wild)


#: ``(element candidates, attribute candidates)`` for a name, in qid order:
#: a descendant-or-self child links to its parent's instance pushed for the
#: same node in the same event, so the parent must be pushed first.
_Candidates = tuple[list[QNode], list[QNode]]


class _NameIds(dict):
    """``name id -> (local, element candidates, attribute candidates)`` for
    one name table, filled on a miss (ids are append-only: never stale)."""

    def __init__(self, scan: "QuickXScan", names) -> None:
        self.scan, self.names = scan, names

    def __missing__(self, name_id: int) -> tuple:
        local, uri = self.names.name(name_id)
        entry = self[name_id] = (local, *self.scan._candidates(local, uri))
        return entry


class ScanRun:
    """One run's state, as the handlers a driver calls in document order.

    ``elem_start`` returns True when nothing in the element's subtree can
    match (the driver may then call ``elem_end()`` at once); its ``node_id``
    may be None without candidates.  ``tick()`` may stand in for ``text``
    without ``collectors`` or ``text_test``, and for candidate-less ``attr``.
    """

    __slots__ = ("name_ids", "collectors", "text_test", "doc_start",
                 "elem_start", "elem_end", "text", "attr", "comment", "pi",
                 "tick", "finish")

    def ns(self, prefix: str, uri: str, node_id: bytes | None) -> None:
        """A namespace node: no query node matches it, so it only counts."""
        self.tick()


class QuickXScan:
    """One-pass streaming evaluator for a compiled query tree.

    Construction does the per-query set-up: the candidate lists per name,
    and the name-id dispatch per name table, filled as names are met.  It
    reads only the query nodes, never a literal's value, so one scanner
    serves every run of a statement shape: the engine keeps one in each
    query cache entry, and each :meth:`run` takes its call's literals as a
    bind vector.  A run keeps no state between documents.
    """

    def __init__(self, query: QueryTree,
                 stats: StatsRegistry | None = None) -> None:
        self.query = query
        self.stats = default_stats(stats)
        # Pre-split query nodes by what they can match.
        self._elements = _by_local([q for q in query.nodes
                                    if q.target in (Target.ELEMENT, Target.ANY)
                                    and q.test is not None])
        self._attributes = _by_local([q for q in query.nodes
                                      if q.target is Target.ATTRIBUTE])
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
        self._by_qname: dict[tuple[str, str], _Candidates] = {}
        self._by_table: dict[object, _NameIds] = {}

    # -- name dispatch ---------------------------------------------------------

    def _candidates(self, local: str, uri: str) -> _Candidates:
        """The element and attribute query nodes a name can match."""
        found = self._by_qname.get((local, uri))
        if found is None:
            (elements, any_element), (attributes, any_attribute) = \
                self._elements, self._attributes
            found = self._by_qname[(local, uri)] = (
                [q for q in elements.get(local, any_element)
                 if _name_matches(q, local, uri)],
                [q for q in attributes.get(local, any_attribute)
                 if _name_matches(q, local, uri)])
        return found

    def name_ids(self, names) -> _NameIds:
        """The name-id dispatch for the name table ``names``: kept per
        table, so two stores that number names differently never mix."""
        found = self._by_table.get(names)
        if found is None:
            found = self._by_table[names] = _NameIds(self, names)
        return found

    # -- public API ------------------------------------------------------------

    def run(self, source, binds: tuple | None = None) -> list[Item]:
        """Evaluate over one document; returns the result sequence in
        document order.  ``source`` is an iterable of :class:`SaxEvent` or
        a packed-record source with a ``drive(run)`` method; ``binds`` is
        the literal value per slot (None: the tree's own, ``query.binds``)."""
        with self.stats.trace("xscan.run", qnodes=self.query.size) as span:
            run = self._start(self.query.binds if binds is None else binds)
            drive = getattr(source, "drive", None)
            if drive is not None:
                drive(run)
            else:
                self._feed(run, source)
            result = run.finish()
            if span is not None:
                span.set("rows", len(result))
            return result

    def _feed(self, run: ScanRun, events: Iterable[SaxEvent]) -> None:
        """The SaxEvent driver: every event to its handler, up to the
        document end."""
        candidates = self._candidates
        elem_start, elem_end, text = run.elem_start, run.elem_end, run.text
        for event in events:
            kind = event.kind
            if kind is _ELEM_START:
                elem_start(event.local,
                           candidates(event.local, event.uri)[0],
                           event.node_id)
            elif kind is _ELEM_END:
                elem_end()
            elif kind is _TEXT:
                text(event.value, event.node_id)
            elif kind is _ATTR:
                run.attr(event.local, candidates(event.local, event.uri)[1],
                         event.value, event.node_id)
            elif kind is _DOC_START:
                run.doc_start(event.node_id)
            elif kind is _COMMENT:
                run.comment(event.value, event.node_id)
            elif kind is _PI:
                run.pi(event.local, event.value, event.node_id)
            elif kind is _DOC_END:
                return
            else:  # NS events carry no query-visible content here
                run.tick()

    def _start(self, binds: tuple) -> ScanRun:
        """A fresh run over ``binds``: its state, and the handlers over it."""
        query = self.query
        stacks: list[list[MatchInstance]] = [[] for _ in query.nodes]
        collectors: list[MatchInstance] = []
        #: Per open element, the instances its start pushed (None: none).
        opened: list[list[MatchInstance] | None] = []
        arms = self._arms
        texts, comments, pis = self._texts, self._comments, self._pis
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
            if live_units > peak_units:
                peak_units = live_units
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
            qnode = instance.qnode
            if arms[qnode.qid]:
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
            # Sideways propagation (transitivity, Table 1): collected
            # sequences of descendant-edge children flow to the enclosing
            # instance of the same query node.
            stack = stacks[qnode.qid]
            if stack and instance.seq:
                enclosing = stack[-1]
                for child in qnode.children:
                    if child.edge is EdgeType.CHILD:
                        continue
                    got = instance.seq.get(child.qid)
                    if got:
                        enclosing.seq.setdefault(child.qid, []).extend(got)
            for predicate in qnode.predicates:
                if not effective_boolean(predicate(instance, binds)):
                    return
            # Upward propagation of this instance's contribution.
            if instance.link is None:
                return
            if qnode.path_child is None:
                contribution = [instance.item()]
            else:
                contribution = instance.seq.get(qnode.path_child.qid)
            if contribution:
                instance.link.seq.setdefault(qnode.qid, []).extend(
                    contribution)

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
                    if not effective_boolean(predicate(probe, binds)):
                        return
            link.seq.setdefault(qnode.qid, []).append(
                Item(order, node_id, kind, local, value))

        # -- the handlers ------------------------------------------------------

        def doc_start(node_id: bytes | None) -> None:
            nonlocal order, root_instance
            order += 1
            root_instance = push(query.root, node_id, "document", "", None)

        def elem_start(local: str, candidates: list[QNode],
                       node_id: bytes | None) -> bool:
            nonlocal order, depth
            order += 1
            depth += 1
            pushed = None
            for qnode in candidates:
                link = parent_link(qnode, depth)
                if link is None:
                    continue
                instance = push(qnode, node_id, "element", local, link)
                if pushed is None:
                    pushed = [instance]
                else:
                    pushed.append(instance)
            opened.append(pushed)
            # Nothing in this subtree can match: no instance here for a
            # child step to extend, no descendant step armed, and no string
            # value being collected.
            return pushed is None and not armed and not collectors

        def elem_end() -> None:
            nonlocal order, depth
            order += 1
            if not opened:
                raise ExecutionError("unbalanced event stream")
            pushed = opened.pop()
            if pushed is not None:
                # Children-first (reverse topological) pop order so upward
                # propagation reaches parent instances before they finalize.
                for instance in reversed(pushed):
                    stacks[instance.qnode.qid].pop()
                    finalize(instance)
            depth -= 1

        def text(value: str, node_id: bytes | None) -> None:
            nonlocal order
            order += 1
            for collector in collectors:
                collector.value_parts.append(value)  # type: ignore[union-attr]
            for qnode in texts:
                link = parent_link(qnode, depth + 1)
                if link is not None:
                    finalize_leaf(qnode, node_id, "text", "", value, link)

        def attr(local: str, candidates: list[QNode], value: str,
                 node_id: bytes | None) -> None:
            nonlocal order
            order += 1
            for qnode in candidates:
                link = parent_link(qnode, depth + 1)
                if link is not None:
                    finalize_leaf(qnode, node_id, "attribute", local, value,
                                  link)

        def comment(value: str, node_id: bytes | None) -> None:
            nonlocal order
            order += 1
            for qnode in comments:
                link = parent_link(qnode, depth + 1)
                if link is not None:
                    finalize_leaf(qnode, node_id, "comment", "", value, link)

        def pi(target: str, value: str, node_id: bytes | None) -> None:
            nonlocal order
            order += 1
            for qnode, wanted in pis:
                if wanted and wanted != target:
                    continue
                link = parent_link(qnode, depth + 1)
                if link is not None:
                    finalize_leaf(qnode, node_id, "processing-instruction",
                                  target, value, link)

        def tick() -> None:
            nonlocal order
            order += 1

        def finish() -> list[Item]:
            nonlocal order
            if root_instance is None:
                raise ExecutionError("event stream had no document")
            order += 1  # the document end
            # Unclosed elements would leave stacks dirty.
            if any(stacks[1:]):
                raise ExecutionError("unbalanced event stream")
            stacks[0].pop()
            # One charge per run: events consumed (a skipped subtree's never
            # reached the matcher), matchings, and the per-document shapes.
            stats.add("xscan.events", order)
            stats.add("xscan.matchings", matchings)
            stats.set_high_water("xscan.peak_units", peak_units)
            # Distribution variants of the global totals: one observation
            # per scanned document, so the tail (the one huge document) is
            # visible.
            stats.observe("xscan.doc_events", order)
            stats.observe("xscan.doc_peak_units", peak_units)
            main = query.main_first
            if main is None:
                return [root_instance.item()]
            return dedup(root_instance.seq.get(main.qid, []))

        run = ScanRun()
        run.name_ids, run.collectors, run.text_test = \
            self.name_ids, collectors, bool(texts)
        run.doc_start, run.elem_start, run.elem_end, run.text, run.attr = \
            doc_start, elem_start, elem_end, text, attr
        run.comment, run.pi, run.tick, run.finish = comment, pi, tick, finish
        return run


def evaluate(path: LocationPath | str, events: Iterable[SaxEvent],
             namespaces: dict[str, str] | None = None,
             stats: StatsRegistry | None = None,
             collect_result_values: bool = True) -> list[Item]:
    """Parse (if needed), compile and run QuickXScan over an event stream.

    Nothing is cached: a caller that runs one path many times compiles it
    once and reuses one :class:`QuickXScan` (the engine's query cache keeps
    one per statement shape for stored documents).
    """
    if isinstance(path, str):
        parsed = parse_xpath(path, namespaces)
        if not isinstance(parsed, LocationPath):
            raise ExecutionError(f"{path!r} is not a location path")
        path = parsed
    query = compile_query(path, collect_result_values=collect_result_values)
    return QuickXScan(query, stats=stats).run(events)
