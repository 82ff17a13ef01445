"""Plan execution: scan, DocID-list, NodeID-list, ANDing/ORing (§4.3).

Candidate generation follows the plan; every candidate is verified by
re-evaluating the query — for DocID lists over the whole document, for NodeID
lists over the self-contained anchor subtree (record header context replays
the ancestors, §3.1's self-containment property).  "If the XPath expression
of the index contains a query XPath expression but is not equivalent to it
... re-evaluation of the query XPath expression on the document data is
necessary."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import NodeIdError, PlanningError, StorageError, XmlError
from repro.indexes.manager import IndexHit
from repro.xdm import nodeid
from repro.xmlstore.store import XmlStore
from repro.xpath.quickxscan import QuickXScan
from repro.xpath.values import Item

from repro.query.plan import AccessMethod, AccessPlan, IndexSource

#: A candidate key of the index probes: a DocID, or ``(docid, anchor)``.
_K = TypeVar("_K")


@dataclass(frozen=True)
class QueryMatch:
    """One result row: the document and the matched item."""

    docid: int
    item: Item


class Executor:
    """Executes access plans against one XML store."""

    def __init__(self, store: XmlStore,
                 stats: StatsRegistry | None = None) -> None:
        self.store = store
        self.stats = default_stats(stats)

    def execute(self, plan: AccessPlan) -> list[QueryMatch]:
        # The statement shape's scanner: set up once for every execution
        # of the shape, each run binding this plan's literals.
        scan = plan.scan
        if scan is None:
            raise PlanningError(
                "plan carries no scanner (plan it with Database.plan_xpath)")
        if plan.method is AccessMethod.FULL_SCAN:
            return self._full_scan(plan, scan)
        if plan.method is AccessMethod.DOCID_LIST:
            return self._docid_list(plan, scan)
        if plan.method is AccessMethod.NODEID_LIST:
            return self._nodeid_list(plan, scan)
        raise PlanningError(f"unknown access method {plan.method}")

    # -- full scan ----------------------------------------------------------------

    def _full_scan(self, plan: AccessPlan, scan: QuickXScan
                   ) -> list[QueryMatch]:
        with self.stats.trace("exec.full_scan") as span:
            out: list[QueryMatch] = []
            docs = 0
            for docid, source in self.store.scan_documents():
                docs += 1
                self.stats.add("exec.docs_evaluated")
                for item in scan.run(source, plan.query.binds):
                    out.append(QueryMatch(docid, item))
            if span is not None:
                span.set("docs", docs)
                span.set("rows", len(out))
            return out

    # -- index probes -----------------------------------------------------------------

    def _probe(self, plan: AccessPlan,
               key: Callable[[IndexSource, IndexHit], _K | None]
               ) -> list[_K]:
        """The sorted candidate keys of the plan's index probes: ``key``
        maps one source's hit to its candidate (``None`` skips the hit);
        hits are ORed within a source group and ANDed across groups."""
        with self.stats.trace("exec.probe") as span:
            candidate_set: set[_K] | None = None
            probes = 0
            for group in plan.source_groups:
                group_keys: set[_K] = set()
                for source in group:
                    probes += 1
                    self.stats.add("exec.index_probes")
                    for hit in source.index.lookup_op(source.op,
                                                      source.literal):
                        candidate = key(source, hit)
                        if candidate is not None:
                            group_keys.add(candidate)
                if candidate_set is None:
                    candidate_set = group_keys
                else:
                    candidate_set &= group_keys
            self.stats.add("exec.candidates", len(candidate_set or ()))
            if span is not None:
                span.set("probes", probes)
                span.set("candidates", len(candidate_set or ()))
            return sorted(candidate_set or ())

    # -- DocID list -------------------------------------------------------------------

    def _docid_list(self, plan: AccessPlan, scan: QuickXScan
                    ) -> list[QueryMatch]:
        with self.stats.trace("exec.docid_list") as span:
            out: list[QueryMatch] = []
            candidates = self._probe(plan, lambda _source, hit: hit.docid)
            for docid in candidates:
                self.stats.add("exec.docs_evaluated")
                items = scan.run(self.store.document(docid).source(),
                                 plan.query.binds)
                if not items and plan.exact:
                    self.stats.add("exec.exactness_misses")
                for item in items:
                    out.append(QueryMatch(docid, item))
            if span is not None:
                span.set("candidates", len(candidates))
                span.set("rows", len(out))
            return out

    # -- NodeID list -------------------------------------------------------------------

    @staticmethod
    def _anchor_of(source: IndexSource, hit: IndexHit
                   ) -> tuple[int, bytes] | None:
        """The ``(docid, anchor)`` candidate of a value-index hit: the
        anchor is ``source.suffix_depth`` levels above the value node."""
        depth = source.suffix_depth
        if depth is None:
            raise PlanningError("NodeID-list plan without derivable anchors")
        anchor = hit.node_id
        try:
            for _ in range(depth):
                anchor = nodeid.parent(anchor)
        except NodeIdError:
            return None  # value node too shallow: cannot match
        return hit.docid, anchor

    def _nodeid_list(self, plan: AccessPlan, scan: QuickXScan
                     ) -> list[QueryMatch]:
        with self.stats.trace("exec.nodeid_list") as span:
            out: list[QueryMatch] = []
            anchors = self._probe(plan, self._anchor_of)
            with self.stats.trace("exec.anchor") as verify_span:
                for docid, anchor in anchors:
                    self.stats.add("exec.anchors_verified")
                    items = self._verify_anchor(docid, anchor, scan,
                                                plan.query.binds)
                    if not items and plan.exact:
                        self.stats.add("exec.exactness_misses")
                    for item in items:
                        out.append(QueryMatch(docid, item))
                if verify_span is not None:
                    verify_span.set("anchors", len(anchors))
            out.sort(key=lambda match: (match.docid, match.item.order))
            if span is not None:
                span.set("rows", len(out))
            return out

    def _verify_anchor(self, docid: int, anchor: bytes, scan: QuickXScan,
                       binds: tuple) -> list[Item]:
        """Re-evaluate the query over the anchor's self-contained context."""
        try:
            # One descent: the ancestors replayed from record-header context
            # around the anchor's subtree, which opens with its own element.
            source = self.store.document(docid).source(anchor)
        except (XmlError, StorageError):
            return []  # anchor does not exist (stale/foreign hit)
        items = scan.run(source, binds)
        # Keep only the anchor's own match: nested matches inside the
        # subtree are separate candidates (verified via their own index
        # hits), so counting them here would duplicate results.
        return [item for item in items if item.node_id == anchor]

