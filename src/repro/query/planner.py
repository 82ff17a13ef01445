"""Access path selection (§4, §4.3).

"Access path selection is relatively simple at the moment" — the planner
extracts index-sargable comparisons from the final step's predicates, matches
each against the available XPath value indexes with the containment test, and
picks among full scan, DocID-list and NodeID-list access:

* every sargable conjunct with a matching index becomes a probe; conjuncts
  AND at the DocID/NodeID level, top-level ``or`` requires *both* disjuncts
  sargable (else the predicate cannot bound the candidate set);
* "For small documents, using indexes to identify qualifying documents would
  be efficient ... For large documents, the DocID list access is no longer
  efficient.  Instead, the NodeID list access applies" — chosen by average
  document size, overridable for experiments;
* "If all the indexes match exactly with the predicates, the result
  DocID/NodeID list is exact ... Otherwise, the result list will not be
  exact but filtering."
"""

from __future__ import annotations

from repro.indexes.containment import (PathRelation, child_only_suffix_depth,
                                       relate)
from repro.indexes.manager import XPathValueIndex
from repro.lang import ast
from repro.xmlstore.store import XmlStore
from repro.xpath.qtree import QueryTree

from repro.query.plan import AccessMethod, AccessPlan, IndexSource

_SARGABLE_OPS = {"=", "<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


class Planner:
    """Chooses access paths for XPath queries over one XML column."""

    def __init__(self, store: XmlStore, indexes: list[XPathValueIndex],
                 nodeid_threshold: int = 64) -> None:
        self.store = store
        self.indexes = list(indexes)
        #: Average nodes/document above which NodeID-list access is chosen.
        self.nodeid_threshold = nodeid_threshold

    def plan(self, path: ast.LocationPath, query: QueryTree,
             force_method: AccessMethod | None = None) -> AccessPlan:
        """Produce an access plan for ``path`` (compiled as ``query``)."""
        groups, fully_covered = self._extract_sources(path)
        if not groups:
            return AccessPlan(AccessMethod.FULL_SCAN, path, query)
        exact = fully_covered and all(
            source.exact for group in groups for source in group)
        method = force_method or self._choose_method(groups)
        if method is AccessMethod.FULL_SCAN:
            return AccessPlan(AccessMethod.FULL_SCAN, path, query)
        if method is AccessMethod.NODEID_LIST and \
                not self._nodeid_usable(path, groups):
            method = AccessMethod.DOCID_LIST
        return AccessPlan(method, path, query, groups, exact)

    # -- sargable predicate extraction ---------------------------------------

    def _extract_sources(self, path: ast.LocationPath
                         ) -> tuple[list[list[IndexSource]], bool]:
        """Probe groups from the final step's predicates.

        Returns ``(groups, fully_covered)`` — the latter is True when every
        predicate conjunct produced a probe group (needed for exactness).
        """
        if not path.steps:
            return [], False
        anchor_index = len(path.steps) - 1
        step = path.steps[anchor_index]
        if not step.predicates:
            return [], False
        if any(s.predicates for s in path.steps[:-1]):
            # Predicates on earlier steps are residual-only; indexes can
            # still bound candidates from the final step.
            pass
        prefix = [ast.Step(s.axis, s.test) for s in path.steps]
        groups: list[list[IndexSource]] = []
        fully_covered = True
        for predicate in step.predicates:
            for conjunct in self._conjuncts(predicate):
                group = self._group_for(conjunct, path, prefix)
                if group:
                    groups.append(group)
                else:
                    fully_covered = False
        return groups, fully_covered

    @staticmethod
    def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
        if isinstance(expr, ast.BinaryOp) and expr.op == "and":
            return (Planner._conjuncts(expr.left)
                    + Planner._conjuncts(expr.right))
        return [expr]

    def _group_for(self, expr: ast.Expr, path: ast.LocationPath,
                   prefix: list[ast.Step]) -> list[IndexSource] | None:
        """A probe group (OR of sources) for one conjunct, or None."""
        if isinstance(expr, ast.BinaryOp) and expr.op == "or":
            left = self._group_for(expr.left, path, prefix)
            right = self._group_for(expr.right, path, prefix)
            if left is None or right is None:
                return None  # both disjuncts must be index-bounded
            return left + right
        source = self._source_for(expr, path, prefix)
        return [source] if source is not None else None

    def _source_for(self, expr: ast.Expr, path: ast.LocationPath,
                    prefix: list[ast.Step]) -> IndexSource | None:
        if not isinstance(expr, ast.BinaryOp) or expr.op not in _SARGABLE_OPS:
            return None
        op, value_path, literal = expr.op, expr.left, expr.right
        if isinstance(literal, ast.LocationPath) and \
                isinstance(value_path, ast.Literal):
            value_path, literal = literal, value_path
            op = _FLIP[op]
        if not isinstance(value_path, ast.LocationPath) or \
                not isinstance(literal, ast.Literal):
            return None
        if value_path.absolute:
            return None
        if any(s.predicates for s in value_path.steps):
            return None
        # Full value path: the (predicate-free) main path plus the subpath.
        steps = [s for s in value_path.steps if s.axis is not ast.Axis.SELF]
        full_value_path = ast.LocationPath(True, prefix + [
            ast.Step(s.axis, s.test) for s in steps])
        best: IndexSource | None = None
        for index in self.indexes:
            relation = relate(index.definition.path, full_value_path)
            if relation is PathRelation.NONE:
                continue
            suffix = child_only_suffix_depth(full_value_path, len(prefix))
            source = IndexSource(index, op, literal.value, relation, suffix)
            if best is None or (source.exact and not best.exact):
                best = source
        return best

    # -- method choice ---------------------------------------------------------

    def _choose_method(self, groups: list[list[IndexSource]]) -> AccessMethod:
        if self.store.average_nodes_per_document() > self.nodeid_threshold:
            return AccessMethod.NODEID_LIST
        return AccessMethod.DOCID_LIST

    def _nodeid_usable(self, path: ast.LocationPath,
                       groups: list[list[IndexSource]]) -> bool:
        # Anchor-ID derivation needs a child-only suffix for every source,
        # and verification context requires all predicates on the last step.
        if any(s.predicates for s in path.steps[:-1]):
            return False
        return all(source.suffix_depth is not None
                   for group in groups for source in group)
