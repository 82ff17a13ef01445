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

A filter may over-fetch but must never change the answer, so a comparison
is a probe only where the index's key order agrees with XPath 1.0's
comparison for every literal of its kind (:func:`sargable`).  That rule
reads the operator, the literal's kind and the key type, never the
literal's value, so a statement shape's source groups are kept per index
set and only their literals are bound per call.
"""

from __future__ import annotations

from repro.indexes.containment import (PathRelation, child_only_suffix_depth,
                                       relate)
from repro.indexes.manager import XPathValueIndex
from repro.lang import ast
from repro.rdb.values import SqlType
from repro.xmlstore.store import XmlStore
from repro.xpath.qtree import QueryTree

from repro.query.plan import AccessMethod, AccessPlan, IndexSource

_SARGABLE_OPS = {"=", "<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

#: Per index set, a statement shape's ``(source groups, fully covered)``.
SourceMemo = dict[tuple[XPathValueIndex, ...],
                  tuple[list[list[IndexSource]], bool]]


def sargable(op: str, literal: object, key_type: SqlType) -> bool:
    """May an index keyed by ``key_type`` bound ``node op literal``?

    Only where the keys compare as XPath does for every literal of that
    kind.  A string under ``=`` compares string values, as VARCHAR keys do.
    A number under any operator compares ``number(node)``, which is
    ``float`` of the stripped string value, as DOUBLE keys are made.  Every
    other pairing can miss matches: the string under ``<`` and the like
    compares numbers, a VARCHAR probe for ``7`` misses ``7.0``, and
    DECFLOAT keys keep digits a double rounds away
    (``0.10000000000000001 = 0.1`` in XPath).
    """
    if isinstance(literal, str):
        return op == "=" and key_type is SqlType.VARCHAR
    return key_type is SqlType.DOUBLE


class Planner:
    """Chooses access paths for XPath queries over one XML column."""

    def __init__(self, store: XmlStore, indexes: list[XPathValueIndex],
                 nodeid_threshold: int = 64) -> None:
        self.store = store
        self.indexes = list(indexes)
        #: Average nodes/document above which NodeID-list access is chosen.
        self.nodeid_threshold = nodeid_threshold

    def plan(self, path: ast.LocationPath, query: QueryTree,
             force_method: AccessMethod | None = None,
             memo: SourceMemo | None = None) -> AccessPlan:
        """Produce an access plan for ``path`` (compiled as ``query``).

        ``memo`` keeps a statement shape's source groups per index set,
        keyed on the index objects: a later call with the same indexes
        runs no containment test and only binds its literals (from
        ``query.binds``) into the probes, and a new index is a new key.
        """
        indexes = tuple(self.indexes)
        found = memo.get(indexes) if memo is not None else None
        if found is None:
            found = self._extract_sources(path)
            if memo is not None:
                memo[indexes] = found
        shapes, fully_covered = found
        if not shapes:
            return AccessPlan(AccessMethod.FULL_SCAN, path, query)
        binds = query.binds
        groups = [[source.bind(binds) for source in group]
                  for group in shapes]
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
            if not sargable(op, literal.value, index.definition.key_type):
                continue
            relation = relate(index.definition.path, full_value_path)
            if relation is PathRelation.NONE:
                continue
            suffix = child_only_suffix_depth(full_value_path, len(prefix))
            source = IndexSource(index, op, literal.value, relation, suffix,
                                 literal.slot)
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
