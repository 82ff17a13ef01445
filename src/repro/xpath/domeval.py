"""DOM-based XPath evaluation: the materialize-then-navigate baseline.

The paper reports QuickXScan "orders of magnitude better than some DOM-based
algorithm" (§4.2).  This module is that comparison point: it builds the whole
in-memory XDM tree, then evaluates the path by recursive axis navigation with
node-set semantics.  Results are identical to QuickXScan's; the cost profile
(full materialization, repeated subtree walks for descendant axes and string
values) is what experiment E5b measures.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.stats import StatsRegistry, default_stats
from repro.errors import ExecutionError, XPathUnsupportedError
from repro.lang import ast
from repro.lang.parser import parse_xpath
from repro.xdm.events import SaxEvent, build_tree
from repro.xdm.nodes import (AttributeNode, CommentNode, DocumentNode,
                             ElementNode, Node,
                             ProcessingInstructionNode, TextNode)
from repro.xpath import functions
from repro.xpath.values import (Item, arithmetic, effective_boolean,
                                general_compare, to_number)


class DomEvaluator:
    """Navigational evaluator over a materialized tree."""

    def __init__(self, stats: StatsRegistry | None = None) -> None:
        self.stats = default_stats(stats)
        self._order: dict[int, int] = {}
        self._visits = 0

    # -- public API ------------------------------------------------------------

    def evaluate(self, path: ast.LocationPath | str,
                 source: Node | Iterable[SaxEvent],
                 namespaces: dict[str, str] | None = None) -> list[Item]:
        if isinstance(path, str):
            parsed = parse_xpath(path, namespaces)
            if not isinstance(parsed, ast.LocationPath):
                raise ExecutionError(f"{path!r} is not a location path")
            path = parsed
        if not isinstance(source, Node):
            source = build_tree(source)
        root = source if isinstance(source, DocumentNode) else source.root()
        self._order = {}
        for position, node in enumerate(root.descendants_or_self()):
            self._order[id(node)] = position
        self.stats.set_high_water("domeval.tree_nodes", len(self._order))
        result = self._eval_path(path, [root])
        self.stats.add("domeval.node_visits", self._visits)
        return [self._item(node) for node in result]

    # -- navigation ------------------------------------------------------------

    def _eval_path(self, path: ast.LocationPath,
                   context: list[Node]) -> list[Node]:
        current = context
        for step in path.steps:
            gathered: list[Node] = []
            seen: set[int] = set()
            for node in current:
                for candidate in self._axis(step, node):
                    if id(candidate) in seen:
                        continue
                    if not self._test(step, candidate):
                        continue
                    if all(self._predicate(p, candidate)
                           for p in step.predicates):
                        seen.add(id(candidate))
                        gathered.append(candidate)
            gathered.sort(key=lambda n: self._order[id(n)])
            current = gathered
        return current

    def _axis(self, step: ast.Step, node: Node) -> list[Node]:
        self._visits += 1
        axis = step.axis
        if axis is ast.Axis.CHILD:
            return node.children()
        if axis is ast.Axis.ATTRIBUTE:
            return list(node.attributes) if isinstance(node, ElementNode) else []
        if axis is ast.Axis.SELF:
            return [node]
        if axis is ast.Axis.DESCENDANT:
            out = []
            for child in node.children():
                out.extend(self._descendants_or_self(child))
            return out
        if axis is ast.Axis.DESCENDANT_OR_SELF:
            return self._descendants_or_self(node)
        if axis is ast.Axis.PARENT:
            return [node.parent] if node.parent is not None else []
        raise XPathUnsupportedError(f"axis {axis.value!r}")

    def _descendants_or_self(self, node: Node) -> list[Node]:
        out = [node]
        self._visits += 1
        if isinstance(node, ElementNode):
            out.extend(node.attributes)
        for child in node.children():
            out.extend(self._descendants_or_self(child))
        return out

    @staticmethod
    def _test(step: ast.Step, node: Node) -> bool:
        test = step.test
        if isinstance(test, ast.NameTest):
            if step.axis is ast.Axis.ATTRIBUTE:
                if not isinstance(node, AttributeNode):
                    return False
            elif not isinstance(node, ElementNode):
                return False
            return test.matches(node.local, node.uri)  # type: ignore[attr-defined]
        kind = test.kind
        if kind == "node":
            return not isinstance(node, AttributeNode) or \
                step.axis is ast.Axis.ATTRIBUTE
        if kind == "text":
            return isinstance(node, TextNode)
        if kind == "comment":
            return isinstance(node, CommentNode)
        if kind == "processing-instruction":
            if not isinstance(node, ProcessingInstructionNode):
                return False
            return test.target is None or node.target == test.target
        raise XPathUnsupportedError(f"kind test {kind}()")

    # -- predicates -------------------------------------------------------------

    def _predicate(self, expr: ast.Expr, node: Node) -> bool:
        return effective_boolean(self._eval_expr(expr, node))

    def _eval_expr(self, expr: ast.Expr, node: Node):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "and":
                return (self._predicate(expr.left, node)
                        and self._predicate(expr.right, node))
            if expr.op == "or":
                return (self._predicate(expr.left, node)
                        or self._predicate(expr.right, node))
            if expr.op in ("=", "!=", "<", "<=", ">", ">="):
                return general_compare(expr.op,
                                       self._eval_expr(expr.left, node),
                                       self._eval_expr(expr.right, node))
            return arithmetic(expr.op, self._eval_expr(expr.left, node),
                              self._eval_expr(expr.right, node))
        if isinstance(expr, ast.UnaryOp):
            return -to_number(self._eval_expr(expr.operand, node))
        if isinstance(expr, ast.FunctionCall):
            args = [self._eval_expr(arg, node) for arg in expr.args]
            return functions.call(expr.name, args)
        if isinstance(expr, ast.LocationPath):
            if expr.absolute:
                raise XPathUnsupportedError(
                    "absolute paths inside predicates are not supported")
            return [self._item(n) for n in self._eval_path(expr, [node])]
        raise ExecutionError(f"cannot evaluate {expr!r}")

    # -- items -------------------------------------------------------------------

    def _item(self, node: Node) -> Item:
        if isinstance(node, ElementNode):
            kind, local = "element", node.local
        elif isinstance(node, AttributeNode):
            kind, local = "attribute", node.local
        elif isinstance(node, TextNode):
            kind, local = "text", ""
        elif isinstance(node, CommentNode):
            kind, local = "comment", ""
        elif isinstance(node, ProcessingInstructionNode):
            kind, local = "processing-instruction", node.target
        else:
            kind, local = "document", ""
        return Item(self._order[id(node)], node.node_id, kind, local,
                    node.string_value())


def evaluate_dom(path: ast.LocationPath | str,
                 source: Node | Iterable[SaxEvent],
                 namespaces: dict[str, str] | None = None,
                 stats: StatsRegistry | None = None) -> list[Item]:
    """One-shot DOM-based evaluation."""
    return DomEvaluator(stats=stats).evaluate(path, source, namespaces)
