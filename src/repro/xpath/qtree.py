"""Query trees: the compiled form QuickXScan executes (Fig. 6a).

"Like many other XPath algorithms ... QuickXScan models a path expression
with a query tree": each step becomes a *query node* labeled by its name or
kind test, connected to its predecessor by a single-line edge (child axis) or
double-line edge (descendant axis); predicates hang additional branches off
their anchor query node.

Compilation also decides, per query node, whether matching instances must
collect their XDM string value (``need_value``) — only comparison/atomizing
contexts require it; pure existence tests (``[b]``, ``count(b)``) do not, a
big memory saver for the streaming evaluator.  Predicates compile to
closures over a matching instance, once per query tree.

A numbered literal (``ast.Literal.slot``) compiles to a read of the run's
bind vector, so one query tree serves every text of a statement shape:
:meth:`QueryTree.bind` gives a view of the tree with another text's
literals, sharing the query nodes and their closures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import XPathUnsupportedError
from repro.lang import ast
from repro.xpath import functions
from repro.xpath.values import (XValue, arithmetic, dedup, effective_boolean,
                                general_compare, to_number)


class EdgeType(enum.Enum):
    """How a query node relates to its parent query node."""

    CHILD = "child"
    DESCENDANT = "descendant"
    DESCENDANT_OR_SELF = "descendant-or-self"


class Target(enum.Enum):
    """Which node kinds a query node can match."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PI = "processing-instruction"
    ANY = "any"


#: A compiled predicate expression: its value for an anchor matching
#: instance, which offers ``seq`` (collected sequences by branch qid) and
#: ``item()`` (itself, with its string value when collected), under the
#: run's bind vector (the literal values, by slot).
Predicate = Callable[[Any, tuple], XValue]

_COMPARISONS = frozenset(("=", "!=", "<", "<=", ">", ">="))


# -- query nodes ----------------------------------------------------------------

@dataclass
class QNode:
    """One node of the query tree."""

    qid: int
    edge: EdgeType
    target: Target
    test: ast.NameTest | ast.KindTest | None   # None for the root query node
    parent: "QNode | None" = None
    children: list["QNode"] = field(default_factory=list)
    #: The continuation of this node's own path (result direction for the
    #: main path; deeper steps for predicate branches).  None for leaves.
    path_child: "QNode | None" = None
    predicates: list[Predicate] = field(default_factory=list)
    need_value: bool = False

    def label(self) -> str:
        return str(self.test) if self.test is not None else "r"


class QueryTree:
    """The compiled query: a root query node plus bookkeeping."""

    def __init__(self, root: QNode, nodes: list[QNode],
                 result_node: QNode | None, binds: tuple = ()) -> None:
        self.root = root
        self.nodes = nodes        # topological (parents before children)
        self.result_node = result_node
        #: The numbered literals' values, by slot.
        self.binds = binds

    def bind(self, binds: tuple) -> "QueryTree":
        """This tree with other literal values; the query nodes are shared."""
        return QueryTree(self.root, self.nodes, self.result_node, binds)

    @property
    def size(self) -> int:
        """|Q|, the query-node count (complexity analyses, §4.2)."""
        return len(self.nodes)

    @property
    def main_first(self) -> QNode | None:
        """The first query node of the main path (None for ``/``)."""
        return self.root.children[0] if self.root.children else None


def _edge_for_axis(axis: ast.Axis) -> EdgeType:
    if axis is ast.Axis.CHILD or axis is ast.Axis.ATTRIBUTE:
        return EdgeType.CHILD
    if axis is ast.Axis.DESCENDANT:
        return EdgeType.DESCENDANT
    if axis is ast.Axis.DESCENDANT_OR_SELF:
        return EdgeType.DESCENDANT_OR_SELF
    raise XPathUnsupportedError(
        f"axis {axis.value!r} cannot appear in a compiled query tree")


def _target_for_step(step: ast.Step) -> Target:
    if step.axis is ast.Axis.ATTRIBUTE:
        return Target.ATTRIBUTE
    test = step.test
    if isinstance(test, ast.NameTest):
        return Target.ELEMENT
    kind = test.kind
    if kind == "node":
        return Target.ANY
    if kind == "text":
        return Target.TEXT
    if kind == "comment":
        return Target.COMMENT
    if kind == "processing-instruction":
        return Target.PI
    raise XPathUnsupportedError(f"kind test {kind}() is not supported")


class _Compiler:
    def __init__(self) -> None:
        self.nodes: list[QNode] = []
        #: The numbered literals' values met so far, by slot.
        self.binds: dict[int, object] = {}

    def new_node(self, edge: EdgeType, target: Target, test,
                 parent: QNode | None) -> QNode:
        node = QNode(len(self.nodes), edge, target, test, parent)
        self.nodes.append(node)
        if parent is not None:
            parent.children.append(node)
        return node

    def compile_path_steps(self, steps: list[ast.Step], anchor: QNode,
                           collect_values: bool) -> QNode | None:
        """Attach a chain of steps under ``anchor``; returns the leaf."""
        current = anchor
        effective = list(steps)
        # Leading self::node() steps are identity (e.g. `.//t`).
        while effective and effective[0].axis is ast.Axis.SELF:
            head = effective[0]
            if not isinstance(head.test, ast.KindTest) or \
                    head.test.kind != "node" or head.predicates:
                raise XPathUnsupportedError(
                    f"self step {head} is not supported here")
            effective = effective[1:]
        if not effective:
            return None  # pure self path
        previous: QNode | None = None
        for step in effective:
            if step.axis is ast.Axis.SELF:
                raise XPathUnsupportedError(
                    "non-leading self steps are not supported")
            edge = _edge_for_axis(step.axis)
            target = _target_for_step(step)
            node = self.new_node(edge, target, step.test, current)
            for predicate in step.predicates:
                node.predicates.append(
                    self.compile_predicate(predicate, node))
            # path_child links chain-internal nodes only; the anchor may own
            # several branches and reads its sequences per branch root.
            if previous is not None:
                previous.path_child = node
            previous = node
            current = node
        if collect_values:
            current.need_value = True
        return current

    def compile_predicate(self, expr: ast.Expr, anchor: QNode) -> Predicate:
        return self._compile_expr(expr, anchor, value_needed=False)

    def _compile_expr(self, expr: ast.Expr, anchor: QNode,
                      value_needed: bool) -> Predicate:
        if isinstance(expr, ast.Literal):
            value, slot = expr.value, expr.slot
            if slot is None:
                return lambda instance, binds: value
            self.binds[slot] = value
            return lambda instance, binds: binds[slot]
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            # Comparisons and arithmetic need operand values.
            operands = op not in ("and", "or")
            left = self._compile_expr(expr.left, anchor, operands)
            right = self._compile_expr(expr.right, anchor, operands)
            if op == "and":
                return lambda instance, binds: (
                    effective_boolean(left(instance, binds))
                    and effective_boolean(right(instance, binds)))
            if op == "or":
                return lambda instance, binds: (
                    effective_boolean(left(instance, binds))
                    or effective_boolean(right(instance, binds)))
            if op in _COMPARISONS:
                return lambda instance, binds: general_compare(
                    op, left(instance, binds), right(instance, binds))
            return lambda instance, binds: arithmetic(
                op, left(instance, binds), right(instance, binds))
        if isinstance(expr, ast.UnaryOp):
            operand = self._compile_expr(expr.operand, anchor, True)
            return lambda instance, binds: -to_number(
                operand(instance, binds))
        if isinstance(expr, ast.FunctionCall):
            name = expr.name
            if not functions.is_supported(name):
                raise XPathUnsupportedError(
                    f"function {name}() is not supported")
            args = [self._compile_expr(arg, anchor,
                                       functions.value_needed(name, index))
                    for index, arg in enumerate(expr.args)]
            return lambda instance, binds: functions.call(
                name, [arg(instance, binds) for arg in args])
        if isinstance(expr, ast.LocationPath):
            if expr.absolute:
                raise XPathUnsupportedError(
                    "absolute paths inside predicates are not supported")
            leaf = self.compile_path_steps(expr.steps, anchor,
                                           collect_values=False)
            if leaf is None:  # ``.``: the anchor node itself
                if value_needed:
                    anchor.need_value = True
                return lambda instance, binds: [instance.item()]
            if value_needed:
                leaf.need_value = True
            # The branch root is the first step's node under the anchor.
            branch = leaf
            while branch.parent is not anchor:
                assert branch.parent is not None
                branch = branch.parent
            # The anchor instance's collected sequence for the branch.
            qid = branch.qid
            return lambda instance, binds: dedup(instance.seq.get(qid, []))
        raise XPathUnsupportedError(
            f"expression {expr!r} cannot be compiled")


def compile_query(path: ast.LocationPath,
                  collect_result_values: bool = True) -> QueryTree:
    """Compile a normalized location path into a query tree."""
    compiler = _Compiler()
    root = compiler.new_node(EdgeType.CHILD, Target.ANY, None, None)
    for step in path.steps:
        for predicate in step.predicates:
            if isinstance(predicate, ast.Literal) and \
                    isinstance(predicate.value, float):
                raise XPathUnsupportedError(
                    "positional predicates are not supported")
    leaf = compiler.compile_path_steps(path.steps, root,
                                       collect_values=collect_result_values)
    binds = compiler.binds
    return QueryTree(root, compiler.nodes, leaf,
                     tuple(binds.get(slot)
                           for slot in range(max(binds, default=-1) + 1)))
