"""The XPath grammar, rewritten to be LALR(1) (§4).

Together with the lexer's local disambiguations, this grammar builds
conflict-free LALR(1) tables via :mod:`repro.lang.lalr` — reproducing the
paper's observation that a rewritten BNF makes LALR(1) with a simple scanner
sufficient for the XPath subset.
"""

from __future__ import annotations

from functools import lru_cache

from repro.lang import ast
from repro.lang.lalr import Grammar, Parser, build_parser


def _binop(op: str):
    return lambda left, _tok, right: ast.BinaryOp(op, left, right)


def _step_from_test(test) -> ast.Step:
    return ast.Step(ast.Axis.CHILD, test)


def _name_test(value) -> ast.NameTest:
    prefix, local = value
    return ast.NameTest(local, prefix)


def _literal(value) -> ast.Literal:
    """A literal token's node; the parse facade may hand it in numbered."""
    return value if isinstance(value, ast.Literal) else ast.Literal(value)


def xpath_grammar() -> Grammar:
    """Construct the XPath grammar with AST-building actions."""
    g = Grammar("Expr")

    g.rule("Expr", ["OrExpr"])
    g.rule("OrExpr", ["OrExpr", "OR", "AndExpr"], _binop("or"))
    g.rule("OrExpr", ["AndExpr"])
    g.rule("AndExpr", ["AndExpr", "AND", "EqExpr"], _binop("and"))
    g.rule("AndExpr", ["EqExpr"])
    for token, op in (("EQ", "="), ("NE", "!=")):
        g.rule("EqExpr", ["EqExpr", token, "RelExpr"], _binop(op))
    g.rule("EqExpr", ["RelExpr"])
    for token, op in (("LT", "<"), ("LE", "<="), ("GT", ">"), ("GE", ">=")):
        g.rule("RelExpr", ["RelExpr", token, "AddExpr"], _binop(op))
    g.rule("RelExpr", ["AddExpr"])
    for token, op in (("PLUS", "+"), ("MINUS", "-")):
        g.rule("AddExpr", ["AddExpr", token, "MulExpr"], _binop(op))
    g.rule("AddExpr", ["MulExpr"])
    for token, op in (("MUL", "*"), ("DIV", "div"), ("MOD", "mod")):
        g.rule("MulExpr", ["MulExpr", token, "UnaryExpr"], _binop(op))
    g.rule("MulExpr", ["UnaryExpr"])
    g.rule("UnaryExpr", ["MINUS", "UnaryExpr"],
           lambda _m, operand: ast.UnaryOp("-", operand))
    g.rule("UnaryExpr", ["PathExpr"])

    g.rule("PathExpr", ["LocationPath"])
    g.rule("PathExpr", ["PrimaryExpr"])

    g.rule("LocationPath", ["RelPath"],
           lambda steps: ast.LocationPath(False, steps))
    g.rule("LocationPath", ["SLASH", "RelPath"],
           lambda _s, steps: ast.LocationPath(True, steps))
    g.rule("LocationPath", ["SLASH"],
           lambda _s: ast.LocationPath(True, []))
    g.rule("LocationPath", ["DSLASH", "RelPath"],
           lambda _d, steps: ast.LocationPath(
               True, [ast.descendant_or_self_step()] + steps))

    g.rule("RelPath", ["Step"], lambda step: [step])
    g.rule("RelPath", ["RelPath", "SLASH", "Step"],
           lambda steps, _s, step: steps + [step])
    g.rule("RelPath", ["RelPath", "DSLASH", "Step"],
           lambda steps, _d, step: steps +
           [ast.descendant_or_self_step(), step])

    g.rule("Step", ["AxisStep"])
    g.rule("Step", ["DOT"], lambda _d: ast.self_node_step())
    g.rule("Step", ["DOTDOT"], lambda _d: ast.parent_step())

    g.rule("AxisStep", ["StepHead"])
    g.rule("AxisStep", ["AxisStep", "Predicate"],
           lambda step, pred: _with_predicate(step, pred))

    g.rule("StepHead", ["NodeTest"], _step_from_test)
    g.rule("StepHead", ["AXIS", "NodeTest"],
           lambda axis, test: ast.Step(ast.Axis.parse(axis), test))
    g.rule("StepHead", ["AT", "NodeTest"],
           lambda _at, test: ast.Step(ast.Axis.ATTRIBUTE, test))

    g.rule("Predicate", ["LBRACK", "Expr", "RBRACK"],
           lambda _l, expr, _r: expr)

    g.rule("NodeTest", ["NAME"], _name_test)
    g.rule("NodeTest", ["STAR"], _name_test)
    g.rule("NodeTest", ["NODETYPE", "LPAREN", "RPAREN"],
           lambda kind, _l, _r: ast.KindTest(kind))
    g.rule("NodeTest", ["NODETYPE", "LPAREN", "STRING", "RPAREN"],
           lambda kind, _l, target, _r: ast.KindTest(
               kind, _literal(target).value))

    g.rule("PrimaryExpr", ["NUMBER"], _literal)
    g.rule("PrimaryExpr", ["STRING"], _literal)
    g.rule("PrimaryExpr", ["LPAREN", "Expr", "RPAREN"],
           lambda _l, expr, _r: expr)
    g.rule("PrimaryExpr", ["FUNCNAME", "LPAREN", "RPAREN"],
           lambda name, _l, _r: ast.FunctionCall(name, []))
    g.rule("PrimaryExpr", ["FUNCNAME", "LPAREN", "Args", "RPAREN"],
           lambda name, _l, args, _r: ast.FunctionCall(name, args))

    g.rule("Args", ["Expr"], lambda expr: [expr])
    g.rule("Args", ["Args", "COMMA", "Expr"],
           lambda args, _c, expr: args + [expr])
    return g


def _with_predicate(step: ast.Step, predicate: ast.Expr) -> ast.Step:
    step.predicates.append(predicate)
    return step


@lru_cache(maxsize=1)
def xpath_parser() -> Parser:
    """The (cached) table-driven XPath parser."""
    return build_parser(xpath_grammar())
