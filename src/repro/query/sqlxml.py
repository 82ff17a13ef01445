"""A SQL/XML subset: the engine's query language surface (§2, §4.1).

"Currently, all the manipulation and querying of XML data are through SQL and
SQL/XML with embedded XPath."  The supported subset:

* ``CREATE TABLE t (col TYPE, ...)`` — types: BIGINT, DOUBLE, DECFLOAT,
  VARCHAR[(n)], DATE, XML;
* ``INSERT INTO t VALUES (...)``;
* ``DELETE FROM t WHERE ...``;
* ``CREATE INDEX ix ON t(col) GENERATE KEY USING XMLPATTERN 'path' AS SQL
  DOUBLE`` (DB2-style XPath value index DDL, §3.3);
* ``SELECT items FROM t [WHERE cond] [GROUP BY col]`` with:

  - column references, literals, ``||`` concatenation,
  - ``XMLQUERY('xpath' PASSING col)`` (serialized result sequence),
  - ``XMLEXISTS('xpath' PASSING col)`` in WHERE,
  - ``XMLELEMENT(NAME "n", XMLATTRIBUTES(expr AS "a", ...), args...)``,
    ``XMLFOREST(expr AS name, ...)``, ``XMLCONCAT(...)`` — compiled once
    per query into a tagging template (§4.1),
  - ``XMLAGG(constructor [ORDER BY expr [DESC]])`` with the in-memory
    quicksort path.

Statements parse through the same LALR(1) generator as XPath
(:mod:`repro.lang.lalr`), so every statement must end where its text does.
Nested constructor calls are flattened at *compile* time: scalar argument
expressions become numbered template slots, so each row is evaluated into a
plain args record bound to the shared template (Fig. 5).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.core.engine import Database
from repro.errors import SqlSyntaxError
from repro.lang.lalr import Grammar, ParseError, Parser, Token, build_parser
from repro.query.constructors import (Arg, Const, Spec, XAttr, XConcat,
                                      XElem, XForest, XmlAggregator,
                                      compile_template)


# -- lexer ----------------------------------------------------------------------

_KEYWORDS = {
    "create", "table", "index", "on", "insert", "into", "values", "select",
    "from", "where", "and", "or", "not", "null", "group", "by", "order",
    "desc", "asc", "delete", "generate", "key", "using", "xmlpattern", "as",
    "sql", "passing", "xmlquery", "xmlexists", "xmlelement",
    "xmlattributes", "xmlforest", "xmlconcat", "xmlagg",
}

_TOKEN = re.compile(r"""
    [ \t\r\n]+
  | (?P<NUMBER>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)
  | (?P<WORD>[^\W\d]\w*)
  | "(?P<QWORD>[^"]*)"
  | '(?P<STRING>[^']*(?:''[^']*)*)'
  | (?P<OP><=|>=|<>|!=|\|\||[(),*=<>])
""", re.VERBOSE)


def _tokenize(text: str) -> list[Token]:
    """Scan a statement: keywords become upper-case terminals of their own,
    other names ``WORD``, punctuation the terminal spelt like it."""
    out: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            quoted = {"'": "string", '"': "identifier"}.get(text[pos])
            raise SqlSyntaxError(
                f"unterminated {quoted} at offset {pos}" if quoted
                else f"unexpected character {text[pos]!r} at offset {pos}")
        kind = match.lastgroup
        if kind is not None:  # not whitespace
            value = match.group(kind)
            if kind == "NUMBER":
                value = float(value) if "." in value else int(value)
            elif kind == "STRING":
                value = value.replace("''", "'")
            elif kind == "WORD" and value.lower() in _KEYWORDS:
                kind = value.upper()
            elif kind == "OP":
                kind = value
            out.append(Token(kind, value, pos))
        pos = match.end()
    return out


# -- expression forms ---------------------------------------------------------

class SExpr:
    #: How deep the node tree under this node nests, counted by the parser
    #: to bound evaluation's recursion; not part of the node's value.
    depth = 0


@dataclass
class Star(SExpr):
    """``SELECT *``: every column of the row."""


@dataclass
class ColRef(SExpr):
    name: str


@dataclass
class SLiteral(SExpr):
    value: object


@dataclass
class Concat(SExpr):
    parts: list[SExpr]


@dataclass
class Comparison(SExpr):
    op: str
    left: SExpr
    right: SExpr


@dataclass
class BoolOp(SExpr):
    op: str
    left: SExpr
    right: SExpr


@dataclass
class NotOp(SExpr):
    operand: SExpr


@dataclass
class XmlExists(SExpr):
    xpath: str
    column: str


@dataclass
class XmlQuery(SExpr):
    xpath: str
    column: str


@dataclass
class ConstructorExpr(SExpr):
    """A compiled constructor: template + per-row slot expressions."""

    spec: Spec
    slots: list[SExpr]

    def __post_init__(self) -> None:
        self.template = compile_template(self.spec)


@dataclass
class XmlAggExpr(SExpr):
    inner: ConstructorExpr
    order_by: SExpr | None
    descending: bool


# -- statements ----------------------------------------------------------------

@dataclass
class CreateTable:
    name: str
    columns: list[tuple[str, str]]


@dataclass
class CreateIndex:
    name: str
    table: str
    column: str
    pattern: str
    key_type: str


@dataclass
class Insert:
    table: str
    values: list[SExpr]


@dataclass
class Delete:
    table: str
    where: SExpr | None


@dataclass
class Select:
    items: list[tuple[SExpr, str]]  # (expression, output name)
    table: str
    where: SExpr | None
    group_by: str | None


Statement = CreateTable | CreateIndex | Insert | Delete | Select


# -- grammar (§4: the XPath parser's LALR(1) generator) -----------------------

#: Deepest nesting of conditions and constructors a statement may have.
#: Evaluating them and flattening constructors recurse, so a deeper
#: statement is refused when it is parsed.
MAX_NESTING = 200


def _nest(node: SExpr, *children: SExpr | None) -> SExpr:
    """Record that ``node`` holds ``children``, refusing deep nesting."""
    node.depth = max([node.depth] + [1 + child.depth for child in children
                                     if child is not None])
    if node.depth > MAX_NESTING:
        raise SqlSyntaxError(
            f"statement nests deeper than {MAX_NESTING} levels")
    return node


def _concat(left: SExpr, _op: str, right: SExpr) -> SExpr:
    if isinstance(left, Concat):
        left.parts.append(right)
        return _nest(left, right)
    return _nest(Concat([left, right]), left, right)


@dataclass
class _Ctor:
    """A constructor call before its scalar arguments become slots: the
    ``(name, SExpr)`` items of XMLFOREST, or arguments in text order,
    XMLELEMENT's XMLATTRIBUTES among them as lists of such items."""

    kind: str  # "element" | "forest" | "concat"
    args: list
    name: str = ""


def _flatten(node: _Ctor | SExpr, slots: list[SExpr], depth: int = 0) -> Spec:
    """Flatten nested constructors into one spec (§4.1), numbering their
    scalar arguments into ``slots`` left to right."""
    if not isinstance(node, _Ctor):
        if isinstance(node, SLiteral) and node.value is not None:
            return Const(str(node.value))
        slots.append(node)
        return Arg(len(slots) - 1)
    if depth == MAX_NESTING:
        raise SqlSyntaxError(
            f"statement nests deeper than {MAX_NESTING} levels")
    if node.kind == "forest":
        return XForest(tuple((name, _flatten(value, slots))
                             for name, value in node.args))
    if node.kind == "concat":
        return XConcat(tuple(_flatten(arg, slots, depth + 1)
                             for arg in node.args))
    attrs: list[XAttr] = []
    children: list[Spec] = []
    for arg in node.args:
        if isinstance(arg, list):
            attrs.extend(XAttr(name, _flatten(value, slots))
                         for name, value in arg)
        else:
            children.append(_flatten(arg, slots, depth + 1))
    return XElem(node.name, tuple(attrs), tuple(children))


def _constructor(node: _Ctor | SExpr) -> ConstructorExpr:
    """A parsed constructor used as a value: one compiled template."""
    slots: list[SExpr] = []
    spec = _flatten(node, slots)
    return _nest(ConstructorExpr(spec, slots), *slots)


def _element(_kw: str, _lp: str, name_kw: str, name: str, args: list,
             _rp: str) -> _Ctor:
    if name_kw.lower() != "name":
        raise SqlSyntaxError(f"expected NAME, found {name_kw!r}")
    return _Ctor("element", args, name)


def _select(_kw: str, items: list, _from: str, table: str,
            where: SExpr | None, group_by: str | None) -> Select:
    """Items with no name yet are named col1, col2, ... in order."""
    auto = iter(range(1, len(items) + 1))
    named = [(expression, f"col{next(auto)}" if alias is None else alias)
             for expression, alias in items]
    return Select(named, table, where, group_by)


def _xmlagg(_kw: str, _lp: str, arg: _Ctor | SExpr,
            order: tuple[SExpr | None, bool], _rp: str) -> XmlAggExpr:
    inner = _constructor(arg)
    return _nest(XmlAggExpr(inner, *order), inner, order[0])


def _more(items: list, _sep: str, item: object) -> list:
    items.append(item)
    return items


def _list(g: Grammar, name: str, item: str) -> None:
    """``name -> item ("," item)*``, as a list."""
    g.rule(name, [item], lambda first: [first])
    g.rule(name, [name, ",", item], _more)


def sql_grammar() -> Grammar:
    """The SQL/XML statement grammar, with AST-building actions."""
    g = Grammar("Statement")
    g.rule("Statement", ["CREATE", "TABLE", "Ident", "(", "Columns", ")"],
           lambda _c, _t, name, _l, columns, _r: CreateTable(name, columns))
    g.rule("Statement", ("CREATE INDEX Ident ON Ident ( Ident ) GENERATE KEY "
                         "USING XMLPATTERN STRING AS SQL Type").split(),
           lambda *p: CreateIndex(p[2], p[4], p[6], p[12], p[15]))
    g.rule("Statement", ["INSERT", "INTO", "Ident", "VALUES", "(", "Exprs",
                         ")"],
           lambda _i, _n, table, _v, _l, values, _r: Insert(table, values))
    g.rule("Statement", ["DELETE", "FROM", "Ident", "Where"],
           lambda _d, _f, table, where: Delete(table, where))
    g.rule("Statement", ["SELECT", "Items", "FROM", "Ident", "Where",
                         "GroupBy"], _select)

    _list(g, "Columns", "Column")
    g.rule("Column", ["Ident", "Type"])
    g.rule("Type", ["Word"], str.lower)  # VARCHAR(n): the length is ignored
    g.rule("Type", ["Word", "(", "NUMBER", ")"],
           lambda word, _l, _n, _r: word.lower())
    g.rule("Where", [], lambda: None)
    g.rule("Where", ["WHERE", "Cond"], lambda _w, cond: cond)
    g.rule("GroupBy", [], lambda: None)
    g.rule("GroupBy", ["GROUP", "BY", "Ident"], lambda _g, _b, name: name)
    _list(g, "Items", "Item")
    g.rule("Item", ["*"], lambda _s: (Star(), "*"))
    g.rule("Item", ["Expr"], lambda expression: (
        expression, expression.name if isinstance(expression, ColRef)
        else None))
    g.rule("Item", ["Expr", "AS", "Ident"],
           lambda expression, _a, alias: (expression, alias))

    # Conditions.
    g.rule("Cond", ["Cond", "OR", "AndCond"],
           lambda left, _o, right: _nest(BoolOp("or", left, right),
                                         left, right))
    g.rule("Cond", ["AndCond"])
    g.rule("AndCond", ["AndCond", "AND", "NotCond"],
           lambda left, _a, right: _nest(BoolOp("and", left, right),
                                         left, right))
    g.rule("AndCond", ["NotCond"])
    g.rule("NotCond", ["NOT", "NotCond"],
           lambda _n, operand: _nest(NotOp(operand), operand))
    g.rule("NotCond", ["(", "Cond", ")"], lambda _l, cond, _r: cond)
    g.rule("NotCond", ["XMLEXISTS", "(", "STRING", "PASSING", "Ident", ")"],
           lambda _x, _l, xpath, _p, column, _r: XmlExists(xpath, column))
    g.rule("NotCond", ["Expr", "CmpOp", "Expr"],
           lambda left, op, right: _nest(Comparison(op, left, right),
                                         left, right))
    for token, op in (("=", "="), ("<", "<"), ("<=", "<="), (">", ">"),
                      (">=", ">="), ("<>", "!="), ("!=", "!=")):
        g.rule("CmpOp", [token], lambda _t, op=op: op)

    # Scalar expressions.  A constructor used as a value compiles to one
    # template; one nested in another's arguments stays a _Ctor, so the
    # outermost call flattens the whole nest.
    _list(g, "Exprs", "Expr")
    g.rule("Expr", ["Primary"])
    g.rule("Expr", ["Concat"])
    g.rule("Concat", ["Expr", "||", "Primary"], _concat)
    g.rule("Primary", ["Atom"])
    g.rule("Primary", ["Ctor"], _constructor)
    g.rule("Atom", ["STRING"], SLiteral)
    g.rule("Atom", ["NUMBER"], SLiteral)
    g.rule("Atom", ["NULL"], lambda _n: SLiteral(None))
    g.rule("Atom", ["Ident"], ColRef)
    g.rule("Atom", ["XMLQUERY", "(", "STRING", "PASSING", "Ident", ")"],
           lambda _x, _l, xpath, _p, column, _r: XmlQuery(xpath, column))
    g.rule("Atom", ["XMLAGG", "(", "CtorArg", "OrderBy", ")"], _xmlagg)
    g.rule("OrderBy", [], lambda: (None, False))
    g.rule("OrderBy", ["ORDER", "BY", "Expr", "Descending"],
           lambda _o, _b, key, descending: (key, descending))
    g.rule("Descending", [], lambda: False)
    g.rule("Descending", ["ASC"], lambda _a: False)
    g.rule("Descending", ["DESC"], lambda _d: True)

    # Constructors (§4.1).  An argument that starts with a constructor is
    # that constructor alone: it nests into the outer template.
    g.rule("CtorArg", ["Ctor"])
    g.rule("CtorArg", ["Atom"])
    g.rule("CtorArg", ["ArgConcat"])
    g.rule("ArgConcat", ["Atom", "||", "Primary"], _concat)
    g.rule("ArgConcat", ["ArgConcat", "||", "Primary"], _concat)
    _list(g, "CtorArgs", "CtorArg")
    g.rule("Ctor", ["XMLELEMENT", "(", "WORD", "Name", "ElemArgs", ")"],
           _element)
    g.rule("Ctor", ["XMLFOREST", "(", "Pairs", ")"],
           lambda _x, _l, pairs, _r: _Ctor("forest", pairs))
    g.rule("Ctor", ["XMLCONCAT", "(", "CtorArgs", ")"],
           lambda _x, _l, args, _r: _Ctor("concat", args))
    g.rule("ElemArgs", [], lambda: [])
    g.rule("ElemArgs", ["ElemArgs", ",", "CtorArg"], _more)
    g.rule("ElemArgs", ["ElemArgs", ",", "XMLATTRIBUTES", "(", "Pairs", ")"],
           lambda args, _c, _x, _l, pairs, _r: _more(args, _c, pairs))
    _list(g, "Pairs", "Pair")
    g.rule("Pair", ["Expr", "AS", "Name"],
           lambda value, _a, name: (name, value))

    # Names.  Tables, columns and aliases are identifiers; element,
    # attribute, item and type names may also be keywords.
    g.rule("Ident", ["WORD"])
    g.rule("Ident", ["QWORD"])
    g.rule("Name", ["Word"])
    g.rule("Name", ["QWORD"])
    g.rule("Word", ["WORD"])
    for keyword in sorted(_KEYWORDS):
        g.rule("Word", [keyword.upper()])
    return g


@lru_cache(maxsize=1)
def _sql_parser() -> Parser:
    """The table-driven statement parser, built on first use."""
    return build_parser(sql_grammar())


def parse_statement(text: str) -> Statement:
    """Parse one statement; it must end where the text does."""
    try:
        return _sql_parser().parse(_tokenize(text))
    except ParseError as exc:
        raise SqlSyntaxError(str(exc)) from None


# -- execution ------------------------------------------------------------------------

class SqlSession:
    """Statement executor bound to one :class:`Database`."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.catalog = db.catalog
        self.stats = db.stats

    def execute(self, text: str) -> list[dict]:
        """Run one statement; SELECTs return rows as dicts."""
        statement = parse_statement(text)
        if isinstance(statement, CreateTable):
            self.db.create_table(statement.name, statement.columns)
            return []
        if isinstance(statement, CreateIndex):
            self.db.create_xpath_index(statement.name, statement.table,
                                       statement.column, statement.pattern,
                                       statement.key_type)
            return []
        if isinstance(statement, Insert):
            values = tuple(self._literal(v) for v in statement.values)
            self.db.insert(statement.table, values)
            return []
        if isinstance(statement, Delete):
            return self._delete(statement)
        return self._select(statement)

    @staticmethod
    def _literal(expr: SExpr) -> object:
        if not isinstance(expr, SLiteral):
            raise SqlSyntaxError("INSERT values must be literals")
        return expr.value

    # -- row source ----------------------------------------------------------------

    def _rows(self, table: str) -> Iterator[tuple[object, dict]]:
        definition = self.catalog.table(table)
        names = [c.name for c in definition.columns]
        for rid, row in self.db.tables[table].scan_rids():
            yield rid, dict(zip(names, row, strict=True))

    def _delete(self, statement: Delete) -> list[dict]:
        victims = []
        for rid, row in self._rows(statement.table):
            if statement.where is None or self._truth(
                    statement.where, statement.table, row):
                victims.append(rid)
        for rid in victims:
            self.db.delete_row(statement.table, rid)
        return [{"deleted": len(victims)}]

    def _select(self, statement: Select) -> list[dict]:
        rows = self._filtered_rows(statement)
        has_agg = any(isinstance(expr, XmlAggExpr)
                      for expr, _ in statement.items)
        if not has_agg:
            return [self._project(statement, row) for row in rows]
        # Aggregation: one output row per group.
        groups: dict[object, list[dict]] = {}
        for row in rows:
            key = row[statement.group_by] if statement.group_by else None
            groups.setdefault(key, []).append(row)
        out = []
        for key in sorted(groups, key=lambda k: (k is None, k)):
            out.append(self._project_group(statement, key, groups[key]))
        return out

    def _filtered_rows(self, statement: Select) -> list[dict]:
        """WHERE evaluation, routing a lone XMLEXISTS through the planner.

        When the whole WHERE clause is one XMLEXISTS, the XPath access
        methods of §4.3 bound the candidate rows (index-driven when XPath
        value indexes match); any other condition shape falls back to
        row-at-a-time evaluation.
        """
        condition = statement.where
        if isinstance(condition, XmlExists):
            matches = self.db.xpath(statement.table, condition.column,
                                    condition.xpath)
            qualifying = {m.docid for m in matches}
            definition = self.catalog.table(statement.table)
            names = [c.name for c in definition.columns]
            return [dict(zip(names, row, strict=True))
                    for _rid, row in
                    self.db.tables[statement.table].scan_rids()
                    if row[definition.column_index(condition.column)]
                    in qualifying]
        return [row for _rid, row in self._rows(statement.table)
                if condition is None
                or self._truth(condition, statement.table, row)]

    def _project(self, statement: Select, row: dict) -> dict:
        result = {}
        for expression, alias in statement.items:
            if isinstance(expression, Star):
                result.update(row)
            else:
                result[alias] = self._render(
                    self._scalar(expression, statement.table, row))
        return result

    def _project_group(self, statement: Select, key: object,
                       rows: list[dict]) -> dict:
        result = {}
        for expression, alias in statement.items:
            if isinstance(expression, XmlAggExpr):
                agg = XmlAggregator()
                for row in rows:
                    args = tuple(
                        self._scalar(slot, statement.table, row)
                        for slot in expression.inner.slots)
                    sort_key = None
                    if expression.order_by is not None:
                        sort_key = self._scalar(expression.order_by,
                                                statement.table, row)
                        if expression.descending:
                            sort_key = _Reversed(sort_key)
                    agg.add(expression.inner.template.instantiate(args),
                            sort_key)
                result[alias] = agg.serialize(
                    order_by=expression.order_by is not None)
            elif isinstance(expression, ColRef) and \
                    expression.name == statement.group_by:
                result[alias] = key
            else:
                result[alias] = self._render(
                    self._scalar(expression, statement.table, rows[0]))
        return result

    # -- scalar evaluation --------------------------------------------------------------

    def _scalar(self, expression: SExpr, table: str, row: dict) -> object:
        if isinstance(expression, SLiteral):
            return expression.value
        if isinstance(expression, ColRef):
            return _column(row, expression.name)
        if isinstance(expression, Concat):
            return "".join(
                "" if part is None else str(part)
                for part in (self._scalar(p, table, row)
                             for p in expression.parts))
        if isinstance(expression, XmlQuery):
            return self._xmlquery(expression, table, row)
        if isinstance(expression, ConstructorExpr):
            args = tuple(self._scalar(slot, table, row)
                         for slot in expression.slots)
            return expression.template.instantiate(args)
        raise SqlSyntaxError(f"cannot evaluate {expression!r} as a scalar")

    def _render(self, value: object) -> object:
        from repro.query.constructors import ConstructedValue
        if isinstance(value, ConstructedValue):
            return value.serialize()
        return value

    def _xml_column_source(self, table: str, column: str, row: dict):
        docid = _column(row, column)
        store = self.db.xml_stores.get((table, column))
        if store is None or docid is None:
            return None
        return store.document(docid).source()

    def _xmlquery(self, expression: XmlQuery, table: str,
                  row: dict) -> str | None:
        document = self._xml_column_source(table, expression.column, row)
        if document is None:
            return None
        items = self.db.scan_document(expression.xpath, document)
        reader = self.db.xml_stores[(table, expression.column)].document(
            row[expression.column])
        parts = []
        for item in items:
            if item.node_id is not None:
                parts.append(reader.serialize(item.node_id))
            else:
                parts.append(item.value or "")
        return "".join(parts)

    def _truth(self, condition: SExpr, table: str, row: dict) -> bool:
        if isinstance(condition, BoolOp):
            if condition.op == "and":
                return (self._truth(condition.left, table, row)
                        and self._truth(condition.right, table, row))
            return (self._truth(condition.left, table, row)
                    or self._truth(condition.right, table, row))
        if isinstance(condition, NotOp):
            return not self._truth(condition.operand, table, row)
        if isinstance(condition, XmlExists):
            document = self._xml_column_source(table, condition.column,
                                               row)
            if document is None:
                return False
            return bool(self.db.scan_document(condition.xpath, document))
        if isinstance(condition, Comparison):
            left = self._scalar(condition.left, table, row)
            right = self._scalar(condition.right, table, row)
            if left is None or right is None:
                return False
            if isinstance(left, str) != isinstance(right, str):
                try:
                    left, right = float(left), float(right)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    return False
            table_ops = {
                "=": left == right, "!=": left != right,
                "<": left < right, "<=": left <= right,  # type: ignore[operator]
                ">": left > right, ">=": left >= right,  # type: ignore[operator]
            }
            return table_ops[condition.op]
        raise SqlSyntaxError(f"cannot evaluate condition {condition!r}")


def _column(row: dict, name: str) -> object:
    """The value of column ``name`` in ``row`` (typed error if unknown)."""
    if name not in row:
        raise SqlSyntaxError(f"unknown column {name!r}")
    return row[name]


class _Reversed:
    """Sort-key wrapper inverting comparisons (ORDER BY ... DESC)."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __gt__(self, other: "_Reversed") -> bool:
        return other.value > self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value
