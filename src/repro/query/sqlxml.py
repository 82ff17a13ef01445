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

Nested constructor calls are flattened at *compile* time: scalar argument
expressions become numbered template slots, so each row is evaluated into a
plain args record bound to the shared template (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.engine import Database
from repro.errors import SqlSyntaxError
from repro.query.constructors import (Arg, Const, Spec, XAttr, XConcat,
                                      XElem, XForest, XmlAggregator,
                                      compile_template)
from repro.xdm.serializer import serialize
from repro.xpath.quickxscan import QuickXScan

_KEYWORDS = {
    "create", "table", "index", "on", "insert", "into", "values", "select",
    "from", "where", "and", "or", "not", "null", "group", "by", "order",
    "desc", "asc", "delete", "generate", "key", "using", "xmlpattern", "as",
    "sql", "passing", "xmlquery", "xmlexists", "xmlelement",
    "xmlattributes", "xmlforest", "xmlconcat", "xmlagg",
}


@dataclass(frozen=True)
class _Tok:
    type: str  # "word" | "string" | "number" | punctuation
    value: object
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch == "'":
            # SQL string literal with '' escaping.
            parts = []
            pos += 1
            while True:
                end = text.find("'", pos)
                if end < 0:
                    raise SqlSyntaxError(f"unterminated string at {pos}")
                parts.append(text[pos:end])
                if text[end:end + 2] == "''":
                    parts.append("'")
                    pos = end + 2
                    continue
                pos = end + 1
                break
            out.append(_Tok("string", "".join(parts), pos))
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < length
                            and text[pos + 1].isdigit()):
            start = pos
            while pos < length and (text[pos].isdigit() or text[pos] == "."):
                pos += 1
            literal = text[start:pos]
            out.append(_Tok("number",
                            float(literal) if "." in literal
                            else int(literal), start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < length and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            out.append(_Tok("word", text[start:pos], start))
            continue
        if ch == '"':
            end = text.find('"', pos + 1)
            if end < 0:
                raise SqlSyntaxError(f"unterminated identifier at {pos}")
            out.append(_Tok("qword", text[pos + 1:end], pos))
            pos = end + 1
            continue
        two = text[pos:pos + 2]
        if two in ("<=", ">=", "<>", "!=", "||"):
            out.append(_Tok(two, two, pos))
            pos += 2
            continue
        if ch in "(),*=<>.":
            out.append(_Tok(ch, ch, pos))
            pos += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r} at offset {pos}")
    return out


# -- expression forms ---------------------------------------------------------

class SExpr:
    pass


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


class _Parser:
    def __init__(self, tokens: list[_Tok]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- cursor helpers -----------------------------------------------------

    def peek(self) -> _Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Tok:
        token = self.peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of statement")
        self.pos += 1
        return token

    def accept_word(self, *words: str) -> str | None:
        token = self.peek()
        if token is not None and token.type == "word" and \
                str(token.value).lower() in words:
            self.pos += 1
            return str(token.value).lower()
        return None

    def expect_word(self, word: str) -> None:
        if self.accept_word(word) is None:
            found = self.peek()
            raise SqlSyntaxError(
                f"expected {word.upper()}, found "
                f"{found.value if found else 'end'}")

    def expect(self, token_type: str) -> _Tok:
        token = self.next()
        if token.type != token_type:
            raise SqlSyntaxError(
                f"expected {token_type!r}, found {token.value!r}")
        return token

    def identifier(self) -> str:
        token = self.next()
        if token.type == "word":
            word = str(token.value)
            if word.lower() in _KEYWORDS:
                raise SqlSyntaxError(f"keyword {word!r} used as identifier")
            return word
        if token.type == "qword":
            return str(token.value)
        raise SqlSyntaxError(f"expected an identifier, found {token.value!r}")

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- statements ----------------------------------------------------------------

    def statement(self) -> Statement:
        if self.accept_word("create"):
            if self.accept_word("table"):
                return self._create_table()
            if self.accept_word("index"):
                return self._create_index()
            raise SqlSyntaxError("expected TABLE or INDEX after CREATE")
        if self.accept_word("insert"):
            return self._insert()
        if self.accept_word("delete"):
            return self._delete()
        if self.accept_word("select"):
            return self._select()
        found = self.peek()
        raise SqlSyntaxError(
            f"unknown statement start {found.value if found else 'end'!r}")

    def _create_table(self) -> CreateTable:
        name = self.identifier()
        self.expect("(")
        columns = []
        while True:
            col_name = self.identifier()
            col_type = str(self.expect("word" if self.peek() and
                                       self.peek().type == "word"
                                       else "word").value).lower()
            if self.peek() is not None and self.peek().type == "(":
                self.next()
                self.expect("number")  # VARCHAR(n) length ignored
                self.expect(")")
            columns.append((col_name, col_type))
            token = self.next()
            if token.type == ")":
                break
            if token.type != ",":
                raise SqlSyntaxError(f"expected , or ) in column list")
        if not self.at_end():
            raise SqlSyntaxError("trailing tokens after CREATE TABLE")
        return CreateTable(name, columns)

    def _create_index(self) -> CreateIndex:
        name = self.identifier()
        self.expect_word("on")
        table = self.identifier()
        self.expect("(")
        column = self.identifier()
        self.expect(")")
        self.expect_word("generate")
        self.expect_word("key")
        self.expect_word("using")
        self.expect_word("xmlpattern")
        pattern = str(self.expect("string").value)
        self.expect_word("as")
        self.expect_word("sql")
        key_type = str(self.expect("word").value).lower()
        if self.peek() is not None and self.peek().type == "(":
            self.next()
            self.expect("number")
            self.expect(")")
        return CreateIndex(name, table, column, pattern, key_type)

    def _insert(self) -> Insert:
        self.expect_word("into")
        table = self.identifier()
        self.expect_word("values")
        self.expect("(")
        values = [self.expr()]
        while self.peek() is not None and self.peek().type == ",":
            self.next()
            values.append(self.expr())
        self.expect(")")
        return Insert(table, values)

    def _delete(self) -> Delete:
        self.expect_word("from")
        table = self.identifier()
        where = None
        if self.accept_word("where"):
            where = self.condition()
        return Delete(table, where)

    def _select(self) -> Select:
        items: list[tuple[SExpr, str]] = []
        auto = 0
        while True:
            if self.peek() is not None and self.peek().type == "*":
                self.next()
                items.append((SLiteral("*"), "*"))
            else:
                expression = self.expr()
                if self.accept_word("as"):
                    alias = self.identifier()
                elif isinstance(expression, ColRef):
                    alias = expression.name
                else:
                    auto += 1
                    alias = f"col{auto}"
                items.append((expression, alias))
            if self.peek() is not None and self.peek().type == ",":
                self.next()
                continue
            break
        self.expect_word("from")
        table = self.identifier()
        where = None
        group_by = None
        if self.accept_word("where"):
            where = self.condition()
        if self.accept_word("group"):
            self.expect_word("by")
            group_by = self.identifier()
        if not self.at_end():
            raise SqlSyntaxError("trailing tokens after SELECT")
        return Select(items, table, where, group_by)

    # -- conditions -------------------------------------------------------------------

    def condition(self) -> SExpr:
        left = self.and_condition()
        while self.accept_word("or"):
            left = BoolOp("or", left, self.and_condition())
        return left

    def and_condition(self) -> SExpr:
        left = self.simple_condition()
        while self.accept_word("and"):
            left = BoolOp("and", left, self.simple_condition())
        return left

    def simple_condition(self) -> SExpr:
        if self.accept_word("not"):
            return NotOp(self.simple_condition())
        if self.accept_word("xmlexists"):
            self.expect("(")
            xpath = str(self.expect("string").value)
            self.expect_word("passing")
            column = self.identifier()
            self.expect(")")
            return XmlExists(xpath, column)
        if self.peek() is not None and self.peek().type == "(":
            self.next()
            inner = self.condition()
            self.expect(")")
            return inner
        left = self.expr()
        token = self.next()
        op = {"=": "=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
              "<>": "!=", "!=": "!="}.get(token.type)
        if op is None:
            raise SqlSyntaxError(f"expected a comparison, found "
                                 f"{token.value!r}")
        return Comparison(op, left, self.expr())

    # -- scalar / XML expressions --------------------------------------------------------

    def expr(self) -> SExpr:
        left = self.primary()
        while self.peek() is not None and self.peek().type == "||":
            self.next()
            right = self.primary()
            if isinstance(left, Concat):
                left.parts.append(right)
            else:
                left = Concat([left, right])
        return left

    def primary(self) -> SExpr:
        token = self.peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of expression")
        if token.type in ("string", "number"):
            self.next()
            return SLiteral(token.value)
        if token.type == "word":
            word = str(token.value).lower()
            if word == "null":
                self.next()
                return SLiteral(None)
            if word == "xmlquery":
                self.next()
                self.expect("(")
                xpath = str(self.expect("string").value)
                self.expect_word("passing")
                column = self.identifier()
                self.expect(")")
                return XmlQuery(xpath, column)
            if word in ("xmlelement", "xmlforest", "xmlconcat"):
                slots: list[SExpr] = []
                spec = self._constructor(slots)
                return ConstructorExpr(spec, slots)
            if word == "xmlagg":
                self.next()
                self.expect("(")
                slots = []
                inner_spec = self._constructor(slots)
                inner = ConstructorExpr(inner_spec, slots)
                order_by = None
                descending = False
                if self.accept_word("order"):
                    self.expect_word("by")
                    order_by = self.expr()
                    if self.accept_word("desc"):
                        descending = True
                    else:
                        self.accept_word("asc")
                self.expect(")")
                return XmlAggExpr(inner, order_by, descending)
            self.next()
            return ColRef(str(token.value))
        if token.type == "qword":
            self.next()
            return ColRef(str(token.value))
        raise SqlSyntaxError(f"unexpected token {token.value!r}")

    def _constructor(self, slots: list[SExpr]) -> Spec:
        """Parse a constructor call, collecting slot expressions (§4.1)."""
        word = self.accept_word("xmlelement", "xmlforest", "xmlconcat")
        if word is None:
            # A nested scalar argument: becomes a numbered slot.
            expression = self.expr()
            if isinstance(expression, SLiteral) and \
                    expression.value is not None:
                return Const(str(expression.value))
            slots.append(expression)
            return Arg(len(slots) - 1)
        self.expect("(")
        if word == "xmlelement":
            self.expect_word("name")
            name_token = self.next()
            if name_token.type not in ("qword", "word"):
                raise SqlSyntaxError("XMLELEMENT needs an element name")
            attrs: list[XAttr] = []
            children: list[Spec] = []
            while self.peek() is not None and self.peek().type == ",":
                self.next()
                if self.accept_word("xmlattributes"):
                    self.expect("(")
                    while True:
                        value = self.expr()
                        self.expect_word("as")
                        attr_token = self.next()
                        if attr_token.type not in ("qword", "word"):
                            raise SqlSyntaxError("attribute name expected")
                        if isinstance(value, SLiteral) and \
                                value.value is not None:
                            attrs.append(XAttr(str(attr_token.value),
                                               Const(str(value.value))))
                        else:
                            slots.append(value)
                            attrs.append(XAttr(str(attr_token.value),
                                               Arg(len(slots) - 1)))
                        if self.peek() is not None and \
                                self.peek().type == ",":
                            self.next()
                            continue
                        break
                    self.expect(")")
                else:
                    children.append(self._constructor(slots))
            self.expect(")")
            return XElem(str(name_token.value), tuple(attrs),
                         tuple(children))
        if word == "xmlforest":
            items = []
            while True:
                value = self.expr()
                self.expect_word("as")
                item_token = self.next()
                if item_token.type not in ("qword", "word"):
                    raise SqlSyntaxError("XMLFOREST item name expected")
                if isinstance(value, SLiteral) and value.value is not None:
                    items.append((str(item_token.value),
                                  Const(str(value.value))))
                else:
                    slots.append(value)
                    items.append((str(item_token.value),
                                  Arg(len(slots) - 1)))
                if self.peek() is not None and self.peek().type == ",":
                    self.next()
                    continue
                break
            self.expect(")")
            return XForest(tuple(items))
        # xmlconcat
        children = [self._constructor(slots)]
        while self.peek() is not None and self.peek().type == ",":
            self.next()
            children.append(self._constructor(slots))
        self.expect(")")
        return XConcat(tuple(children))


def parse_statement(text: str) -> Statement:
    return _Parser(_tokenize(text)).statement()


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
            if isinstance(expression, SLiteral) and expression.value == "*" \
                    and alias == "*":
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

    def _xscan(self, xpath: str, source) -> list:
        """The items ``xpath`` matches in one row's document.

        The path comes from the engine's query cache, so a statement
        compiles it once, not once per row.
        """
        return QuickXScan(self.db.compile_xpath(xpath)[1],
                          stats=self.stats).run(source)

    def _xmlquery(self, expression: XmlQuery, table: str,
                  row: dict) -> str | None:
        document = self._xml_column_source(table, expression.column, row)
        if document is None:
            return None
        items = self._xscan(expression.xpath, document)
        store = self.db.xml_stores[(table, expression.column)]
        docid = row[expression.column]
        parts = []
        for item in items:
            if item.kind == "element" and item.node_id is not None:
                parts.append(serialize(
                    store.document(docid).node_events(item.node_id)))
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
            return bool(self._xscan(condition.xpath, document))
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
