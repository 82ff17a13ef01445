"""Hostile XPath text yields a typed error, never a bare Python one.

The LALR parse is iterative, but the rewrites, the query-tree compiler and
the evaluators recurse over the expression tree, so nesting is bounded by
``repro.lang.parser.MAX_NESTING`` when a path is parsed.  Nesting up to
the bound runs end to end; one level more is refused.
"""

import pytest

from repro.core.engine import Database
from repro.errors import XPathSyntaxError
from repro.lang.parser import MAX_NESTING, parse_xpath


def or_chain(depth: int) -> str:
    # path, step, depth - 3 nested ``or`` nodes, the innermost ``b`` path
    # and its step
    return "/a[" + " or ".join(["b"] * (depth - 3)) + "]"


def nested_not(depth: int) -> str:
    calls = depth - 4
    return "/a[" + "not(" * calls + "b" + ")" * calls + "]"


def unary_minuses(depth: int) -> str:
    return "/a[" + "-" * (depth - 4) + "b]"


DEEP_TEXTS = {"or chain": or_chain, "nested not()": nested_not,
              "unary minuses": unary_minuses}


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table("t", [("doc", "xml")])
    database.insert("t", ("<a><b>1</b></a>",))
    return database


@pytest.mark.parametrize("make", DEEP_TEXTS.values(), ids=DEEP_TEXTS)
def test_nesting_up_to_the_bound_runs(db, make):
    text = make(MAX_NESTING)
    rows = db.xpath("t", "doc", text)
    assert len(rows) == 1
    plan = db.plan_xpath("t", "doc", text)
    assert str(plan.path) and plan.explain()


@pytest.mark.parametrize("make", DEEP_TEXTS.values(), ids=DEEP_TEXTS)
def test_one_level_more_is_refused(db, make):
    text = make(MAX_NESTING + 1)
    with pytest.raises(XPathSyntaxError, match="nests deeper"):
        parse_xpath(text)
    with pytest.raises(XPathSyntaxError):
        db.xpath("t", "doc", text)


@pytest.mark.parametrize("text", [
    "/a[" + " or ".join(["b"] * 3000) + "]",
    "/a[" + "not(" * 3000 + "b" + ")" * 3000 + "]",
    "/a[" + "-" * 3000 + "b]",
    "/a" + "[b" * 3000 + "]" * 3000,
], ids=["3000-term or", "3000 nested not(", "3000 unary minuses",
        "3000 nested predicates"])
def test_deep_text_is_a_syntax_error(db, text):
    with pytest.raises(XPathSyntaxError):
        parse_xpath(text)
    with pytest.raises(XPathSyntaxError):
        db.xpath("t", "doc", text)


def test_deep_parentheses_add_no_nesting(db):
    text = "/a[" + "(" * 3000 + "b" + ")" * 3000 + "]"
    assert len(db.xpath("t", "doc", text)) == 1


@pytest.mark.parametrize("text", ["/a[b = ²]", "/a[b = 1²]", "²"])
def test_a_digit_float_refuses_is_a_syntax_error(db, text):
    with pytest.raises(XPathSyntaxError, match="malformed number"):
        parse_xpath(text)
    with pytest.raises(XPathSyntaxError):
        db.xpath("t", "doc", text)
