"""XPath parse facade: lexer → LALR parser → rewrites → AST.

The engine's query cache keys a statement on its *shape*: the text with its
string and number literals lifted out (:func:`lift_literals`).  Parsing a
text with its lift numbers the lifted literals (``ast.Literal.slot``), so
one parsed and compiled template serves every text of that shape, each
binding its own literals.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import XPathSyntaxError
from repro.lang import ast
from repro.lang.lalr import ParseError, Token
from repro.lang.rewrite import normalize
from repro.lang.xpath_grammar import xpath_parser
from repro.lang.xpath_lexer import tokenize

#: Deepest expression nesting a path may have.  The rewrites, the query
#: tree compiler and the evaluators recurse over the tree, so a deeper
#: expression is refused when it is parsed.
MAX_NESTING = 128

#: A string literal, or a number that does not continue a name (a name
#: character is a word character, ``.``, ``-`` or anything non-ASCII).
_LITERAL = re.compile(r"""("[^"]*"|'[^']*')"""
                      r"|(?<![\w.\-\x80-\U0010ffff])[0-9]+(?:\.[0-9]*)?"
                      r"|(?<![\w.\-\x80-\U0010ffff])\.[0-9]+")
_LITERAL_TOKENS = ("STRING", "NUMBER")


class Lift(NamedTuple):
    """A text split at its literals: ``segments[i]`` precedes literal i."""

    segments: tuple[str, ...]
    kinds: tuple[str, ...]
    values: tuple[object, ...]
    starts: tuple[int, ...]


def lift_literals(text: str) -> Lift:
    """Split ``text`` at its string and number literals, in one pass."""
    segments, kinds, values, starts = [], [], [], []
    last = 0
    for match in _LITERAL.finditer(text):
        start = match.start()
        segments.append(text[last:start])
        quoted = match.group(1)
        if quoted is None:
            kinds.append("NUMBER")
            values.append(float(match.group()))
        else:
            kinds.append("STRING")
            values.append(quoted[1:-1])
        starts.append(start)
        last = match.end()
    segments.append(text[last:])
    return Lift(tuple(segments), tuple(kinds), tuple(values), tuple(starts))


def parse_xpath(text: str, namespaces: dict[str, str] | None = None,
                lift: Lift | None = None) -> ast.Expr:
    """Parse and normalize an XPath expression.

    With ``lift`` (``text``'s :func:`lift_literals`), the lifted literals
    are numbered in text order when they are exactly the lexer's string
    and number tokens, at the same offsets with the same values, and each
    ends up as an ``ast.Literal``; otherwise no literal is numbered.
    """
    tokens = tokenize(text)
    if not tokens:
        raise XPathSyntaxError("empty XPath expression")
    numbered = lift is not None and _number_literals(tokens, lift)
    try:
        expr = xpath_parser().parse(tokens)
    except ParseError as exc:
        if numbered:  # report the error with the plain token values
            return parse_xpath(text, namespaces)
        raise XPathSyntaxError(f"in {text!r}: {exc}") from None
    _check_nesting(expr, text)
    expr = normalize(expr, namespaces)
    if numbered and \
            sorted(ast.literal_slots(expr)) != list(range(len(lift.values))):
        # A lifted string named a processing-instruction target.
        return parse_xpath(text, namespaces)
    return expr


def _number_literals(tokens: list[Token], lift: Lift) -> bool:
    """Number the literal tokens (in place) if they are the lifted ones."""
    at = [i for i, token in enumerate(tokens)
          if token.type in _LITERAL_TOKENS]
    if [tokens[i].pos for i in at] != list(lift.starts) or \
            [tokens[i].value for i in at] != list(lift.values):
        return False
    for slot, i in enumerate(at):
        token = tokens[i]
        tokens[i] = Token(token.type, ast.Literal(token.value, slot),
                          token.pos)
    return True


def _check_nesting(expr: ast.Expr, text: str) -> None:
    """Refuse an expression nested deeper than :data:`MAX_NESTING`."""
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            raise XPathSyntaxError(
                f"{text[:40]!r}... nests deeper than {MAX_NESTING} levels")
        stack.extend((child, depth + 1) for child in ast.children(node))


def parse_path(text: str,
               namespaces: dict[str, str] | None = None) -> ast.LocationPath:
    """Parse an XPath that must be a location path (index definitions)."""
    expr = parse_xpath(text, namespaces)
    if not isinstance(expr, ast.LocationPath):
        raise XPathSyntaxError(f"{text!r} is not a location path")
    return expr
