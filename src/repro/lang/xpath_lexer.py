"""XPath lexical scanner.

"LALR(1) is used with a much simpler lexical scanner than what is described
in the W3C specification, achieved by rewriting the BNF production rules"
(§4).  The scanner resolves the three classic XPath lexical ambiguities
locally, so the grammar stays LALR(1):

* a name followed by ``(`` is a function name — or a node-type test when it
  is one of ``node``/``text``/``comment``/``processing-instruction``;
* a name followed by ``::`` is an axis name;
* after a token that ends an operand, ``*`` is the multiply operator and the
  names ``and``/``or``/``div``/``mod`` are operators; elsewhere ``*`` is a
  wildcard and they are element names.
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.lang.lalr import Token

_NODE_TYPES = {"node", "text", "comment", "processing-instruction"}
_OPERATOR_NAMES = {"and": "AND", "or": "OR", "div": "DIV", "mod": "MOD"}

#: Token types that end an operand; after one of these, '*' multiplies and
#: operator names are operators (XPath 1.0 §3.7 disambiguation rule).
_OPERAND_END = {"NAME", "STAR", "NUMBER", "STRING", "RPAREN", "RBRACK",
                "DOT", "DOTDOT", "NODETYPE_EMPTY"}

_TWO_CHAR = {"//": "DSLASH", "..": "DOTDOT", "!=": "NE", "<=": "LE",
             ">=": "GE"}
_ONE_CHAR = {"/": "SLASH", "@": "AT", "[": "LBRACK", "]": "RBRACK",
             "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "=": "EQ",
             "<": "LT", ">": "GT", "+": "PLUS", "-": "MINUS", "|": "UNION",
             ".": "DOT"}


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ord(ch) > 0x7F


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-." or ord(ch) > 0x7F


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into LALR tokens."""
    tokens: list[Token] = []
    pos = 0
    length = len(text)

    def prev_type() -> str | None:
        return tokens[-1].type if tokens else None

    def operand_ended() -> bool:
        return prev_type() in _OPERAND_END

    while pos < length:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        two = text[pos:pos + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(_TWO_CHAR[two], two, pos))
            pos += 2
            continue
        if ch in "\"'":
            end = text.find(ch, pos + 1)
            if end < 0:
                raise XPathSyntaxError(f"unterminated string at offset {pos}")
            tokens.append(Token("STRING", text[pos + 1:end], pos))
            pos = end + 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < length
                            and text[pos + 1].isdigit()):
            start = pos
            while pos < length and text[pos].isdigit():
                pos += 1
            if pos < length and text[pos] == ".":
                pos += 1
                while pos < length and text[pos].isdigit():
                    pos += 1
            try:
                value = float(text[start:pos])
            except ValueError:  # a digit float() refuses, such as '²'
                raise XPathSyntaxError(
                    f"malformed number at offset {start}") from None
            tokens.append(Token("NUMBER", value, start))
            continue
        if ch == "*":
            if operand_ended():
                tokens.append(Token("MUL", "*", pos))
            else:
                tokens.append(Token("STAR", (None, "*"), pos))
            pos += 1
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(_ONE_CHAR[ch], ch, pos))
            pos += 1
            continue
        if _is_name_start(ch):
            start = pos
            pos += 1
            while pos < length and _is_name_char(text[pos]):
                pos += 1
            name = text[start:pos]
            # Operator-name disambiguation.
            if name in _OPERATOR_NAMES and operand_ended():
                tokens.append(Token(_OPERATOR_NAMES[name], name, start))
                continue
            # Prefixed name or wildcard: NAME ':' (NAME | '*'), but not '::'.
            prefix: str | None = None
            if pos < length and text[pos] == ":" and \
                    text[pos:pos + 2] != "::":
                nxt = text[pos + 1] if pos + 1 < length else ""
                if nxt == "*":
                    tokens.append(Token("STAR", (name, "*"), start))
                    pos += 2
                    continue
                if _is_name_start(nxt):
                    prefix = name
                    pos += 1
                    name_start = pos
                    pos += 1
                    while pos < length and _is_name_char(text[pos]):
                        pos += 1
                    name = text[name_start:pos]
                else:
                    raise XPathSyntaxError(
                        f"malformed qualified name at offset {start}")
            # Lookahead for '::' (axis) and '(' (function / node type).
            ahead = pos
            while ahead < length and text[ahead] in " \t\r\n":
                ahead += 1
            if prefix is None and text[ahead:ahead + 2] == "::":
                tokens.append(Token("AXIS", name, start))
                pos = ahead + 2
                continue
            if ahead < length and text[ahead] == "(":
                if prefix is None and name in _NODE_TYPES:
                    tokens.append(Token("NODETYPE", name, start))
                else:
                    if prefix is not None:
                        raise XPathSyntaxError(
                            f"prefixed function names are not supported "
                            f"(offset {start})")
                    tokens.append(Token("FUNCNAME", name, start))
                continue
            tokens.append(Token("NAME", (prefix, name), start))
            continue
        raise XPathSyntaxError(f"unexpected character {ch!r} at offset {pos}")
    return tokens
