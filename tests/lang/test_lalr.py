"""Tests for the LALR(1) parser generator itself."""

import pytest

from repro.lang.lalr import (EOF, Grammar, GrammarError, ParseError, Token,
                             build_parser)


def tokens_of(text):
    """Tiny lexer for arithmetic test grammars."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("num", int(text[i:j]), i))
            i = j
        else:
            out.append(Token(ch, ch, i))
            i += 1
    return out


def arithmetic_parser():
    g = Grammar("E")
    g.rule("E", ["E", "+", "T"], lambda a, _p, b: a + b)
    g.rule("E", ["E", "-", "T"], lambda a, _m, b: a - b)
    g.rule("E", ["T"])
    g.rule("T", ["T", "*", "F"], lambda a, _m, b: a * b)
    g.rule("T", ["F"])
    g.rule("F", ["num"])
    g.rule("F", ["(", "E", ")"], lambda _l, e, _r: e)
    return build_parser(g)


class TestArithmetic:
    @pytest.mark.parametrize("text,expected", [
        ("1", 1),
        ("1+2", 3),
        ("1+2*3", 7),          # precedence from the grammar
        ("(1+2)*3", 9),
        ("10-2-3", 5),         # left associativity
        ("2*3*4", 24),
        ("((((5))))", 5),
    ])
    def test_evaluates(self, text, expected):
        assert arithmetic_parser().parse(tokens_of(text)) == expected

    @pytest.mark.parametrize("text", ["1+", "+1", "(1", "1)", "1 1", ""])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            arithmetic_parser().parse(tokens_of(text))


class TestGrammarFeatures:
    def test_nullable_productions(self):
        g = Grammar("S")
        g.rule("S", ["a", "B", "c"], lambda a, b, c: (a, b, c))
        g.rule("B", ["b"])
        g.rule("B", [], lambda: None)
        parser = build_parser(g)
        toks = [Token("a", "a"), Token("b", "b"), Token("c", "c")]
        assert parser.parse(toks) == ("a", "b", "c")
        toks = [Token("a", "a"), Token("c", "c")]
        assert parser.parse(toks) == ("a", None, "c")

    def test_lalr_not_slr(self):
        """A grammar that is LALR(1) but not SLR(1)."""
        g = Grammar("S")
        g.rule("S", ["A", "a"], lambda a, _x: ("Aa", a))
        g.rule("S", ["b", "A", "c"], lambda _b, a, _c: ("bAc", a))
        g.rule("S", ["d", "c"], lambda _d, _c: "dc")
        g.rule("S", ["b", "d", "a"], lambda _b, _d, _a: "bda")
        g.rule("A", ["d"], lambda d: d)
        parser = build_parser(g)
        assert parser.parse([Token("d", "d"), Token("a", "a")]) == ("Aa", "d")
        assert parser.parse([Token("b", "b"), Token("d", "d"),
                             Token("c", "c")]) == ("bAc", "d")
        assert parser.parse([Token("b", "b"), Token("d", "d"),
                             Token("a", "a")]) == "bda"

    def test_ambiguous_grammar_rejected(self):
        g = Grammar("E")
        g.rule("E", ["E", "+", "E"], lambda a, _p, b: a + b)
        g.rule("E", ["num"])
        with pytest.raises(GrammarError):
            build_parser(g)

    def test_missing_start_rule(self):
        g = Grammar("S")
        g.rule("A", ["a"])
        with pytest.raises(GrammarError):
            build_parser(g)

    def test_terminals_derived(self):
        g = Grammar("S")
        g.rule("S", ["a", "S"], lambda a, s: a + s)
        g.rule("S", ["b"])
        assert g.terminals == {"a", "b"}

    def test_error_message_lists_expectations(self):
        parser = arithmetic_parser()
        with pytest.raises(ParseError) as err:
            parser.parse([Token("+", "+", 0)])
        assert "num" in str(err.value)

    def test_eof_token_reserved(self):
        parser = arithmetic_parser()
        assert EOF == "$end"
        with pytest.raises(ParseError):
            parser.parse([Token("num", 1), Token("num", 2)])

    @pytest.mark.parametrize("rules,dead", [
        # every S-rule needs an S, so neither S nor A derives a string
        ([("S", "S S a"), ("S", "A S S"), ("A", "S"), ("A", "S S")], "A, S"),
        # only D is dead; S still derives "a"
        ([("S", "a"), ("S", "b D"), ("D", "D c")], "D"),
    ])
    def test_unproductive_grammar_rejected(self, rules, dead):
        g = Grammar("S")
        for lhs, rhs in rules:
            g.rule(lhs, rhs.split())
        with pytest.raises(GrammarError,
                           match=f"derive no terminal string: {dead}$"):
            build_parser(g)
