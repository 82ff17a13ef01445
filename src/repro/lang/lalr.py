"""A small LALR(1) parser generator.

The paper generates its XQuery/XPath parser with an LALR(k) generator and
notes that "in our case LALR(1) is used with a much simpler lexical scanner
than what is described in the W3C specification, achieved by rewriting the
BNF production rules" (§4).  This module provides that machinery from
scratch: grammars are lists of productions with semantic actions; tables are
built from the LR(0) automaton, with one lookahead set per item propagated
to a fixpoint through closures and gotos (the kernel construction of the
Dragon book, §4.7.5), and conflicts are reported at build time.  Grammars
with a nonterminal that derives no terminal string are rejected.

The generator is deliberately general — nothing in it knows about XPath or
SQL — and builds both the XPath parser (:mod:`repro.lang.xpath_grammar`)
and the SQL/XML statement parser (:mod:`repro.query.sqlxml`); the test
suite also exercises it independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import QueryError


class GrammarError(QueryError):
    """Grammar construction or table conflict error."""


class ParseError(QueryError):
    """Input rejected by the generated parser."""


#: End-of-input terminal.
EOF = "$end"
#: Internal augmented start symbol.
_START = "$start"


@dataclass(frozen=True)
class Production:
    """One grammar production ``lhs -> rhs`` with a semantic action.

    The action receives one argument per RHS symbol (terminal token values
    or nonterminal results) and returns the LHS value.
    """

    index: int
    lhs: str
    rhs: tuple[str, ...]
    action: Callable[..., object]


@dataclass(frozen=True)
class Token:
    """Lexer output: a terminal with its semantic value and position."""

    type: str
    value: object = None
    pos: int = 0


class Grammar:
    """A context-free grammar under construction."""

    def __init__(self, start: str) -> None:
        self.start = start
        self.productions: list[Production] = []
        self.nonterminals: set[str] = set()

    def rule(self, lhs: str, rhs: Sequence[str],
             action: Callable[..., object] | None = None) -> None:
        """Add ``lhs -> rhs``.  Default action returns the sole child (or a
        tuple of children)."""
        if action is None:
            if len(rhs) == 1:
                action = lambda x: x  # noqa: E731
            else:
                action = lambda *xs: tuple(xs)  # noqa: E731
        self.productions.append(
            Production(len(self.productions), lhs, tuple(rhs), action))
        self.nonterminals.add(lhs)

    @property
    def terminals(self) -> set[str]:
        used = {sym for p in self.productions for sym in p.rhs}
        return used - self.nonterminals


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------

_Item = tuple[int, int]  # (production index, dot position)


class ParserTables:
    """ACTION/GOTO tables plus the production list."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        augmented = Production(-1, _START, (grammar.start,), lambda x: x)
        self._productions: dict[int, Production] = {-1: augmented}
        for production in grammar.productions:
            self._productions[production.index] = production
        self._by_lhs: dict[str, list[Production]] = {}
        for production in grammar.productions:
            self._by_lhs.setdefault(production.lhs, []).append(production)
        if grammar.start not in self._by_lhs:
            raise GrammarError(f"start symbol {grammar.start!r} has no rules")
        self._nonterminals = grammar.nonterminals
        self._first: dict[str, set[str | None]] = {
            nt: set() for nt in self._nonterminals}
        self._compute_first()
        self.action: list[dict[str, tuple[str, int]]] = []
        self.goto: list[dict[str, int]] = []
        self._build()

    # -- FIRST sets -----------------------------------------------------------

    def _compute_first(self) -> None:
        """FIRST sets, and the check that every nonterminal derives some
        terminal string: a dead one's items would get empty lookahead sets,
        which the kernel construction cannot tell from live ones."""
        productive: set[str] = set()
        changed = True
        while changed:
            changed = False
            for production in self.grammar.productions:
                target = self._first[production.lhs]
                before = len(target)
                target |= self._first_of(production.rhs)
                changed |= len(target) != before
                if production.lhs not in productive and all(
                        symbol in productive
                        or symbol not in self._nonterminals
                        for symbol in production.rhs):
                    productive.add(production.lhs)
                    changed = True
        dead = self._nonterminals - productive
        if dead:
            raise GrammarError("nonterminals derive no terminal string: "
                               + ", ".join(sorted(dead)))

    def _first_of(self, symbols: Sequence[str]) -> set[str | None]:
        """FIRST of a symbol string; ``None`` in it marks it nullable."""
        out: set[str | None] = set()
        for symbol in symbols:
            if symbol not in self._nonterminals:
                return out | {symbol}
            out |= self._first[symbol] - {None}
            if None not in self._first[symbol]:
                return out
        return out | {None}

    # -- LR(0) automaton with propagated lookaheads ---------------------------

    def _build(self) -> None:
        productions = self._productions
        by_lhs = self._by_lhs

        def closure(kernel: list[_Item]) -> list[_Item]:
            items = list(kernel)
            seen = set(kernel)
            for prod_index, dot in items:  # grows while iterated
                rhs = productions[prod_index].rhs
                if dot < len(rhs) and rhs[dot] in by_lhs:
                    for candidate in by_lhs[rhs[dot]]:
                        item = (candidate.index, 0)
                        if item not in seen:
                            seen.add(item)
                            items.append(item)
            return items

        # LR(0) states, kernel items first, numbered in discovery order.
        states: list[list[_Item]] = [closure([(-1, 0)])]
        state_of: dict[frozenset[_Item], int] = {frozenset({(-1, 0)}): 0}
        transitions: list[dict[str, int]] = []
        for items in states:  # grows while iterated
            moves: dict[str, list[_Item]] = {}
            for prod_index, dot in items:
                rhs = productions[prod_index].rhs
                if dot < len(rhs):
                    moves.setdefault(rhs[dot], []).append(
                        (prod_index, dot + 1))
            edges: dict[str, int] = {}
            for symbol in sorted(moves):
                kernel = frozenset(moves[symbol])
                if kernel not in state_of:
                    state_of[kernel] = len(states)
                    states.append(closure(sorted(kernel)))
                edges[symbol] = state_of[kernel]
            transitions.append(edges)

        # One lookahead set per item.  A closure item (B, 0) gets FIRST of
        # what follows B spontaneously, and its parent's set when that is
        # nullable; an item passes its set on along its goto.
        position = [{item: i for i, item in enumerate(items)}
                    for items in states]
        lookaheads: list[list[set[str]]] = [
            [set() for _ in items] for items in states]
        lookaheads[0][0].add(EOF)
        propagate: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for state_no, items in enumerate(states):
            for i, (prod_index, dot) in enumerate(items):
                rhs = productions[prod_index].rhs
                if dot == len(rhs):
                    continue
                symbol = rhs[dot]
                target = transitions[state_no][symbol]
                targets = [(target, position[target][(prod_index, dot + 1)])]
                if symbol in by_lhs:
                    first = self._first_of(rhs[dot + 1:])
                    spontaneous = {t for t in first if t is not None}
                    for candidate in by_lhs[symbol]:
                        j = position[state_no][(candidate.index, 0)]
                        lookaheads[state_no][j] |= spontaneous
                        if None in first:
                            targets.append((state_no, j))
                propagate[(state_no, i)] = targets
        work = [(s, i) for s, sets in enumerate(lookaheads)
                for i, la in enumerate(sets) if la]
        while work:
            state_no, i = work.pop()
            source = lookaheads[state_no][i]
            for target, j in propagate.get((state_no, i), ()):
                dest = lookaheads[target][j]
                if not source <= dest:
                    dest |= source
                    work.append((target, j))

        # Fill ACTION/GOTO.
        self.action = [dict() for _ in states]
        self.goto = [dict() for _ in states]
        for state_no, edges in enumerate(transitions):
            for symbol, target in edges.items():
                if symbol in self._nonterminals:
                    self.goto[state_no][symbol] = target
                else:
                    self.action[state_no][symbol] = ("shift", target)
        for state_no, items in enumerate(states):
            for (prod_index, dot), las in zip(items, lookaheads[state_no]):
                if dot != len(productions[prod_index].rhs):
                    continue
                if prod_index == -1:
                    self._set_action(state_no, EOF, ("accept", 0))
                    continue
                for lookahead in sorted(las):
                    self._set_action(state_no, lookahead,
                                     ("reduce", prod_index))

    def _set_action(self, state_no: int, terminal: str,
                    action: tuple[str, int]) -> None:
        existing = self.action[state_no].get(terminal)
        if existing is not None and existing != action:
            kind_a, kind_b = existing[0], action[0]
            raise GrammarError(
                f"{kind_a}/{kind_b} conflict in state {state_no} "
                f"on {terminal!r}: {existing} vs {action}")
        self.action[state_no][terminal] = action

    def production(self, index: int) -> Production:
        return self._productions[index]


class Parser:
    """Table-driven LALR(1) parser."""

    def __init__(self, tables: ParserTables) -> None:
        self.tables = tables

    def parse(self, tokens: Iterable[Token]) -> object:
        """Parse a token stream (EOF is appended automatically)."""
        stack: list[int] = [0]
        values: list[object] = []
        stream = list(tokens)
        stream.append(Token(EOF, None, stream[-1].pos if stream else 0))
        pos = 0
        while True:
            state = stack[-1]
            token = stream[pos]
            action = self.tables.action[state].get(token.type)
            if action is None:
                expected = sorted(self.tables.action[state])
                raise ParseError(
                    f"unexpected {token.type} "
                    f"({token.value!r}) at offset {token.pos}; "
                    f"expected one of: {', '.join(expected)}")
            kind, arg = action
            if kind == "shift":
                stack.append(arg)
                values.append(token.value)
                pos += 1
            elif kind == "reduce":
                production = self.tables.production(arg)
                arity = len(production.rhs)
                children = values[len(values) - arity:] if arity else []
                del stack[len(stack) - arity:]
                del values[len(values) - arity:]
                result = production.action(*children)
                goto_state = self.tables.goto[stack[-1]].get(production.lhs)
                if goto_state is None:  # pragma: no cover - table invariant
                    raise ParseError(f"no goto for {production.lhs}")
                stack.append(goto_state)
                values.append(result)
            else:  # accept
                return values[-1]


def build_parser(grammar: Grammar) -> Parser:
    """Construct tables (raising :class:`GrammarError` on conflicts)."""
    return Parser(ParserTables(grammar))
