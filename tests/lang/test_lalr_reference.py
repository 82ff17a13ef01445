"""Differential test: the LR(0)-kernel LALR(1) builder against a reference.

The reference builds the canonical LR(1) item sets and merges states with
equal LR(0) cores — the slow, obviously-correct way to get LALR(1) tables.
On productive grammars both constructions must give the same tables up to
state numbering, and must agree on whether the grammar is rejected.
"""

import random

import pytest

from repro.lang.lalr import EOF, Grammar, GrammarError, ParserTables
from repro.lang.xpath_grammar import xpath_grammar
from repro.query.sqlxml import sql_grammar

from tests.lang.test_lalr import arithmetic_parser


# -- the reference: canonical LR(1), then merge equal cores -----------------

def reference_tables(grammar):
    """ACTION/GOTO lists, raising :class:`GrammarError` on a conflict."""
    nts = grammar.nonterminals
    if grammar.start not in nts:
        raise GrammarError("start symbol has no rules")
    rhs_of = {-1: (grammar.start,)}
    rhs_of.update((p.index, p.rhs) for p in grammar.productions)
    first = {nt: set() for nt in nts}  # None marks a nullable nonterminal

    def first_of(symbols, lookahead):
        out = set()
        for symbol in symbols:
            if symbol not in nts:
                return out | {symbol}
            out |= first[symbol] - {None}
            if None not in first[symbol]:
                return out
        return out | {lookahead}

    changed = True
    while changed:
        changed = False
        for p in grammar.productions:
            before = len(first[p.lhs])
            first[p.lhs] |= first_of(p.rhs, None)
            changed |= len(first[p.lhs]) != before

    def closure(items):
        out, work = set(items), list(items)
        while work:
            prod, dot, la = work.pop()
            rhs = rhs_of[prod]
            if dot < len(rhs) and rhs[dot] in nts:
                for look in first_of(rhs[dot + 1:], la):
                    for q in grammar.productions:
                        item = (q.index, 0, look)
                        if q.lhs == rhs[dot] and item not in out:
                            out.add(item)
                            work.append(item)
        return frozenset(out)

    states = [closure({(-1, 0, EOF)})]
    index_of, edges = {states[0]: 0}, {}
    for number, items in enumerate(states):  # grows while iterated
        symbols = {rhs_of[p][d] for p, d, _ in items if d < len(rhs_of[p])}
        for symbol in sorted(symbols):
            target = closure({(p, d + 1, la) for p, d, la in items
                              if d < len(rhs_of[p]) and rhs_of[p][d] == symbol})
            if target not in index_of:
                index_of[target] = len(states)
                states.append(target)
            edges[number, symbol] = index_of[target]

    core_no, merged = {}, []
    for items in states:
        core = frozenset((p, d) for p, d, _ in items)
        if core not in core_no:
            core_no[core] = len(merged)
            merged.append(set())
        merged[core_no[core]] |= items
    new_no = [core_no[frozenset((p, d) for p, d, _ in items)]
              for items in states]
    action = [{} for _ in merged]
    goto = [{} for _ in merged]
    for (number, symbol), target in edges.items():
        table = goto if symbol in nts else action
        entry = new_no[target] if symbol in nts else ("shift", new_no[target])
        table[new_no[number]][symbol] = entry
    for number, items in enumerate(merged):
        for prod, dot, la in items:
            if dot != len(rhs_of[prod]):
                continue
            entry = ("accept", 0) if prod == -1 else ("reduce", prod)
            if action[number].setdefault(la, entry) != entry:
                raise GrammarError(f"conflict in state {number} on {la!r}")
    return action, goto


# -- comparison --------------------------------------------------------------

def canonical(action, goto):
    """Renumber states by BFS from state 0 over sorted symbols."""
    order = {0: 0}
    queue = [0]
    for state in queue:  # grows while iterated
        targets = {sym: a[1] for sym, a in action[state].items()
                   if a[0] == "shift"}
        targets.update(goto[state])
        for symbol in sorted(targets):
            if targets[symbol] not in order:
                order[targets[symbol]] = len(order)
                queue.append(targets[symbol])
    assert len(order) == len(action), "unreachable states"
    out = []
    for state in queue:
        acts = {sym: (kind, order[arg] if kind == "shift" else arg)
                for sym, (kind, arg) in action[state].items()}
        out.append((acts, {sym: order[t] for sym, t in goto[state].items()}))
    return out


def outcome(build, grammar):
    try:
        action, goto = build(grammar)
    except GrammarError:
        return "rejected"
    return canonical(action, goto)


def build_new(grammar):
    tables = ParserTables(grammar)
    return tables.action, tables.goto


def assert_same(grammar):
    """Both builders agree; returns the new builder's outcome."""
    new = outcome(build_new, grammar)
    assert new == outcome(reference_tables, grammar)
    return new


def grammar_of(start, rules):
    g = Grammar(start)
    for lhs, rhs in rules:
        g.rule(lhs, rhs.split())
    return g


# -- fixed grammars ----------------------------------------------------------

def test_xpath_grammar():
    result = assert_same(xpath_grammar())
    assert result != "rejected"
    assert len(result) == 83


def test_sql_grammar():
    result = assert_same(sql_grammar())
    assert result != "rejected"
    assert len(result) == 193


def test_arithmetic_grammar():
    assert_same(arithmetic_parser().tables.grammar)


@pytest.mark.parametrize("rules", [
    # nullable production
    [("S", "a B c"), ("B", "b"), ("B", "")],
    # LALR(1) but not SLR(1), from test_lalr.py
    [("S", "A a"), ("S", "b A c"), ("S", "d c"), ("S", "b d a"),
     ("A", "d")],
    # ambiguous
    [("E", "E + E"), ("E", "num")],
    # right recursion
    [("S", "a S"), ("S", "b")],
])
def test_grammars_of_test_lalr(rules):
    assert_same(grammar_of(rules[0][0], rules))


def test_missing_start_rule_rejected_by_both():
    assert assert_same(grammar_of("S", [("A", "a")])) == "rejected"


def test_dragon_book_4_55_is_lalr_not_slr():
    """S -> L = R | R, L -> * R | id, R -> L (Dragon book grammar 4.55)."""
    g = grammar_of("S", [("S", "L = R"), ("S", "R"), ("L", "* R"),
                         ("L", "id"), ("R", "L")])
    assert assert_same(g) != "rejected"


def test_lr1_but_not_lalr1_rejected_by_both():
    """Merging the two states holding A -> c. and B -> c. gives a
    reduce/reduce conflict that canonical LR(1) does not have."""
    g = grammar_of("S", [("S", "a A d"), ("S", "b B d"), ("S", "a B e"),
                         ("S", "b A e"), ("A", "c"), ("B", "c")])
    assert assert_same(g) == "rejected"
    with pytest.raises(GrammarError, match="reduce/reduce"):
        ParserTables(g)


# -- random productive grammars ----------------------------------------------

def random_grammar(rng):
    nts = ["S", "A", "B", "C"][:rng.randint(1, 4)]
    symbols = nts + ["a", "b", "c", "d"][:rng.randint(1, 4)]
    g = Grammar("S")
    for nt in nts:
        for _ in range(rng.randint(1, 3)):
            g.rule(nt, [rng.choice(symbols) for _ in range(rng.randint(0, 3))])
    return g


def productive(grammar):
    live = set()
    changed = True
    while changed:
        changed = False
        for p in grammar.productions:
            if p.lhs not in live and all(
                    s in live or s not in grammar.nonterminals for s in p.rhs):
                live.add(p.lhs)
                changed = True
    return live == grammar.nonterminals


def test_random_productive_grammars():
    rng = random.Random(20240)
    compared = accepted = 0
    while compared < 400:
        grammar = random_grammar(rng)
        if not productive(grammar):
            continue
        compared += 1
        accepted += assert_same(grammar) != "rejected"
    # Both halves of the comparison are exercised.
    assert 50 < accepted < 350
