"""Temporal-formula frontend: a restricted fragment compiled to reward machines.

The fragment covers the three task patterns used throughout the package:

* visit:            ``F(a)``
* sequenced visit:  ``F(a & F(b & ...))``
* global avoidance: ``G(!c)`` or ``G(!c & !d)``

joined by top-level conjunction, e.g. ``F(a) & F(b) & G(!c)``.  Negation is
only allowed immediately above atoms inside ``G``; disjunction, ``Until``
and ``Next`` are out of scope.  Symbols are mutually exclusive (one per
time step), which is what lets sequenced visits compile to plain chains.

:func:`compile_formula` builds per-pattern template acceptors, combines
them with synchronized products, and ends in minimization and potential
shaping.  F(...) may nest at most 100 levels deep (``_MAX_F_DEPTH``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    ACCEPTOR_CLASSES,
    MooreMachine,
    minimize,
    product_conjunction,
    shape_rewards,
)
from .errors import FormulaSyntaxError, InputError, UnsupportedConstructError

__all__ = [
    "Atom",
    "Not",
    "And",
    "Eventually",
    "Globally",
    "parse",
    "compile_formula",
    "TASK_ALPHABET",
    "TASK_FORMULAS",
]

# The eight benchmark tasks, all over one five-symbol alphabet whose last
# symbol marks the empty cell.  Tasks 1-4 conjoin visit patterns; tasks 5-8
# add global avoidance.
TASK_ALPHABET = ("a", "b", "c", "d", "e")
TASK_FORMULAS = {
    1: "F(a) & F(b)",
    2: "F(a) & F(b) & F(c)",
    3: "F(a & F(b))",
    4: "F(a & F(b)) & F(c)",
    5: "F(a) & F(b) & G(!c)",
    6: "F(a) & F(b) & G(!c) & G(!d)",
    7: "F(a & F(b)) & G(!c)",
    8: "F(a & F(b)) & G(!c) & G(!d)",
}


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    body: Atom


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Eventually:
    body: object


@dataclass(frozen=True)
class Globally:
    body: object


# ---------------------------------------------------------------------------
# Parsing

_PUNCT = {"&", "!", "(", ")"}
_MAX_F_DEPTH = 100  # F(...) nesting accepted; parsing and compiling recurse once per level


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open F(...) levels

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", at)

    def formula(self):
        terms = [self.term()]
        while self.peek()[1] == "&":
            self.next()
            terms.append(self.term())
        kind, val, at = self.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing {val!r}", at)
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def term(self):
        kind, val, at = self.next()
        if kind == "name" and val == "F" and self.peek()[1] == "(":
            return self.eventually()
        if kind == "name" and val == "G" and self.peek()[1] == "(":
            self.expect("(")
            body = self.g_body()
            self.expect(")")
            return Globally(body)
        if kind == "name":
            raise UnsupportedConstructError(
                f"bare atom {val!r} outside F/G is not supported"
            )
        if val == "!":
            raise UnsupportedConstructError("negation is only supported inside G(...)")
        raise FormulaSyntaxError(f"expected F(...), G(...) or atom, found {val or 'end of input'!r}", at)

    def eventually(self):
        """``F(body)`` after its ``F`` token."""
        self.depth += 1
        if self.depth > _MAX_F_DEPTH:
            raise UnsupportedConstructError(f"F(...) nested more than {_MAX_F_DEPTH} deep is not supported")
        self.expect("(")
        body = self.f_body()
        self.expect(")")
        self.depth -= 1
        return Eventually(body)

    def f_body(self):
        # atom | nested F-chain | atom & F-chain (either order)
        parts = [self.f_part()]
        while self.peek()[1] == "&":
            self.next()
            parts.append(self.f_part())
        atoms = [p for p in parts if isinstance(p, Atom)]
        chains = [p for p in parts if isinstance(p, Eventually)]
        if len(atoms) > 1:
            raise UnsupportedConstructError(
                "F body may conjoin at most one atom with a nested F chain"
            )
        if len(chains) > 1:
            raise UnsupportedConstructError("F body may contain at most one nested F chain")
        if atoms and chains:
            return And((atoms[0], chains[0]))
        return parts[0]

    def f_part(self):
        kind, val, at = self.peek()
        if kind == "name" and val == "F" and self._lookahead_is_paren():
            self.next()
            return self.eventually()
        if kind == "name":
            self.next()
            return Atom(val)
        if val == "!":
            raise UnsupportedConstructError("negation is only supported inside G(...)")
        raise FormulaSyntaxError(f"expected atom or F(...), found {val or 'end of input'!r}", at)

    def _lookahead_is_paren(self):
        return self.pos + 1 < len(self.tokens) and self.tokens[self.pos + 1][1] == "("

    def g_body(self):
        lits = [self.g_literal()]
        while self.peek()[1] == "&":
            self.next()
            lits.append(self.g_literal())
        return lits[0] if len(lits) == 1 else And(tuple(lits))

    def g_literal(self):
        kind, val, at = self.next()
        if val == "!":
            kind, name, at = self.next()
            if kind != "name":
                raise FormulaSyntaxError("expected atom after '!'", at)
            return Not(Atom(name))
        if kind == "name":
            raise UnsupportedConstructError(
                f"positive atom {val!r} under G is not supported (only G(!p & ...))"
            )
        raise FormulaSyntaxError(f"expected '!atom' in G body, found {val or 'end of input'!r}", at)


def parse(text: str):
    """Parse formula text into an AST, rejecting anything outside the fragment."""
    return _Parser(text).formula()


def _top_terms(formula) -> tuple:
    return formula.items if isinstance(formula, And) else (formula,)


def _atoms(node) -> set[str]:
    if isinstance(node, Atom):
        return {node.name}
    if isinstance(node, Not):
        return {node.body.name}
    if isinstance(node, And):
        return set().union(*(_atoms(i) for i in node.items))
    return _atoms(node.body)


# ---------------------------------------------------------------------------
# Pattern templates + synchronized product


def _chain_symbols(term: Eventually) -> list[str]:
    """Flatten F(p1 & F(p2 & ...)) into [p1, p2, ...]."""
    body = term.body
    if isinstance(body, Atom):
        return [body.name]
    if isinstance(body, Eventually):
        return _chain_symbols(body)
    if isinstance(body, And):
        atom = next(i for i in body.items if isinstance(i, Atom))
        chain = next(i for i in body.items if isinstance(i, Eventually))
        return [atom.name] + _chain_symbols(chain)
    raise UnsupportedConstructError(f"unsupported F body: {body!r}")


def _visit_chain_template(chain: list[str], alphabet: tuple[str, ...]) -> MooreMachine:
    """Chain acceptor: state i has discharged the first i visits.

    Because symbols are mutually exclusive, a nested F is evaluated at the
    instant its guard atom fires, so a symbol may discharge several
    consecutive chain positions when they repeat the same symbol.
    """
    idx = [alphabet.index(s) for s in chain]
    n = len(chain) + 1
    trans = []
    for i in range(n):
        row = []
        for p in range(len(alphabet)):
            j = i
            while j < len(chain) and idx[j] == p:
                j += 1
            row.append(j)
        trans.append(tuple(row))
    outputs = tuple(int(i == len(chain)) for i in range(n))
    return MooreMachine(alphabet, tuple(trans), outputs, ACCEPTOR_CLASSES)


def _avoid_template(names: list[str], alphabet: tuple[str, ...]) -> MooreMachine:
    bad = {alphabet.index(s) for s in names}
    row0 = tuple(1 if p in bad else 0 for p in range(len(alphabet)))
    return MooreMachine(alphabet, (row0, tuple(1 for _ in alphabet)), (1, 0), ACCEPTOR_CLASSES)


def _term_template(term, alphabet: tuple[str, ...]) -> MooreMachine:
    if isinstance(term, Eventually):
        return _visit_chain_template(_chain_symbols(term), alphabet)
    if isinstance(term, Globally):
        body = term.body
        lits = body.items if isinstance(body, And) else (body,)
        return _avoid_template([l.body.name for l in lits], alphabet)
    raise UnsupportedConstructError(f"unsupported top-level term: {term!r}")


def _check_alphabet(formula, alphabet) -> tuple[str, ...]:
    alphabet = tuple(alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise InputError("alphabet contains duplicates")
    missing = _atoms(formula) - set(alphabet)
    if missing:
        raise InputError(f"formula atoms {sorted(missing)} not in alphabet {alphabet}")
    return alphabet


def compile_formula(formula, alphabet) -> MooreMachine:
    """Compile a formula (AST or text) to a canonical reward machine.

    Per-pattern template acceptors are conjoined with synchronized products,
    minimized, shaped into potential levels, and minimized once more so the
    result is canonical.
    """
    if isinstance(formula, str):
        formula = parse(formula)
    alphabet = _check_alphabet(formula, alphabet)
    acceptor = None
    for term in _top_terms(formula):
        t = _term_template(term, alphabet)
        acceptor = t if acceptor is None else product_conjunction(acceptor, t)
    return minimize(shape_rewards(minimize(acceptor)))
