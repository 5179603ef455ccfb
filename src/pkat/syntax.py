"""Term language for guarded programs: grammar, sorts, sugar, printing.

Concrete grammar (ASCII)::

    term  := sum
    sum   := seq {"+" seq}
    seq   := unary {(";" | ".") unary}
    unary := "!" unary | atom {"*"}
    atom  := ident | "0" | "1" | "(" term ")"

``+`` and ``;`` associate to the left; star binds tightest, then ``!``,
then ``;``, then ``+``.  Atom names are identifiers; whether a name is
a test or a program comes from the model's declarations.  ``!`` applies
only to test-sorted subterms and star always yields a program.  The
constants 0 and 1 are tests (they belong to both sorts).
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, TYPE_CHECKING, Union

from .errors import ParseError, SortError
from .record import Record

if TYPE_CHECKING:
    from .plts import Model


class Zero(Record):
    __slots__ = ()


class One(Record):
    __slots__ = ()


class Atom(Record):
    __slots__ = ("name",)


class Plus(Record):
    __slots__ = ("left", "right")


class Dot(Record):
    __slots__ = ("left", "right")


class Star(Record):
    __slots__ = ("inner",)


class Not(Record):
    __slots__ = ("inner",)


Term = Union[Zero, One, Atom, Plus, Dot, Star, Not]


class Sort(Enum):
    TEST = "test"
    PROGRAM = "program"


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SYMBOLS = {
    "+": "PLUS",
    ";": "SEQ",
    ".": "SEQ",
    "*": "STAR",
    "!": "BANG",
    "(": "LPAREN",
    ")": "RPAREN",
    "0": "ZERO",
    "1": "ONE",
}


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    i, line, col = 0, 1, 1
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch.isspace():
            i, col = i + 1, col + 1
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            text = m.group()
            tokens.append(("IDENT", text, line, col))
            i, col = m.end(), col + len(text)
            continue
        kind = _SYMBOLS.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, ch, line, col))
        i, col = i + 1, col + 1
    tokens.append(("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {_show(tok)}", tok[2], tok[3])
        return tok

    def sum_(self) -> Term:
        node = self.seq()
        while self.peek()[0] == "PLUS":
            self.take()
            node = Plus(node, self.seq())
        return node

    def seq(self) -> Term:
        node = self.unary()
        while self.peek()[0] == "SEQ":
            self.take()
            node = Dot(node, self.unary())
        return node

    def unary(self) -> Term:
        if self.peek()[0] == "BANG":
            self.take()
            return Not(self.unary())
        node = self.atom()
        while self.peek()[0] == "STAR":
            self.take()
            node = Star(node)
        return node

    def atom(self) -> Term:
        tok = self.take()
        kind = tok[0]
        if kind == "IDENT":
            return Atom(tok[1])
        if kind == "ZERO":
            return Zero()
        if kind == "ONE":
            return One()
        if kind == "LPAREN":
            node = self.sum_()
            self.expect("RPAREN", "')'")
            return node
        raise ParseError(f"expected a term, found {_show(tok)}", tok[2], tok[3])


def _show(tok) -> str:
    return "end of input" if tok[0] == "EOF" else repr(tok[1])


def parse(src: str) -> Term:
    parser = _Parser(_tokenize(src))
    term = parser.sum_()
    parser.expect("EOF", "end of input")
    return term


def atoms(term: Term) -> frozenset[str]:
    match term:
        case Atom(name):
            return frozenset((name,))
        case Plus(left, right) | Dot(left, right):
            return atoms(left) | atoms(right)
        case Star(inner) | Not(inner):
            return atoms(inner)
        case _:
            return frozenset()


def sort_of(
    term: Term, program_names: Iterable[str], test_names: Iterable[str]
) -> Sort:
    """Sort a term against explicit name declarations."""
    programs = frozenset(program_names)
    tests = frozenset(test_names)

    def walk(t: Term) -> Sort:
        match t:
            case Zero() | One():
                return Sort.TEST
            case Atom(name):
                if name in tests:
                    return Sort.TEST
                if name in programs:
                    return Sort.PROGRAM
                raise SortError(f"undeclared atom {name!r}")
            case Plus(left, right) | Dot(left, right):
                ls, rs = walk(left), walk(right)
                if ls is Sort.TEST and rs is Sort.TEST:
                    return Sort.TEST
                return Sort.PROGRAM
            case Star(inner):
                walk(inner)
                return Sort.PROGRAM
            case Not(inner):
                if walk(inner) is not Sort.TEST:
                    raise SortError("'!' applies only to tests")
                return Sort.TEST
    return walk(term)


def sort_check(term: Term, model: "Model") -> Sort:
    return sort_of(term, model.programs, model.tests)


def desugar_if(cond: Term, then_branch: Term, else_branch: Term) -> Term:
    """if cond then p else q  ==  cond;p + !cond;q"""
    return Plus(Dot(cond, then_branch), Dot(Not(cond), else_branch))


def desugar_while(cond: Term, body: Term) -> Term:
    """while cond do p  ==  (cond;p)*;!cond"""
    return Dot(Star(Dot(cond, body)), Not(cond))


_PREC_PLUS, _PREC_DOT, _PREC_NOT, _PREC_STAR, _PREC_ATOM = 0, 1, 2, 3, 4


def pretty(term: Term) -> str:
    """Minimal parenthesization; ``parse(pretty(t)) == t``."""
    return _render(term, 0)


def _render(term: Term, context: int) -> str:
    match term:
        case Zero():
            text, prec = "0", _PREC_ATOM
        case One():
            text, prec = "1", _PREC_ATOM
        case Atom(name):
            text, prec = name, _PREC_ATOM
        case Star(inner):
            text, prec = f"{_render(inner, _PREC_STAR)}*", _PREC_STAR
        case Not(inner):
            text, prec = f"!{_render(inner, _PREC_NOT)}", _PREC_NOT
        case Dot(left, right):
            text = f"{_render(left, _PREC_DOT)};{_render(right, _PREC_DOT + 1)}"
            prec = _PREC_DOT
        case Plus(left, right):
            text = f"{_render(left, _PREC_PLUS)} + {_render(right, _PREC_PLUS + 1)}"
            prec = _PREC_PLUS
    return f"({text})" if prec < context else text
