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

Text that does not parse raises a ``ParseError`` giving the 1-based line
and column of the token where parsing stopped (or of the first character
that starts no token), each character counting as one column.
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


_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|([+;.*!()01]))")


def _error(src: str, at: int, message: str) -> ParseError:
    """The error at offset ``at``, with its 1-based line and column."""
    return ParseError(message, src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at))


def parse(src: str) -> Term:
    tokens, at = [], 0  # (kind, text, offset); "." has kind ";"
    while m := _TOKEN.match(src, at):
        group, at = m.lastindex, m.end()
        text = m[group]
        kind = "ident" if group == 1 else ";" if text == "." else text
        tokens.append((kind, text, at - len(text)))
    rest = src[at:].lstrip()
    if rest:
        raise _error(src, len(src) - len(rest), f"unexpected character {rest[0]!r}")
    tokens.append(("", "", len(src)))  # end of input
    tokens.reverse()  # a stack: the next token is last
    term = _sum(tokens, src)
    if tokens[-1][0]:
        raise _expected("end of input", tokens[-1], src)
    return term


def _expected(what: str, tok: tuple[str, str, int], src: str) -> ParseError:
    kind, text, at = tok
    return _error(src, at, f"expected {what}, found {repr(text) if kind else 'end of input'}")


def _sum(tokens: list, src: str) -> Term:
    node = _seq(tokens, src)
    while tokens[-1][0] == "+":
        tokens.pop()
        node = Plus(node, _seq(tokens, src))
    return node


def _seq(tokens: list, src: str) -> Term:
    node = _unary(tokens, src)
    while tokens[-1][0] == ";":
        tokens.pop()
        node = Dot(node, _unary(tokens, src))
    return node


def _unary(tokens: list, src: str) -> Term:
    tok = tokens.pop()
    kind = tok[0]
    if kind == "!":
        return Not(_unary(tokens, src))
    if kind == "ident":
        node = Atom(tok[1])
    elif kind == "0":
        node = Zero()
    elif kind == "1":
        node = One()
    elif kind == "(":
        node = _sum(tokens, src)
        if tokens[-1][0] != ")":
            raise _expected("')'", tokens[-1], src)
        tokens.pop()
    else:
        raise _expected("a term", tok, src)
    while tokens[-1][0] == "*":
        tokens.pop()
        node = Star(node)
    return node


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
