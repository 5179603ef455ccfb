"""Term language for guarded programs: grammar, sorts, sugar, printing,
and the compiled meaning of terms over a model.

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

``evaluate`` interprets a term as a weight matrix.  Terms are compiled
to straight-line kernel calls over slots, one per distinct subterm
(``_compile``); ``_fill`` alone runs them, over relations or, with
``bitslice``'s kernels, over a chunk of the instances ``engine`` checks.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from enum import Enum

from .errors import ParseError, ShapeError, SortError, quoted
from .plts import Model, _named_relation
from .record import Record
from .relp import PRel, is_test, r_dot, r_plus, r_star, t_complement, zero


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


Term = Zero | One | Atom | Plus | Dot | Star | Not


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


def _term(args, option: str) -> Term:
    """Parse the term given as ``--option``; a parse error names the option."""
    try:
        return parse(getattr(args, option))
    except ParseError as exc:
        exc.args = (f"--{option}: {exc}",)
        raise


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
                raise SortError(f"undeclared atom {quoted(name)}")
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


def sort_check(term: Term, model: Model) -> Sort:
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


# ---------------------------------------------------------------------------
# Compiled evaluation


def evaluate(term: Term, model: Model) -> PRel:
    """Interpret a term as a weight matrix over the model's states."""
    sort_check(term, model)
    names, steps, (root,) = _compile((term,))
    env = _atom_assignment(model, names)
    zer = zero(model.lattice, model.states, model.values)
    return _fill([zer, *map(env.__getitem__, names)], steps, root)


def _compile(terms, tests=frozenset()) -> tuple:
    """The terms as one straight-line program: their atoms' names, the steps
    and each term's root slot.  Slot 0 holds ``0``, then the atoms,
    alphabetical but those in ``tests`` last; step s, a term type and its
    operands' slots (the second None for ``*`` and ``!``), fills each later
    slot s.  Equal subterms share one slot, and ``1`` compiles as ``!0``."""
    names = sorted(frozenset().union(*map(atoms, terms)), key=lambda x: (x in tests, x))
    steps = [None] * (1 + len(names))
    slot_of = {Zero(): 0, **{Atom(x): s for s, x in enumerate(names, 1)}}

    def slot(term) -> int:  # post-order, so slots are numbered in evaluation order
        match term:
            case One():
                key = (Not, 0, None)
            case Plus(left, right) | Dot(left, right):
                key = (type(term), slot(left), slot(right))
            case Star(inner) | Not(inner):
                key = (type(term), slot(inner), None)
            case _:
                return slot_of[term]
        if key not in slot_of:
            slot_of[key] = len(steps)
            steps.append(key)
        return slot_of[key]

    roots = tuple(map(slot, terms))
    return names, tuple(steps), roots


def _fill(slots: list, steps, root: int, kernels=None):
    """Slot ``root``'s value, running steps not yet run on ``kernels``, else relp's bound now."""
    kernels = kernels or {Dot: r_dot, Plus: r_plus, Star: r_star, Not: t_complement}
    for op, i, j in steps[len(slots):root + 1]:
        kernel = kernels[op]
        slots.append(kernel(slots[i]) if j is None else kernel(slots[i], slots[j]))
    return slots[root]


def _atom_assignment(model: Model, names: Iterable[str]) -> dict[str, PRel]:
    """Each name's relation in ``model``, which must range over its lattice and
    states, and be a subidentity relation if it is a test."""
    env = {name: _named_relation(model, name) for name in sorted(names)}
    for name, rel in env.items():
        if rel.lattice is not model.lattice or rel.states != model.states:
            raise ShapeError(f"relation {quoted(name)} does not range over its model's "
                             f"{model.lattice.value} states")
        if name in model.tests and not is_test(model.tests[name]):
            raise ShapeError(f"test {quoted(name)} is not a subidentity relation")
    return env
