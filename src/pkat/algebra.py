"""The paper's operations on single values, pairs and relations, as objects.

Heyting operations on ``LatticeElem``s, the twist-structure operations
on ``Weight``s, relations built from weight maps, and a model's tests
read as relations or as one weight.  The checker never runs these: it
runs their cut-bit form in ``relp`` and ``bitslice``.  So no command
loads this module; ``setp`` and the API do, and ``lattice``, ``twist``,
``relp`` and ``plts`` resolve the names below that they once held
through the module ``__getattr__`` (PEP 562) that ``pkat._moved`` makes,
which binds each in the module on first use.

On a chain, meet and join are min and max, and the residuum of meet is

    a -> b  =  1  if a <= b,  else  b

which is the greatest c with meet(a, c) <= b.  The pair order and its
operations are those ``twist`` describes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import LatticeMismatchError, ModelError, ShapeError, quoted
from .lattice import ElemLike, LatticeElem, LatticeId, bottom, elem, top
from .plts import Model
from .relp import PRel, _apply, _check_states, _not, from_cells, value_table, zero
from .twist import Weight


def _require_same(a: LatticeElem, b: LatticeElem) -> None:
    if a.lattice is not b.lattice:
        raise LatticeMismatchError(
            f"cannot combine {a.lattice.value} with {b.lattice.value}"
        )


def _le(p: Fraction, q: Fraction) -> bool:
    """``p <= q`` by cross-multiplication, exact since Fraction keeps its
    denominator positive; the generic dispatch of ``Fraction.__le__``
    would dominate the cost of every lattice operation below."""
    return p is q or p.numerator * q.denominator <= q.numerator * p.denominator


def meet(a: LatticeElem, b: LatticeElem) -> LatticeElem:
    """Greatest lower bound (min on the chain)."""
    _require_same(a, b)
    return a if _le(a.value, b.value) else b


def join(a: LatticeElem, b: LatticeElem) -> LatticeElem:
    """Least upper bound (max on the chain)."""
    _require_same(a, b)
    return b if _le(a.value, b.value) else a


def leq(a: LatticeElem, b: LatticeElem) -> bool:
    _require_same(a, b)
    return _le(a.value, b.value)


def implies(a: LatticeElem, b: LatticeElem) -> LatticeElem:
    """Residuum of meet: the greatest c with meet(a, c) <= b."""
    _require_same(a, b)
    return top(a.lattice) if _le(a.value, b.value) else b


def big_join(lattice: LatticeId, elems: Iterable[LatticeElem]) -> LatticeElem:
    """Supremum of a finite set; empty set gives the bottom."""
    out = bottom(lattice)
    for e in elems:
        out = join(out, e)
    return out


def big_meet(lattice: LatticeId, elems: Iterable[LatticeElem]) -> LatticeElem:
    """Infimum of a finite set; empty set gives the top."""
    out = top(lattice)
    for e in elems:
        out = meet(out, e)
    return out


def weight(lattice: LatticeId, tt: ElemLike, ff: ElemLike) -> Weight:
    return Weight(elem(lattice, tt), elem(lattice, ff))


def wtop(lattice: LatticeId) -> Weight:
    """Full evidence for, none against: the greatest weight."""
    return Weight(top(lattice), bottom(lattice))


def wbot(lattice: LatticeId) -> Weight:
    """No evidence for, full evidence against: the least weight."""
    return Weight(bottom(lattice), top(lattice))


def wjoin(x: Weight, y: Weight) -> Weight:
    """Componentwise: join the support, meet the opposition."""
    return Weight(join(x.tt, y.tt), meet(x.ff, y.ff))


def wmeet(x: Weight, y: Weight) -> Weight:
    """Componentwise: meet the support, join the opposition."""
    return Weight(meet(x.tt, y.tt), join(x.ff, y.ff))


def negate(x: Weight) -> Weight:
    """Swap evidence for with evidence against (an involution)."""
    return Weight(x.ff, x.tt)


def wleq(x: Weight, y: Weight) -> bool:
    return leq(x.tt, y.tt) and leq(y.ff, x.ff)


def from_entries(
    lattice: LatticeId, states, entries: Mapping[tuple[str, str], Weight], values=()
) -> PRel:
    """Total relation from a sparse entry map; missing pairs get BOT.  Only
    the listed entries are encoded; every other cell is BOT."""
    states = tuple(states)
    index = {s: i for i, s in enumerate(states)}
    for u, v in entries:
        if u not in index or v not in index:
            raise ShapeError(f"entry ({u!r}, {v!r}) names an unknown state")
    _check_states(states)
    if any(w.lattice is not lattice for w in entries.values()):
        raise ShapeError("entry weight from a different lattice")
    n = len(states)
    cells = {index[u] * n + index[v]: (w.tt.value, w.ff.value) for (u, v), w in entries.items()}
    table = value_table([*values, *(x for pair in cells.values() for x in pair)])
    return from_cells(lattice, states, table, cells, {v: i for i, v in enumerate(table)})


def identity(lattice: LatticeId, states: tuple[str, ...]) -> PRel:
    """TOP on the diagonal, BOT elsewhere, on the table {0, 1}: !0."""
    return _apply(_not, zero(lattice, states))


def from_diagonal(lattice: LatticeId, states, diagonal: Mapping[str, Weight], values=()) -> PRel:
    """The test carrying ``diagonal``; missing states get BOT."""
    return from_entries(lattice, states, {(u, u): w for u, w in diagonal.items()}, values)


def valuation(m: Model, prop: str, state: str) -> Weight:
    """The stored (for, against) pair of a test at a state."""
    if prop not in m.tests:
        raise ModelError(f"unknown proposition {prop!r}")
    if state not in m.states:
        raise ModelError(f"unknown state {state!r}")
    return m.tests[prop].entry(state, state)


def diagonal_relation(m: Model, name: str) -> PRel:
    """The subidentity matrix of a test."""
    if name not in m.tests:
        raise ModelError(f"unknown test {quoted(name)}")
    return m.tests[name]
