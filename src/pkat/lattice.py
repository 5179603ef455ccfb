"""Truth-value lattices: complete Heyting algebras on linear carriers.

Three instances are provided, all linearly ordered: the two-element
Boolean algebra, the three-valued chain bot < u < top, and the unit
interval under min/max.  Every value is held as an exact ``Fraction``
so equality and order are decidable.  The finite lattices are the table
``_FINITE``; ``_elem_from_text`` is the one parser of value text, and it
never builds a power of ten beyond ``_MAX_DIGITS`` digits.

On a chain, meet and join are min and max, and the residuum of meet is

    a -> b  =  1  if a <= b,  else  b

which is the greatest c with meet(a, c) <= b.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import CarrierError, LatticeMismatchError
from .record import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LatticeId(Enum):
    """Selects one of the built-in truth-value lattices."""

    BOOL2 = "bool2"
    LUKASIEWICZ3 = "lukasiewicz3"
    GODEL = "godel"

    @classmethod
    def from_name(cls, name: str) -> "LatticeId":
        for member in cls:
            if member.value == name:
                return member
        raise CarrierError(f"unknown lattice {name!r}")


# Each finite lattice's values, bottom first, with their spellings: a value
# prints as its first, under ``--unicode`` as its last, and reads from any.
_FINITE = {
    LatticeId.BOOL2: ((_ZERO, "0"), (_ONE, "1")),
    LatticeId.LUKASIEWICZ3: ((_ZERO, "bot", "⊥"), (Fraction(1, 2), "u"), (_ONE, "top", "⊤")),
}

_VALUES = {lid: tuple(row[0] for row in rows) for lid, rows in _FINITE.items()}

# Text spellings accepted for the bounds in every lattice.
_BOUND_TEXT = {"bot": _ZERO, "top": _ONE, "⊥": _ZERO, "⊤": _ONE}

_MAX_DIGITS = 4300  # Python's default int/str limit: every value read prints again


class LatticeElem(Record):
    """A truth value tagged with the lattice it belongs to."""

    __slots__ = ("lattice", "value")

    def __init__(self, lattice: LatticeId, value: Fraction):
        if not isinstance(value, Fraction):
            raise CarrierError(f"lattice values must be exact rationals, got {value!r}")
        if lattice in _VALUES:
            if value not in _VALUES[lattice]:
                raise CarrierError(f"{_fraction_text(value)!r} is not a {lattice.value} value")
        elif not (0 <= value.numerator <= value.denominator):
            raise CarrierError(f"{_fraction_text(value)!r} lies outside [0, 1]")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "value", value)

    def __repr__(self):
        return f"<{self.lattice.value}:{elem_to_text(self)}>"


ElemLike = Union[LatticeElem, Fraction, int, str]


def elem(lattice: LatticeId, value: ElemLike) -> LatticeElem:
    """Build an element from text, an int, or an exact rational."""
    if isinstance(value, LatticeElem):
        if value.lattice is not lattice:
            raise LatticeMismatchError(
                f"{value!r} does not belong to {lattice.value}"
            )
        return value
    if isinstance(value, float):
        raise CarrierError(
            f"refusing inexact float {value!r}; pass a decimal string instead"
        )
    if isinstance(value, str):
        return _elem_from_text(lattice, value)
    try:
        exact = Fraction(value)
    except TypeError as exc:
        raise CarrierError(f"{value!r} is not a lattice value") from exc
    return LatticeElem(lattice, exact)


def _elem_from_text(lattice: LatticeId, text: str) -> LatticeElem:
    """The value ``text`` spells.  Past ``_MAX_DIGITS``, an exponent is decided
    from the mantissa alone: zero gives 0, anything else is refused."""
    text = text.strip()
    if text in _SPELLED.get(lattice, ()):
        return _SPELLED[lattice][text]
    if text in _BOUND_TEXT:
        return LatticeElem(lattice, _BOUND_TEXT[text])
    if lattice in _FINITE:
        raise CarrierError(f"{text!r} is not one of {', '.join(r[1] for r in _FINITE[lattice])}")
    if len(text) > _MAX_DIGITS:
        raise CarrierError(f"value text of {len(text)} characters exceeds {_MAX_DIGITS}")
    mantissa, _, exponent = text.lower().partition("e")
    try:
        huge = exponent and abs(int(exponent)) > _MAX_DIGITS
        value = Fraction(mantissa if huge else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CarrierError(f"{text!r} is not a decimal or rational in [0, 1]") from exc
    if huge and value and int(exponent) < 0:
        raise CarrierError(f"{text!r} has more than {_MAX_DIGITS} digits")
    if huge and value or not 0 <= value.numerator <= value.denominator:
        raise CarrierError(f"{text!r} lies outside [0, 1]")
    return LatticeElem(lattice, value)


# The finite lattices' elements by spelling, built once.
_SPELLED = {lid: {s: LatticeElem(lid, row[0]) for row in rows for s in row[1:]}
            for lid, rows in _FINITE.items()}
_BOTTOMS = {lid: LatticeElem(lid, _ZERO) for lid in LatticeId}
_TOPS = {lid: LatticeElem(lid, _ONE) for lid in LatticeId}


def bottom(lattice: LatticeId) -> LatticeElem:
    return _BOTTOMS[lattice]


def top(lattice: LatticeId) -> LatticeElem:
    return _TOPS[lattice]


def carrier(lattice: LatticeId) -> tuple[LatticeElem, ...]:
    """All elements of a finite lattice, in ascending order."""
    if lattice not in _FINITE:
        raise CarrierError("the interval lattice has no finite carrier; pick a grid")
    return tuple(LatticeElem(lattice, value) for value in _VALUES[lattice])


def _require_same(a: LatticeElem, b: LatticeElem) -> None:
    if a.lattice is not b.lattice:
        raise LatticeMismatchError(
            f"cannot combine {a.lattice.value} with {b.lattice.value}"
        )


def _le(p: Fraction, q: Fraction) -> bool:
    """``p <= q`` by cross-multiplication.

    Fraction keeps its denominator positive, so this is exact; it skips
    the generic numeric dispatch of ``Fraction.__le__``, which dominates
    the cost of every lattice operation below.
    """
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


def _fraction_text(q: Fraction) -> str:
    """Exact decimal when the denominator divides a power of ten, else n/d."""
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{q.numerator}/{q.denominator}"
    k = max(twos, fives)
    digits = str(q.numerator * 10**k // q.denominator).rjust(k + 1, "0")
    return digits if k == 0 else f"{digits[:-k]}.{digits[-k:]}"


def elem_to_text(e: LatticeElem, unicode: bool = False) -> str:
    if e.lattice not in _VALUES:
        return _fraction_text(e.value)
    row = _FINITE[e.lattice][_VALUES[e.lattice].index(e.value)]
    return row[-1] if unicode else row[1]


def elem_to_json(e: LatticeElem) -> int | str:
    """JSON form: Boolean values as 0/1 numbers, everything else as text."""
    if e.lattice is LatticeId.BOOL2:
        return int(e.value)
    return elem_to_text(e)
