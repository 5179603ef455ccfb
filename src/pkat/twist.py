"""Evidence pairs over a truth-value lattice.

A weight couples evidence for (``tt``) and evidence against (``ff``) an
assertion or a transition.  Pairs are ordered by

    (a, a') <= (b, b')   iff   a <= b  and  a' >= b'

(more support, less opposition).  Join and meet act componentwise, with
the against-side handled dually, and the involution swaps the two
components.  TOP = (1, 0) and BOT = (0, 1) bound the order.

The two evidences are independent: comparing their sum with 1 places a
pair on the vagueness/inconsistency square.  Complementary evidence
(sum exactly 1) is consistent; missing evidence (sum below 1) is vague;
contradicting evidence (sum above 1) is inconsistent.
"""

from __future__ import annotations

from enum import Enum

from .errors import LatticeMismatchError
from .lattice import (
    ElemLike,
    LatticeElem,
    LatticeId,
    bottom,
    elem,
    elem_to_json,
    elem_to_text,
    join,
    leq,
    meet,
    top,
)
from .record import Record


class Weight(Record):
    """Evidence for and against, drawn from one lattice."""

    __slots__ = ("tt", "ff")

    def __init__(self, tt: LatticeElem, ff: LatticeElem):
        if tt.lattice is not ff.lattice:
            raise LatticeMismatchError(
                "both components of a weight must share a lattice"
            )
        object.__setattr__(self, "tt", tt)
        object.__setattr__(self, "ff", ff)

    @property
    def lattice(self) -> LatticeId:
        return self.tt.lattice

    def __repr__(self):
        return f"<{format_weight(self)}>"


class ConsistencyClass(Enum):
    CONSISTENT = "consistent"
    VAGUE = "vague"
    INCONSISTENT = "inconsistent"


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


def classify(x: Weight) -> ConsistencyClass:
    """Place a weight on the vagueness/inconsistency square.

    All built-in lattices embed into [0, 1] (the chain as 0, 1/2, 1),
    so the classification compares tt + ff with 1.
    """
    total = x.tt.value + x.ff.value
    if total > 1:
        return ConsistencyClass.INCONSISTENT
    if total < 1:
        return ConsistencyClass.VAGUE
    return ConsistencyClass.CONSISTENT


def format_weight(x: Weight, unicode: bool = False) -> str:
    return f"({elem_to_text(x.tt, unicode)},{elem_to_text(x.ff, unicode)})"


def weight_to_json(x: Weight) -> list:
    return [elem_to_json(x.tt), elem_to_json(x.ff)]
