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

The pair operations (``weight``, ``wtop``, ``wbot``, ``wjoin``, ``wmeet``,
``negate``, ``wleq``) live in ``algebra``, which no command loads; this
module resolves them from there (``__getattr__``).
"""

from __future__ import annotations

from enum import Enum

from . import _moved
from .errors import LatticeMismatchError
from .lattice import LatticeElem, LatticeId, elem_to_json, elem_to_text
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

__getattr__ = _moved(__name__, algebra="weight wtop wbot wjoin wmeet negate wleq")
