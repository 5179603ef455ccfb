"""Weighted sets: one weight per state, held as the test that carries them.

A ``PSet`` holds the subidentity relation (``relp.PRel``) with the
set's weights on its diagonal, and each operation here is the kernel's
operation on it: on the diagonal, ``r_plus`` and ``r_dot`` are
pair-join and pair-meet pointwise, ``t_complement`` swaps each pair and
``r_leq`` compares pointwise.  Because pair-meet is idempotent, every
power of a set beyond the zeroth collapses onto the set itself, so the
star of any set is the constant-TOP set, the identity relation, which
``r_star`` returns without a search: a test has no edge off the
diagonal.  A ``PSet`` reads as a mapping from state to weight, and
compares equal to a dict with the same entries.  A model holds a test
as the relation alone (see ``plts``), so no other module imports this.
"""

from __future__ import annotations

from collections.abc import Mapping

from .algebra import from_diagonal, identity
from .errors import ShapeError
from .lattice import LatticeId
from .plts import diagonal_to_json
from .relp import PRel, r_dot, r_leq, r_plus, r_star, t_complement, zero
from .twist import Weight


class PSet(Mapping):
    """A total map state -> Weight, aligned with ``states``: the test
    ``relation`` carrying the weights on its diagonal.  Never mutated."""

    __slots__ = ("relation",)

    def __init__(self, lattice: LatticeId, states, weights, values=()):
        """Encode ``weights`` on a table that also holds ``values``."""
        states = tuple(states)
        if len(weights) != len(states):
            raise ShapeError("one weight per state required")
        self.relation = from_diagonal(lattice, states, dict(zip(states, weights)), values)

    @property
    def lattice(self) -> LatticeId:
        return self.relation.lattice

    @property
    def states(self) -> tuple[str, ...]:
        return self.relation.states

    @property
    def weights(self) -> tuple[Weight, ...]:
        n = len(self.states)
        return tuple(map(self.relation.cell, range(0, n * n, n + 1)))

    def value(self, state: str) -> Weight:
        try:
            return self[state]
        except KeyError:
            raise ShapeError(f"unknown state in ({state!r}, {state!r})") from None

    def __getitem__(self, state) -> Weight:
        try:
            return self.relation.cell(self.states.index(state) * (len(self.states) + 1))
        except ValueError:
            raise KeyError(state) from None

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    def __eq__(self, other):
        if isinstance(other, PSet):
            return self.relation == other.relation
        return super().__eq__(other)

    def __hash__(self):
        return hash(self.relation)

    def __repr__(self):
        return f"PSet({self.lattice}, {self.states!r}, {self.weights!r})"


def _from_test(relation: PRel) -> PSet:
    """The set a test relation carries."""
    s = object.__new__(PSet)
    s.relation = relation
    return s


def from_values(
    lattice: LatticeId, states: tuple[str, ...], values: Mapping[str, Weight]
) -> PSet:
    """Total set from a sparse map; missing states get BOT."""
    return _from_test(from_diagonal(lattice, states, values))


def oslash(lattice: LatticeId, states: tuple[str, ...]) -> PSet:
    """The constant-BOT set (the least element)."""
    return _from_test(zero(lattice, states))


def upsilon(lattice: LatticeId, states: tuple[str, ...]) -> PSet:
    """The constant-TOP set (the greatest element)."""
    return _from_test(identity(lattice, states))


def s_plus(a: PSet, b: PSet) -> PSet:
    return _from_test(r_plus(a.relation, b.relation))


def s_dot(a: PSet, b: PSet) -> PSet:
    return _from_test(r_dot(a.relation, b.relation))


def s_complement(a: PSet) -> PSet:
    return _from_test(t_complement(a.relation))


def s_star(a: PSet) -> PSet:
    return _from_test(r_star(a.relation))


def s_subset(a: PSet, b: PSet) -> bool:
    return r_leq(a.relation, b.relation)


def pset_to_json(a: PSet) -> dict:
    """Same shape as a test valuation in the model file format."""
    return diagonal_to_json(a.relation)
