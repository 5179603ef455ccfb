"""Weight matrices over a state space: the relational program algebra.

A relation assigns a weight to every ordered pair of states (stored
row-major).  Addition is entrywise pair-join; composition aggregates
pair-meets over intermediate states; star is the least solution of
``S = 1 + R.S``, the join of all powers of R.

On a chain, pair-join is max on the support and min on the opposition
(pair-meet the reverse), so no operation makes a value its operands did
not hold.  A relation therefore keeps ``values``, a sorted table of
exact rationals that always holds 0 and 1, and two flat row-major
tuples ``tt`` and ``ff`` of integer ranks into it; every operation here
works on the ranks alone.  Relations built together share one table,
and operands on different tables are lifted to their merged table
first.  Weights are decoded only at the boundary: ``cell`` and ``entry``
decode one cell, and ``cell_forms`` (behind ``weights``, ``pairs`` and
the exporters below) one weight per distinct rank pair.

On ranks the star's support is the (max, min) reflexive-transitive
closure: a cell holds the highest cut t at which a breadth-first search
over the row bitsets of [tt >= t] reaches its target from its source.
The opposition is the same closure of ``top - ff``.  The rounds
``S = 1 + R.S`` takes from the identity to its fixpoint, which
``r_star_steps`` reports, are one more than the deepest search level.

Tests are the subidentity matrices: everything off the diagonal is the
least weight.  Complementing a test swaps evidence on the diagonal
only, which keeps the result subidentity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import ge, le
from typing import Iterable, Iterator, Mapping

from .errors import ShapeError, SortError
from .lattice import LatticeElem, LatticeId
from .twist import Weight, format_weight, weight_to_json


def value_table(values: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """The sorted table holding ``values``, 0 and 1."""
    return tuple(sorted({*values, Fraction(0), Fraction(1)}))


def _check_states(states: tuple[str, ...]) -> None:
    if not states:
        raise ShapeError("a relation needs a nonempty state set")
    if len(set(states)) != len(states):
        raise ShapeError("duplicate state name")


class PRel:
    """A total map (state, state) -> Weight, row-major over ``states``,
    held as ``tt``/``ff`` ranks into the table ``values``.  Never mutated:
    relations are shared, and equal relations hash alike."""

    __slots__ = ("lattice", "states", "values", "tt", "ff")

    def __new__(cls, lattice: LatticeId, states, weights, values=()):
        """Encode ``weights`` on a table that also holds ``values``."""
        states, n = tuple(states), len(states)
        _check_states(states)
        if len(weights) != n * n:
            raise ShapeError(f"expected {n * n} entries for {n} states, got {len(weights)}")
        return from_entries(lattice, states, dict(zip(product(states, repeat=2), weights)), values)

    def __eq__(self, other):
        if not isinstance(other, PRel):
            return NotImplemented
        if self.lattice is not other.lattice or self.states != other.states:
            return False
        r, s = align(self, other)
        return r.tt == s.tt and r.ff == s.ff

    def __hash__(self):
        decoded = (tuple(map(self.values.__getitem__, ranks)) for ranks in (self.tt, self.ff))
        return hash((self.lattice, self.states, *decoded))

    def __repr__(self):
        return f"PRel({self.lattice}, {self.states!r}, {self.weights!r})"

    @property
    def weights(self) -> tuple[Weight, ...]:
        return tuple(cell_forms(self, lambda w: w))

    def cell(self, k: int) -> Weight:
        """The weight of row-major cell ``k``."""
        support, opposition = (self.values[ranks[k]] for ranks in (self.tt, self.ff))
        return Weight(LatticeElem(self.lattice, support), LatticeElem(self.lattice, opposition))

    def entry(self, u: str, v: str) -> Weight:
        n = len(self.states)
        try:
            return self.cell(self.states.index(u) * n + self.states.index(v))
        except ValueError as exc:
            raise ShapeError(f"unknown state in ({u!r}, {v!r})") from exc

    def pairs(self, form=lambda w: w) -> Iterator[tuple[tuple[str, str], Weight]]:
        """Each cell's (u, v) and weight, or ``form`` of its weight (see ``cell_forms``)."""
        return zip(product(self.states, repeat=2), cell_forms(self, form))


def from_ranks(lattice: LatticeId, states, values, tt, ff) -> PRel:
    """A relation straight from ranks into a table made by ``value_table``."""
    r = object.__new__(PRel)
    r.lattice, r.states, r.values, r.tt, r.ff = lattice, states, values, tt, ff
    return r


def from_entries(
    lattice: LatticeId, states, entries: Mapping[tuple[str, str], Weight], values=()
) -> PRel:
    """Total relation from a sparse entry map; missing pairs get BOT.  Only
    the listed entries are encoded; every other cell takes the BOT ranks."""
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


def from_cells(lattice: LatticeId, states, table, cells: Mapping[int, tuple], rank) -> PRel:
    """The relation on ``table`` whose row-major cell k holds ranks ``rank[t]``
    and ``rank[f]`` for ``cells[k] == (t, f)``; every other cell holds BOT."""
    n = len(states)
    tt, ff = [0] * (n * n), [len(table) - 1] * (n * n)
    for k, (t, f) in cells.items():
        tt[k], ff[k] = rank[t], rank[f]
    return from_ranks(lattice, states, table, tuple(tt), tuple(ff))


def identity(lattice: LatticeId, states: tuple[str, ...], values=()) -> PRel:
    """TOP on the diagonal, BOT elsewhere, on the table holding ``values``."""
    states, table = tuple(states), value_table(values)
    _check_states(states)
    n, top = len(states), len(table) - 1
    tt = tuple(top if k % (n + 1) == 0 else 0 for k in range(n * n))
    return from_ranks(lattice, states, table, tt, tuple(top - t for t in tt))


def zero(lattice: LatticeId, states: tuple[str, ...], values=()) -> PRel:
    states, table = tuple(states), value_table(values)
    _check_states(states)
    n, top = len(states), len(table) - 1
    return from_ranks(lattice, states, table, (0,) * n * n, (top,) * n * n)


def _lift(r: PRel, table: tuple) -> PRel:
    if r.values == table:
        return r
    rank = {v: i for i, v in enumerate(table)}
    m = [rank[v] for v in r.values]
    return from_ranks(r.lattice, r.states, table, tuple(map(m.__getitem__, r.tt)),
                      tuple(map(m.__getitem__, r.ff)))


def align(r: PRel, s: PRel) -> tuple[PRel, PRel]:
    """Both operands on one table, after checking they are compatible."""
    if r.lattice is not s.lattice:
        raise ShapeError(f"cannot combine {r.lattice.value} with {s.lattice.value} relations")
    if r.states != s.states:
        raise ShapeError("relations range over different state spaces")
    if r.values == s.values:
        return r, s
    table = value_table((*r.values, *s.values))
    return _lift(r, table), _lift(s, table)


def _product(a: tuple, b: tuple, n: int, add, mul) -> tuple:
    """Row-major n x n product: ``add`` over k of ``mul(a[i,k], b[k,j])``."""
    rows = [a[i:i + n] for i in range(0, n * n, n)]
    cols = [b[j::n] for j in range(n)]
    return tuple(add(map(mul, row, col)) for row in rows for col in cols)


def r_plus(r: PRel, s: PRel) -> PRel:
    r, s = align(r, s)
    return from_ranks(r.lattice, r.states, r.values, tuple(map(max, r.tt, s.tt)),
                      tuple(map(min, r.ff, s.ff)))


def r_dot(r: PRel, s: PRel) -> PRel:
    r, s = align(r, s)
    n = len(r.states)
    return from_ranks(r.lattice, r.states, r.values,
                      _product(r.tt, s.tt, n, max, min), _product(r.ff, s.ff, n, min, max))


def r_star(r: PRel) -> PRel:
    result, _ = r_star_steps(r)
    return result


def r_star_steps(r: PRel) -> tuple[PRel, int]:
    """Star together with the rounds ``S = 1 + R.S`` takes from 1 to its fixpoint."""
    n, top = len(r.states), len(r.values) - 1
    tt, tt_depth = _closure(r.tt, n, top)
    ff, ff_depth = _closure([top - f for f in r.ff], n, top)
    star = from_ranks(r.lattice, r.states, r.values, tuple(tt), tuple(top - f for f in ff))
    return star, 1 + max(tt_depth, ff_depth)


def _closure(ranks, n: int, top: int) -> tuple[list, int]:
    """The (max, min) reflexive-transitive closure of row-major ``ranks`` and
    the deepest level any search reaches.  Cuts descend, so a cell takes the
    first cut that reaches it; a lower cut only shortens paths, so that
    level is one at which a cell took its final value."""
    out, depth, full = [0] * (n * n), 0, (1 << n) - 1
    out[::n + 1] = [top] * n
    rows = [1 << i for i in range(n)]
    seen = rows[:]
    cuts = {}
    for k, t in enumerate(ranks):
        if t and k % (n + 1):
            cuts.setdefault(t, []).append(k)
    for t in sorted(cuts, reverse=True):
        for k in cuts[t]:
            rows[k // n] |= 1 << k % n
        for i, old in enumerate(seen):
            if old == full:
                continue
            reach = front = 1 << i
            level = -1
            while front:
                level, nxt = level + 1, 0
                while front:
                    low = front & -front
                    nxt |= rows[low.bit_length() - 1]
                    front ^= low
                front = nxt & ~reach
                reach |= front
            depth = max(depth, level)
            new, seen[i] = reach & ~old, reach
            while new:
                low = new & -new
                out[i * n + low.bit_length() - 1] = t
                new ^= low
    return out, depth


def r_leq(r: PRel, s: PRel) -> bool:
    r, s = align(r, s)
    return all(map(le, r.tt, s.tt)) and all(map(ge, r.ff, s.ff))


def is_test(r: PRel) -> bool:
    """True when every off-diagonal entry is the least weight."""
    n, top = len(r.states), len(r.values) - 1
    return all(r.tt[k] == 0 and r.ff[k] == top for k in range(n * n) if k % (n + 1))


def t_complement(t: PRel) -> PRel:
    """Swap evidence on the diagonal; off-diagonal entries stay BOT."""
    if not is_test(t):
        raise SortError("complement is defined on tests (subidentity relations)")
    step = len(t.states) + 1
    tt, ff = list(t.tt), list(t.ff)
    tt[::step], ff[::step] = t.ff[::step], t.tt[::step]
    return from_ranks(t.lattice, t.states, t.values, tuple(tt), tuple(ff))


def from_diagonal(lattice: LatticeId, states, diagonal: Mapping[str, Weight], values=()) -> PRel:
    """The test carrying ``diagonal``; missing states get BOT."""
    return from_entries(lattice, states, {(u, u): w for u, w in diagonal.items()}, values)


def cell_forms(r: PRel, form) -> list:
    """``form(w)`` of each cell's weight ``w``, row-major: one call per distinct
    (tt, ff) rank pair."""
    elems = [LatticeElem(r.lattice, v) for v in r.values]
    cells = list(zip(r.tt, r.ff))
    forms = {pair: form(Weight(elems[pair[0]], elems[pair[1]])) for pair in set(cells)}
    return list(map(forms.__getitem__, cells))


def prel_to_entries(r: PRel) -> list[list]:
    """Every entry as [u, v, tt, ff], row-major (defaults made explicit)."""
    return [[u, v, *pair] for (u, v), pair in r.pairs(weight_to_json)]


def format_prel(r: PRel, unicode: bool = False) -> str:
    """Aligned matrix with one weight pair per entry."""
    return format_grid(r.states, cell_forms(r, lambda w: format_weight(w, unicode)))


def format_grid(states, cells: list[str]) -> str:
    """Row-major cell strings as a matrix labelled by ``states``."""
    n = len(states)
    widths = [max(len(states[j]), *(len(cells[i * n + j]) for i in range(n))) for j in range(n)]
    label = max(len(s) for s in states)
    lines = [" " * label + "  " + "  ".join(s.ljust(w) for s, w in zip(states, widths))]
    for i, u in enumerate(states):
        row = "  ".join(cells[i * n + j].ljust(widths[j]) for j in range(n))
        lines.append(u.ljust(label) + "  " + row)
    return "\n".join(line.rstrip() for line in lines)
