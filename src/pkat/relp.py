"""Weight matrices over a state space: the relational program algebra.

A relation assigns a weight to every ordered pair of states (stored
row-major).  Addition is entrywise pair-join; composition aggregates
pair-meets over intermediate states; star is the least solution of
``S = 1 + R.S``, the join of all powers of R.

On a chain, pair-join is max on the support and min on the opposition
(pair-meet the reverse), so no operation makes a value its operands did
not hold.  A relation therefore keeps ``values``, a sorted table of
exact rationals that always holds 0 and 1, and one int per cell with a
bit per cut of its ranks 0..top into the table: bit t-1 is set when
tt >= t, and bit top + s when ff <= s (the ff half holds each cut's
complement, so that BOT is 0 and the identity's diagonal is all ones).
Relations built together share one table, and operands on different
tables are lifted to their merged table first.  ``+`` is OR on both
halves, ``;`` an OR of ANDs, ``!`` a swap of a diagonal cell's halves
and a negation, and lhs <= rhs fails where the left has a bit the right
lacks (AND-NOT); ``bitslice`` runs these ops on chunks of instances.
This is exact: each cut θ sends a rank x to [x >= θ], and so sends pkat
over the chain onto Belnap's four values, keeping ``+``, ``;``, ``*``,
``!`` and ``<=`` (``tests/test_cut.py``), and the cuts together tell
ranks apart.  Ranks are decoded (``int.bit_count``) only at the
boundary: ``cell`` and ``entry`` decode one cell, and ``cell_forms``
(behind ``weights``, ``pairs`` and the exporters below) one weight per
distinct cell.

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
from functools import reduce
from itertools import product, repeat
from operator import and_, or_
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
    held as one int per cell (``bits``) over the table ``values``.  Never
    mutated: relations are shared, and equal relations hash alike."""

    __slots__ = ("lattice", "states", "values", "bits")

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
        return r.bits == s.bits

    def __hash__(self):
        return hash((self.lattice, self.states, self.weights))

    def __repr__(self):
        return f"PRel({self.lattice}, {self.states!r}, {self.weights!r})"

    # Each cell's support (tt) and opposition (ff) rank, row-major, decoded.
    tt = property(lambda r: tuple(_ranks(c, len(r.values) - 1)[0] for c in r.bits))
    ff = property(lambda r: tuple(_ranks(c, len(r.values) - 1)[1] for c in r.bits))

    @property
    def weights(self) -> tuple[Weight, ...]:
        return tuple(cell_forms(self, lambda w: w))

    def cell(self, k: int) -> Weight:
        """The weight of row-major cell ``k``."""
        return Weight(*(LatticeElem(self.lattice, self.values[x])
                        for x in _ranks(self.bits[k], len(self.values) - 1)))

    def entry(self, u: str, v: str) -> Weight:
        n = len(self.states)
        try:
            return self.cell(self.states.index(u) * n + self.states.index(v))
        except ValueError as exc:
            raise ShapeError(f"unknown state in ({u!r}, {v!r})") from exc

    def pairs(self, form=lambda w: w) -> Iterator[tuple[tuple[str, str], Weight]]:
        """Each cell's (u, v) and weight, or ``form`` of its weight (see ``cell_forms``)."""
        return zip(product(self.states, repeat=2), cell_forms(self, form))


# A cell from its (tt, ff) ranks over ranks 0..top, and back.
def _code(t: int, f: int, top: int) -> int:
    return (1 << t) - 1 | ((1 << top - f) - 1) << top + f


def _ranks(c: int, top: int) -> tuple[int, int]:
    return (c & (1 << top) - 1).bit_count(), top - (c >> top).bit_count()


def _from_bits(lattice: LatticeId, states, values, bits) -> PRel:
    r = object.__new__(PRel)
    r.lattice, r.states, r.values, r.bits = lattice, states, values, tuple(bits)
    return r


def from_ranks(lattice: LatticeId, states, values, tt, ff) -> PRel:
    """A relation from row-major ranks into a table made by ``value_table``."""
    return _from_bits(lattice, states, values, map(_code, tt, ff, repeat(len(values) - 1)))


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


def from_cells(lattice: LatticeId, states, table, cells: Mapping[int, tuple], rank) -> PRel:
    """The relation on ``table`` whose row-major cell k holds ranks ``rank[t]``
    and ``rank[f]`` for ``cells[k] == (t, f)``; every other cell holds BOT."""
    n, top = len(states), len(table) - 1
    bits = [0] * (n * n)
    for k, (t, f) in cells.items():
        bits[k] = _code(rank[t], rank[f], top)
    return _from_bits(lattice, states, table, bits)


def identity(lattice: LatticeId, states: tuple[str, ...], values=()) -> PRel:
    """TOP on the diagonal, BOT elsewhere, on the table holding ``values``: !0."""
    return _apply(_not, zero(lattice, states, values))


def zero(lattice: LatticeId, states: tuple[str, ...], values=()) -> PRel:
    states, table = tuple(states), value_table(values)
    _check_states(states)
    return _from_bits(lattice, states, table, (0,) * len(states) ** 2)


def _lift(r: PRel, table: tuple) -> PRel:
    if r.values == table:
        return r
    rank, top = {v: i for i, v in enumerate(table)}, len(r.values) - 1
    cells = {k: _ranks(c, top) for k, c in enumerate(r.bits) if c}
    return from_cells(r.lattice, r.states, table, cells, [rank[v] for v in r.values])


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


def _plus(x, y, n: int, w: int) -> list:
    return list(map(or_, x, y))


def _dot(x, y, n: int, w: int) -> list:
    cols = [y[j::n] for j in range(n)]
    return [reduce(or_, map(and_, x[i:i + n], col)) for i in range(0, n * n, n) for col in cols]


def _not(x, _, n: int, w: int) -> list:
    """tt >= t becomes not ff <= t - 1, and ff <= s not tt >= s + 1."""
    if any(v for k, v in enumerate(x) if k % (n + 1)):
        raise SortError("complement is defined on tests (subidentity relations)")
    low, full = (1 << w) - 1, (1 << 2 * w) - 1
    out = [0] * (n * n)
    out[::n + 1] = [(v >> w | (v & low) << w) ^ full for v in x[::n + 1]]
    return out


def _exceeds(lhs, rhs) -> int:
    """The bits where lhs <= rhs fails."""
    return reduce(or_, (a & ~b for a, b in zip(lhs, rhs)))


def _apply(op, r: PRel, s: PRel | None = None) -> PRel:
    bits = op(r.bits, s and s.bits, len(r.states), len(r.values) - 1)
    return _from_bits(r.lattice, r.states, r.values, bits)


def r_plus(r: PRel, s: PRel) -> PRel:
    return _apply(_plus, *align(r, s))


def r_dot(r: PRel, s: PRel) -> PRel:
    return _apply(_dot, *align(r, s))


def r_star(r: PRel) -> PRel:
    return r_star_steps(r)[0]


def r_star_steps(r: PRel) -> tuple[PRel, int]:
    """Star together with the rounds ``S = 1 + R.S`` takes from 1 to its fixpoint.
    Each half is closed on its own cut counts, read once off each edge."""
    n, top = len(r.states), len(r.values) - 1
    low, tt_cuts, ff_cuts = (1 << top) - 1, {}, {}  # row-major edges by cut count
    for k, c in enumerate(r.bits):
        if c and k % (n + 1):
            if t := (c & low).bit_count():
                tt_cuts.setdefault(t, []).append(k)
            if g := (c >> top).bit_count():  # top - ff
                ff_cuts.setdefault(g, []).append(k)
    tt, tt_depth = _closure(tt_cuts, {t: (1 << t) - 1 for t in (top, *tt_cuts)}, n, top)
    ff, ff_depth = _closure(ff_cuts, {g: ((1 << g) - 1) << 2 * top - g for g in (top, *ff_cuts)},
                            n, top)
    return _from_bits(r.lattice, r.states, r.values, map(or_, tt, ff)), 1 + max(tt_depth, ff_depth)


def _closure(cuts, code, n: int, top: int) -> tuple[list, int]:
    """The (max, min) reflexive-transitive closure of the edges ``cuts[t]`` at
    each cut count t, every cell as ``code`` of its count, and the deepest
    level any search reaches.  Cuts descend, so a cell takes the first cut
    that reaches it; a lower cut only shortens paths, so that level is one
    at which a cell took its final value."""
    out, depth, full = [0] * (n * n), 0, (1 << n) - 1
    out[::n + 1] = [code[top]] * n
    rows = [1 << i for i in range(n)]
    seen = rows[:]
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
                out[i * n + low.bit_length() - 1] = code[t]
                new ^= low
    return out, depth


def r_leq(r: PRel, s: PRel) -> bool:
    r, s = align(r, s)
    return not _exceeds(r.bits, s.bits)


def is_test(r: PRel) -> bool:
    """True when every off-diagonal entry is the least weight."""
    return not any(c for k, c in enumerate(r.bits) if k % (len(r.states) + 1))


def t_complement(t: PRel) -> PRel:
    """Swap evidence on the diagonal; off-diagonal entries stay BOT."""
    return _apply(_not, t)


def from_diagonal(lattice: LatticeId, states, diagonal: Mapping[str, Weight], values=()) -> PRel:
    """The test carrying ``diagonal``; missing states get BOT."""
    return from_entries(lattice, states, {(u, u): w for u, w in diagonal.items()}, values)


def cell_forms(r: PRel, form) -> list:
    """``form(w)`` of each cell's weight ``w``, row-major: one call per distinct
    cell, decoded once."""
    elems, top = [LatticeElem(r.lattice, v) for v in r.values], len(r.values) - 1
    forms = {c: form(Weight(*map(elems.__getitem__, _ranks(c, top)))) for c in set(r.bits)}
    return list(map(forms.__getitem__, r.bits))


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
