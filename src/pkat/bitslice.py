"""The kernels that check a law on one chunk of instances at once, one bit
per (instance, cut): ``engine._drive`` loops over the chunks, and its
module docstring gives their layout.  ``_OPS`` are ``relp``'s ops, with
``*`` as Warshall's closure: ``r_star``'s search reads per-cell cut counts.
Each cell's transposed bit string is made on first read."""

from __future__ import annotations

from functools import reduce
from operator import or_

from .relp import _code, _dot, _exceeds, _not, _plus
from .syntax import Dot, Not, Plus, Star, _fill

MAX_BITS = 1 << 13  # per cell: a chunk holds at most MAX_BITS // (2 * top) instances


def _star(x, _, n, w):
    """Warshall's reflexive-transitive closure, on every bit at once."""
    c = list(x)
    c[::n + 1] = [(1 << 2 * w) - 1] * n
    for k in range(n):
        row = c[k * n:k * n + n]
        for i in range(0, n * n, n):
            through = c[i + k]
            if through:
                c[i:i + n] = [a | through & b for a, b in zip(c[i:i + n], row)]
    return c


_OPS = {Plus: _plus, Dot: _dot, Star: _star, Not: _not}


class _Bits(dict):
    """Cell i's bit string, formatted and kept when it is first read."""

    def __init__(self, cells, top: int):
        self.cells, self.top = cells, top

    def __missing__(self, i: int) -> str:
        t, f = self.cells[i]
        self[i] = bits = format(_code(t, f, self.top), f"0{2 * self.top}b")
        return bits


def _encode(chunk, bits, w: int) -> list[int]:
    """Each position's cells as one int, bit j·B + b from bit j of instance b's cell:
    the column's w-digit ``bits`` strings, last instance first, transposed by slicing."""
    columns = ("".join(map(bits.__getitem__, column)) for column in zip(*reversed(chunk)))
    return [int("".join([s[i::w] for i in range(w)]), 2) for s in columns]


def _breaks(law, slots, cells, size: int, n: int, top: int) -> int:
    """The mask of instances breaking the law, the sides run lazily as in ``engine._break``."""
    w = top * size
    kernels = {op: lambda x, y=None, f=f: f(x, y, n, w) for op, f in _OPS.items()}
    zero = [0] * (n * n)
    values = [_not(zero, None, n, w), zero]  # 1 = !0
    for i, j, step in slots:
        rel = [0] * (n * n)
        rel[::step] = cells[i:j]
        values.append(rel)
    sides = (_fill(values, law.code[1], root, kernels) for root in law.code[2])
    excused = _fold(_exceeds(next(sides), next(sides)), size) if law.premise else 0
    if excused == (1 << size) - 1:
        return 0
    bad = 0
    for lhs, rhs in zip(sides, sides):
        bad |= _exceeds(lhs, rhs) if law.leq else reduce(or_, map(int.__xor__, lhs, rhs))
    return _fold(bad, size) & ~excused


def _fold(bits: int, size: int) -> int:
    """The OR of the blocks of ``size`` bits."""
    low, out = (1 << size) - 1, 0
    while bits:
        out |= bits & low
        bits >>= size
    return out
