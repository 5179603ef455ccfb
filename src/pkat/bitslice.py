"""The kernels that check a law on one chunk of B instances at once, one
bit per (instance, cut); ``engine._drive`` loops over the chunks.  A
chunk's cell is the ``relp`` cell of each instance, cut by cut: over
ranks 0..top and with W = top·B, bit (t-1)·B + b is set when instance b
has tt >= t, and bit W + s·B + b when it has ff <= s.  A run's laws share
one ``_Space``: its cells, as rank pairs into its value table, and their
bit strings, each made when first read.  ``_breaks`` encodes a chunk so
and names its first failing instance.  ``_OPS`` are ``relp``'s ops, with
``*`` as Warshall's closure: ``r_star``'s search reads per-cell cut counts."""

from __future__ import annotations

from functools import reduce
from operator import or_

from .relp import _code, _dot, _exceeds, _not, _plus
from .syntax import Dot, Not, Plus, Star, _fill

MAX_BITS = 1 << 13  # the most bits a chunk cell holds: ``_Space.cap`` follows from it


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


class _Space(dict):
    """Cell i's bit string, made and kept when first read; a chunk holds ``cap`` instances."""

    def __init__(self, table, cells):
        self.table, self.cells, self.top = table, cells, len(table) - 1
        self.cap = max(1, MAX_BITS // (2 * self.top))

    def __missing__(self, i: int) -> str:
        t, f = self.cells[i]
        self[i] = bits = format(_code(t, f, self.top), f"0{2 * self.top}b")
        return bits


def _encode(chunk, bits, w: int) -> list[int]:
    """Each position's cells as one int, bit j·B + b from bit j of instance b's cell:
    the column's w-digit ``bits`` strings, last instance first, transposed by slicing."""
    columns = ("".join(map(bits.__getitem__, column)) for column in zip(*reversed(chunk)))
    return [int("".join([s[i::w] for i in range(w)]), 2) for s in columns]


def _breaks(law, spans, chunk, space: _Space, n: int) -> int | None:
    """The index of ``chunk``'s first instance breaking the law, its cells at
    ``spans``, else None; the sides run lazily as in ``engine._break``."""
    size, top = len(chunk), space.top
    cells, w = _encode(chunk, space, 2 * top), top * size
    kernels = {op: lambda x, y=None, f=f: f(x, y, n, w) for op, f in _OPS.items()}
    values = [[0] * (n * n)]
    for _, test, i, j in spans:
        rel = [0] * (n * n)
        rel[::n + 1 if test else 1] = cells[i:j]
        values.append(rel)
    sides = (_fill(values, law.code[1], root, kernels) for root in law.code[2])
    excused = _fold(_exceeds(next(sides), next(sides)), size) if law.premise else 0
    if excused == (1 << size) - 1:
        return None
    bad = 0
    for lhs, rhs in zip(sides, sides):
        bad |= _exceeds(lhs, rhs) if law.leq else reduce(or_, map(int.__xor__, lhs, rhs))
    bad = _fold(bad, size) & ~excused
    return (bad & -bad).bit_length() - 1 if bad else None


def _fold(bits: int, size: int) -> int:
    """The OR of the blocks of ``size`` bits."""
    low, out = (1 << size) - 1, 0
    while bits:
        out |= bits & low
        bits >>= size
    return out
