"""Laws checked on a chunk of instances at once, one bit per (instance, cut):
the ``engine`` docstring gives the chunks and their layout, ``relp`` the ops.
The caller gives the cell offsets; each cell's transposed bit string is made on first read."""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import or_

from .relp import _code, _dot, _exceeds, _not, _plus
from .syntax import Dot, Not, Plus, Star

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


def first_failure(law, spans, instances, n: int, cells, top: int):
    """The count of ``instances`` checked up to the first that fails ``law``
    and its cells, else the count of all and None.  An instance indexes
    ``cells``, (tt, ff) rank pairs, where ``spans`` (``engine._spans``) lays out ``law.vars``."""
    names, steps, roots = law.code
    where = {name: (i, j, n + 1 if test else 1) for name, test, i, j in spans}
    slots = [where[name] for name in names]
    ops = [(_OPS[op], i, j) for op, i, j in steps[2 + len(names):]]
    bits = _Bits(cells, top)
    instances, cap = iter(instances), max(1, MAX_BITS // (2 * top))
    count, size = 0, 1
    while chunk := list(islice(instances, size)):
        bad = _breaks(law, slots, ops, roots, _encode(chunk, bits, 2 * top), len(chunk), n, top)
        if bad:
            b = (bad & -bad).bit_length() - 1
            return count + b + 1, [cells[i] for i in chunk[b]]
        count += len(chunk)
        size = min(2 * size, cap)
    return count, None


def _encode(chunk, bits, w: int) -> list[int]:
    """Each position's cells as one int, bit j·B + b from bit j of instance b's cell:
    the column's w-digit ``bits`` strings, last instance first, transposed by slicing."""
    columns = ("".join(map(bits.__getitem__, column)) for column in zip(*reversed(chunk)))
    return [int("".join([s[i::w] for i in range(w)]), 2) for s in columns]


def _breaks(law, slots, ops, roots, cells, size: int, n: int, top: int) -> int:
    """The mask of the chunk's instances that break the law."""
    w = top * size
    zero = [0] * (n * n)
    values = [_not(zero, None, n, w), zero]  # 1 = !0
    for i, j, step in slots:
        rel = [0] * (n * n)
        rel[::step] = cells[i:j]
        values.append(rel)
    for op, i, j in ops:
        values.append(op(values[i], None if j is None else values[j], n, w))
    pairs = [(values[i], values[j]) for i, j in zip(roots[::2], roots[1::2])]
    excused = _fold(_exceeds(*pairs.pop(0)), size) if law.premise else 0
    bad = 0
    for lhs, rhs in pairs:
        bad |= _exceeds(lhs, rhs) if law.leq else reduce(or_, map(int.__xor__, lhs, rhs))
    return _fold(bad, size) & ~excused


def _fold(bits: int, size: int) -> int:
    """The OR of the blocks of ``size`` bits."""
    low, out = (1 << size) - 1, 0
    while bits:
        out |= bits & low
        bits >>= size
    return out
