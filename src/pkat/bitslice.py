"""Laws checked on a chunk of instances at once, one bit per (instance, cut):
the ``engine`` docstring gives the chunks and their layout, ``relp`` the ops.
``first_failure`` reads each variable's cell offsets from ``engine._spans``."""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import or_

from .engine import _spans
from .relp import _code, _dot, _exceeds, _not, _plus

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


# By name, so that a kernel wrapped with ``functools.wraps`` maps alike.
_OPS = {"r_plus": _plus, "r_dot": _dot, "r_star": _star, "t_complement": _not}


def first_failure(law, instances, n: int, cells, top: int):
    """The count of ``instances`` checked up to the first that fails ``law``
    and its cells, else the count of all and None.  An instance indexes
    ``cells``, (tt, ff) rank pairs, as ``engine._spans`` lays out ``law.vars``."""
    names, steps, roots = law.code
    where = {name: (i, j, n + 1 if test else 1) for name, test, i, j in _spans(law.vars, n)[0]}
    slots = [where[name] for name in names]
    ops = [(_OPS[kernel.__name__], i, j) for kernel, i, j in steps[2 + len(names):]]
    codes = [_code(t, f, top) for t, f in cells]  # block j holds bit j of each cell
    digits = [["01"[c >> j & 1] for c in codes] for j in range(2 * top)]
    instances, cap = iter(instances), max(1, MAX_BITS // (2 * top))
    count, size = 0, 1
    while chunk := list(islice(instances, size)):
        bad = _breaks(law, slots, ops, roots, _encode(chunk, digits), len(chunk), n, top)
        if bad:
            b = (bad & -bad).bit_length() - 1
            return count + b + 1, [cells[i] for i in chunk[b]]
        count += len(chunk)
        size = min(2 * size, cap)
    return count, None


def _encode(chunk, digits) -> list[int]:
    """Each position's cells across the chunk as one int, block j from ``digits[j]``."""
    return [int("".join(["".join(map(d.__getitem__, column)) for d in digits])[::-1], 2)
            for column in zip(*chunk)]


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
    sides = [values[root] for root in roots]
    pairs = list(zip(sides[::2], sides[1::2]))
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
