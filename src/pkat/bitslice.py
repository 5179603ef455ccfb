"""Laws checked on a chunk of instances at once, one bit per (instance, cut):
the ``engine`` docstring gives the encoding, why it is exact and the chunks."""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import and_, or_

from .errors import SortError

MAX_BITS = 1 << 13  # per cell: a chunk holds at most MAX_BITS // (2 * top) instances


def _plus(x, y, n, full, w):
    return list(map(or_, x, y))


def _dot(x, y, n, full, w):
    cols = [y[j::n] for j in range(n)]
    return [reduce(or_, map(and_, x[i:i + n], col)) for i in range(0, n * n, n) for col in cols]


def _star(x, _, n, full, w):
    """Warshall's reflexive-transitive closure, on every bit at once."""
    c = list(x)
    c[::n + 1] = [full] * n
    for k in range(n):
        row = c[k * n:k * n + n]
        for i in range(0, n * n, n):
            through = c[i + k]
            if through:
                c[i:i + n] = [a | through & b for a, b in zip(c[i:i + n], row)]
    return c


def _not(x, _, n, full, w):
    """tt >= t becomes not ff <= t - 1, and ff <= s not tt >= s + 1."""
    if any(v for k, v in enumerate(x) if k % (n + 1)):
        raise SortError("complement is defined on tests (subidentity relations)")
    low = (1 << w) - 1
    out = [0] * (n * n)
    out[::n + 1] = [(v >> w | (v & low) << w) ^ full for v in x[::n + 1]]
    return out


# By name, so that a kernel wrapped with ``functools.wraps`` maps alike.
_OPS = {"r_plus": _plus, "r_dot": _dot, "r_star": _star, "t_complement": _not}


def first_failure(law, layout, instances, n: int, cells, top: int):
    """The count of ``instances`` checked up to the first that fails ``law``
    and its cells, else the count of all and None.  An instance indexes
    ``cells``, (tt, ff) rank pairs, for each (name, test) of ``layout``: n·n
    of a program's cells row-major, or n of a test's diagonal."""
    names, steps, roots = law.code
    where, at = {}, 0
    for name, test in layout:
        width, step = (n, n + 1) if test else (n * n, 1)
        where[name] = (at, at + width, step)
        at += width
    slots = [where[name] for name in names]
    ops = [(_OPS[kernel.__name__], i, j) for kernel, i, j in steps[2 + len(names):]]
    # A cell's bit in each block: tt >= 1..top, then ff <= 0..top-1.
    digits = [["01"[t > j] for t, _ in cells] for j in range(top)]
    digits += [["01"[f <= s] for _, f in cells] for s in range(top)]
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
    full = (1 << 2 * w) - 1
    one = [0] * (n * n)
    one[::n + 1] = [full] * n
    values = [one, [0] * (n * n)]
    for i, j, step in slots:
        rel = [0] * (n * n)
        rel[::step] = cells[i:j]
        values.append(rel)
    for op, i, j in ops:
        values.append(op(values[i], None if j is None else values[j], n, full, w))
    sides = [values[root] for root in roots]
    pairs = list(zip(sides[::2], sides[1::2]))
    excused = _fold(_exceeds(*pairs.pop(0)), size) if law.premise else 0
    bad = 0
    for lhs, rhs in pairs:
        bad |= _exceeds(lhs, rhs) if law.leq else reduce(or_, map(int.__xor__, lhs, rhs))
    return _fold(bad, size) & ~excused


def _exceeds(lhs, rhs) -> int:
    """The bits where lhs <= rhs fails."""
    return reduce(or_, (a & ~b for a, b in zip(lhs, rhs)))


def _fold(bits: int, size: int) -> int:
    """The OR of the blocks of ``size`` bits."""
    low, out = (1 << size) - 1, 0
    while bits:
        out |= bits & low
        bits >>= size
    return out
