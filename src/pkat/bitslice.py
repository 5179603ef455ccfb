"""The checking loops: a law checked over instances drawn at random or
walked exhaustively from a finite weight space, a chunk at a time, for
``catalog``'s axioms and ``equiv_random``.  Only ``axioms`` and ``equiv
--random`` load this module; it imports ``engine`` for laws and verdicts.

A run builds its candidate space once, a ``_Space``, and every law it
checks (the whole catalog, for ``catalog.check_suite``) draws from it,
nearest classical consistency (|tt + ff - 1|) first, so a run encodes
each cell once for all its laws.  An instance lists, in the order of the
law's compiled names (the programs, then the tests, each alphabetical,
for every law), a test's n diagonal cells for a name in the law's
``tests``, else a program's n*n row-major, as ``_spans`` lays them out.
Exhaustive checking walks them lexicographically over the space's order,
the last cell varying fastest.  So a reported counterexample is the most
conservative one available, and a failing verdict's instance count is
its witness's position in that walk.

One admission path, ``_check``, refuses ``catalog``'s laws and
``equiv_random``'s equation from their sizes alone, k as ``_grid_values``
counts it, before the space or any state is built.  A walked law in one
test and no premise (216-220) takes only k of its k^n instances.  The
test ops act on a diagonal state by state, so an instance fails iff one
of its cells fails at one state, and the walk's first failure is
(s0, ..., s0, f): s0 the space's first cell, f the first failing one.
So the k instances whose last cell alone varies give the walk's verdict.

Laws of one width read the same instances, drawn at the run's seed or
walked with the same cells fixed, so ``_check`` hands each such stream to
one ``_drive`` call.  It alone loops over chunks, taken lazily, doubling
from 1 up to ``_Space.cap``; it encodes each chunk once, binds ``_OPS``
to the chunk's width once, and runs on it each law not yet decided through
``_breaks``, as ``engine._break`` runs a law on one instance.  A law's
first failing instance is then built alone as relations and run by
``engine._verdict`` for its witness; the stream stops once every law has
failed.  So a run that fails early encodes a few instances, and a long
walk stays in bounded memory.

A chunk of B instances holds one bit per (instance, cut): its cell is the
``relp`` cell of each instance, cut by cut.  Over ranks 0..top and with
W = top·B, bit (t-1)·B + b is set when instance b has tt >= t, and bit
W + s·B + b when it has ff <= s.  ``_Space`` keeps each cell's bit string,
``_encode`` lays a chunk out so, and ``_breaks`` names a law's first
failing instance in it.  ``_OPS`` are ``relp``'s ops, with ``*`` as
Warshall's closure: ``r_star``'s search reads per-cell cut counts.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, product, repeat
from math import lcm
from operator import or_

from .engine import Status, Verdict, _equation, _Law, _verdict
from .errors import CarrierError, EngineError
from .lattice import LatticeId, carrier, elem
from .plts import Model
from .relp import _code, _dot, _exceeds, _not, _plus, from_cells, value_table
from .syntax import Dot, Not, Plus, Star, Term, _fill, atoms, sort_of

DEFAULT_GODEL_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 4) for i in range(5))

MAX_EXHAUSTIVE = 10**6
MAX_STEPS = 10**7
MAX_BITS = 1 << 13  # the most bits a chunk cell holds: ``_Space.cap`` follows from it


# ---------------------------------------------------------------------------
# Instantiation spaces


def states_for(n_states: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n_states))


def _grid_values(lattice: LatticeId, godel_grid) -> tuple[set[Fraction], int]:
    """The values a cell's components range over, and k, the number of cells:
    every (tt, ff) pair, but over bool2 only its two consistent corners."""
    if lattice is not LatticeId.GODEL:
        if godel_grid is not None:
            raise EngineError(f"a godel grid applies only to the godel lattice, "
                              f"not {lattice.value}")
        grid = carrier(lattice)
    elif not (grid := DEFAULT_GODEL_GRID if godel_grid is None else tuple(godel_grid)):
        raise EngineError("an empty interval grid makes no candidates")
    values = {elem(lattice, g).value for g in grid}
    return values, 2 if lattice is LatticeId.BOOL2 else len(values) ** 2


def _parse_grid(text: str | None):
    """The ``--godel-grid`` option's values, or None when it is not given."""
    try:
        return None if text is None else tuple(elem(LatticeId.GODEL, p) for p in text.split(","))
    except CarrierError as exc:
        raise EngineError(f"bad --godel-grid value: {exc}") from exc


class _Space(dict):
    """The k candidate cells of one (lattice, grid), as rank pairs into ``table``,
    built once per check unless k > ``MAX_EXHAUSTIVE``, and cell i's bit string, made
    when first read; a chunk holds ``cap`` instances.  The cells are the product's
    first k by |tt + ff - 1|, as |a[tt] + a[ff] - d| in integers (d the table's common
    denominator, a[i] = d·value i), ties in (tt, ff) order, which the stable sort keeps."""

    def __init__(self, lattice: LatticeId, godel_grid):
        members, k = _grid_values(lattice, godel_grid)
        if k > MAX_EXHAUSTIVE:
            raise EngineError(f"candidate space of {_count(k)} weights exceeds {MAX_EXHAUSTIVE}")
        self.table = values = value_table(members)
        ranks = [i for i, v in enumerate(values) if v in members]
        d = lcm(*(v.denominator for v in values))
        a = [int(v * d) for v in values]
        cells = sorted(product(ranks, ranks), key=lambda c: abs(a[c[0]] + a[c[1]] - d))
        self.cells = tuple(cells[:k])  # bool2's 2 consistent corners alone sit at distance 0
        self.top = len(values) - 1
        self.cap = max(1, MAX_BITS // (2 * self.top))

    def __missing__(self, i: int) -> str:
        t, f = self.cells[i]
        self[i] = bits = format(_code(t, f, self.top), f"0{2 * self.top}b")
        return bits


def _spans(law: _Law, n_states: int) -> tuple[list, int]:
    """Where each of the law's compiled names sits in an instance over n
    states, as (name, test, start, stop): in turn, a test's n diagonal cells
    or a program's n*n row-major; and the instance's width."""
    tests = [x in law.tests for x in law.code[0]]
    cuts = [0, *accumulate(n_states if test else n_states**2 for test in tests)]
    return list(zip(law.code[0], tests, cuts, cuts[1:])), cuts[-1]


def _model(lattice, states, space, spans, instance) -> Model:
    """The model of an instance, its indices into ``space`` placed at the law's
    ``spans``; every other cell is BOT."""
    n, ranks, programs, tests = len(states), range(len(space.table)), {}, {}
    for name, test, start, stop in spans:
        cells = map(space.cells.__getitem__, instance[start:stop])
        on = dict(zip(range(0, n * n, n + 1 if test else 1), cells))
        (tests if test else programs)[name] = from_cells(lattice, states, space.table, on, ranks)
    return Model(lattice, states, programs, tests)


def _draws(rng: random.Random, k: int, width: int, count: int):
    """``count`` instances of ``width`` cells, each an index into ``k`` cells drawn
    as ``rng.choice(range(k))`` draws it: ``getrandbits(k.bit_length())`` until below k."""
    cells = filter(k.__gt__, map(rng.getrandbits, repeat(k.bit_length())))
    return (list(islice(cells, width)) for _ in range(count))


def _walk(k: int, width: int, fixed: int = 0):
    """Every instance of ``width`` cells, as indices into a space of ``k``
    cells, with its first ``fixed`` at the first, in lexicographic order:
    the last cell varies fastest."""
    return product(*[range(1)] * fixed, *[range(k)] * (width - fixed))


# ---------------------------------------------------------------------------
# Chunk kernels


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


def _encode(chunk, bits, w: int) -> list[int]:
    """Each position's cells as one int, bit j·B + b from bit j of instance b's cell:
    the column's w-digit ``bits`` strings, last instance first, transposed by slicing."""
    columns = ("".join(map(bits.__getitem__, column)) for column in zip(*reversed(chunk)))
    return [int("".join([s[i::w] for i in range(w)]), 2) for s in columns]


def _breaks(law, spans, cells, size: int, kernels: dict, n: int) -> int | None:
    """The index of the first of ``size`` instances, ``cells`` as ``_encode`` gives
    them, breaking the law at ``spans`` on the chunk's ``kernels``, else None.  Every
    goal pair runs on the whole chunk; only a premise excusing every instance stops early."""
    values = [[0] * (n * n)]
    for _, test, i, j in spans:
        values.append(rel := [0] * (n * n))
        rel[::n + 1 if test else 1] = cells[i:j]
    sides = (_fill(values, law.code[1], root, kernels) for root in law.code[2])
    excused = _fold(_exceeds(next(sides), next(sides)), size) if law.horn else 0
    if excused == (1 << size) - 1:
        return None
    bad = 0
    for lhs, rhs in zip(sides, sides):
        bad |= _exceeds(lhs, rhs) if law.horn else reduce(or_, map(int.__xor__, lhs, rhs))
    bad = _fold(bad, size) & ~excused
    return (bad & -bad).bit_length() - 1 if bad else None


def _fold(bits: int, size: int) -> int:
    """The OR of the blocks of ``size`` bits."""
    low, out = (1 << size) - 1, 0
    while bits:
        out |= bits & low
        bits >>= size
    return out


# ---------------------------------------------------------------------------
# Law checking


def _count(count: int) -> str:
    """A count as a refusal prints it: in full up to 30 digits, else as %.2e."""
    return str(count) if count < 10**30 else f"{Decimal(count):.2e}"


def _admit(value, kind: str, low: str = "") -> None:
    """Refuse ``value`` unless it is an int, and, given ``low``, at least 1: with
    ``low`` where ``not value or value < 1`` holds, else with ``kind`` and its type."""
    try:
        if low and (not value or value < 1):
            raise EngineError(low)
    except TypeError:  # a value that does not compare with 1, such as "3"
        pass
    if not isinstance(value, int):
        raise EngineError(f"{kind}, got {type(value).__name__}")


def _guard(cells: int, k: int) -> None:
    """Refuse a walk of more than ``MAX_EXHAUSTIVE`` assignments of ``cells`` cells
    over ``k`` candidates.  For k >= 2, 2^bit_length already exceeds the bound, so
    that many cells are refused before any huge count is built."""
    if k > 1 and cells >= MAX_EXHAUSTIVE.bit_length() or k**cells > MAX_EXHAUSTIVE:
        raise EngineError(f"exhaustive space of {k}^{_count(cells)} instantiations exceeds "
                          f"{MAX_EXHAUSTIVE}")


def _guard_steps(samples: int, n_states: int) -> None:
    """Refuse ``samples`` instances over n states (random draws, or the k
    tests of a one-test walk) beyond ``MAX_STEPS`` kernel steps, each counting
    (n + 1)^4: n + 1 products of n^3 steps.  This is an admission rule that
    fixes which runs are refused, not a cost model: a star searches rather
    than multiplies, and the chunked loops run many instances per step."""
    if samples * (n_states + 1) ** 4 > MAX_STEPS:
        raise EngineError(f"work of {_count(samples)} x {_count(n_states)}-state instances "
                          f"exceeds {MAX_STEPS} kernel steps")


def _drive(runs: dict, instances, lattice, states, space, seed, fixed: int = 0) -> dict:
    """The verdicts, by key, of the (law, how, axiom, spans) ``runs`` reading one stream
    of ``instances``, drawn at ``seed`` or walked with the first ``fixed`` cells at
    the first: a holds counts k^fixed per instance, a fails the instances to its witness."""
    n, k = len(states), len(space.cells)
    verdicts, count, size = {}, 0, 1
    while len(verdicts) < len(runs) and (chunk := list(islice(instances, size))):
        cells, w = _encode(chunk, space, 2 * space.top), space.top * len(chunk)
        kernels = {op: lambda x, y=None, f=f, w=w: f(x, y, n, w) for op, f in _OPS.items()}
        for i, (law, how, axiom, spans) in runs.items():
            b = None if i in verdicts else _breaks(law, spans, cells, len(chunk), kernels, n)
            if b is not None:
                model = _model(lattice, states, space, spans, chunk[b])
                verdicts[i] = _verdict(law, model, how, axiom=axiom, samples=count + b + 1,
                                       seed=seed)
                if verdicts[i].witness is None:  # a defect in the chunk kernels, never a verdict
                    raise RuntimeError(f"{law.formula}: a chunk's failing instance holds")
        count += len(chunk)
        size = min(2 * size, space.cap)
    return verdicts | {i: Verdict(Status.HOLDS, lattice, n, how, axiom=axiom,
                                  samples=count * k**fixed, seed=seed)
                       for i, (_, how, axiom, _) in runs.items() if i not in verdicts}


def _check(plan, lattice: LatticeId, n_states: int, godel_grid, samples, seed) -> list[Verdict]:
    """Each (law, how, axiom) of ``plan`` checked on one space, built once every
    law passes the guards, which need only n and k: the laws that read one
    stream, drawn or walked at one width, by one ``_drive``, in plan order."""
    _admit(n_states, "need an int state count", "need at least one state")
    k = _grid_values(lattice, godel_grid)[1]
    streams, work = {}, 1
    for i, (law, how, axiom) in enumerate(plan):
        (spans, width), fixed = _spans(law, n_states), 0
        if how == "random":
            _admit(samples, "random mode needs an int sample count",
                   "random mode needs a positive sample count")
            _admit(seed, "random mode needs an int seed")  # random.Random(None) draws from the OS
            work = max(work, samples)
        elif not law.horn and width == n_states and spans[0][1]:  # one test and no premise
            fixed, work = n_states - 1, max(work, k)  # a walk of k instances, as work
        else:
            _guard(width, k)
        streams.setdefault((how == "random", width, fixed), {})[i] = law, how, axiom, spans
    _guard_steps(work, n_states)
    space, states, verdicts = _Space(lattice, godel_grid), states_for(n_states), {}
    for (drawn, width, fixed), runs in streams.items():
        instances = (_draws(random.Random(seed), k, width, samples) if drawn else
                     _walk(k, width, fixed))
        verdicts |= _drive(runs, instances, lattice, states, space, seed if drawn else None, fixed)
    return [verdicts[i] for i in range(len(plan))]


def equiv_random(t1: Term, t2: Term, lattice: LatticeId, n_states: int, samples: int, seed: int,
                 *, test_names: Iterable[str] = (), godel_grid=None) -> Verdict:
    """Compare two terms on seeded random models.

    A holds verdict means no countermodel was found among the samples,
    not a proof; a fails verdict carries the first countermodel.
    """
    _admit(samples, "need an int sample count", "need a positive sample count")
    tests = frozenset(test_names)
    programs = (atoms(t1) | atoms(t2)) - tests
    for term in (t1, t2):
        sort_of(term, programs, tests)
    law = _equation(t1, t2, tests)
    return _check([(law, "random", None)], lattice, n_states, godel_grid, samples, seed)[0]
