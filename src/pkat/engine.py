"""Checks laws over the meaning of terms.  The axiom catalog is in
``catalog``, which imports this module; this module never imports it, so
``equiv`` and ``hoare`` requests never compile the catalog.

Evaluation comes from ``syntax``: terms evaluate compositionally to
weight matrices over an assignment of their atoms, and ``evaluate``
(imported here, so ``engine.evaluate`` is the same function) needs
nothing of this module.  Every law is term text: a catalog axiom is the
formula it prints, and an equivalence t1 = t2 or a triple {b} p {c}
(the equation b;p = b;p;c) becomes a law of the same shape.  A law is
compiled once per run by ``syntax._compile`` to straight-line kernel
calls, one per distinct subterm, as ``evaluate`` compiles a term.  One
instance check runs a law and reports the first entry where it breaks;
axiom checking runs it over assignments drawn exhaustively from a finite
weight space or by seeded sampling, equivalence over a given model or a
stream of random models, and ``catalog.recheck`` over a verdict's own
witness.

A run builds its candidate space once, a ``bitslice._Space``, and every
law it checks (the whole catalog, for ``catalog.check_suite``) draws from
it, nearest classical consistency (|tt + ff - 1|) first, as ``_space``
orders it, so a run encodes each cell once for all its laws.
An instance lists, in the order of the law's compiled names (the
programs, then the tests, each alphabetical, for every law), a test's
n diagonal cells for a name in the law's ``tests``, else a
program's n*n row-major, as ``_spans`` lays them out.  Exhaustive
checking walks them lexicographically over the space's order, the last
cell varying fastest.  So a reported counterexample is the most
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
from 1 up to ``bitslice._Space.cap``; it encodes each chunk once and runs
on it each law not yet decided through ``bitslice._breaks``, as ``_break``
runs a law on one instance.  A law's first failing instance is then built
alone as relations and run by ``_break`` for its witness; the stream stops
once every law has failed.  So a run that fails early encodes a few
instances, and a long walk stays in bounded memory.  Only ``_space`` and
``_drive`` import ``bitslice``, so ``hoare`` and ``equiv --model`` never
compile it.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice, product, repeat
from math import lcm

from .errors import CarrierError, EngineError, SortError
from .lattice import LatticeId, carrier, elem
from .plts import Model, model_to_dict
from .record import Record
from .relp import PRel, align, from_cells, prel_to_entries, r_leq, value_table, zero
from .syntax import (
    Dot,
    Sort,
    Term,
    _atom_assignment,
    _compile,
    _fill,
    atoms,
    evaluate,
    pretty,
    sort_check,
    sort_of,
)
from .twist import format_weight, weight_to_json

DEFAULT_GODEL_GRID: tuple[Fraction, ...] = tuple(Fraction(i, 4) for i in range(5))

MAX_EXHAUSTIVE = 10**6
MAX_STEPS = 10**7


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"


class Witness(Record):
    """Enough data to reproduce a failure independently: where the law
    breaks under ``assignment`` (name to ``PRel``), and both sides there."""

    __slots__ = ("assignment", "entry", "lhs", "rhs", "formula", "model", "terms")
    _defaults = {"model": None, "terms": None}


class Verdict(Record):
    __slots__ = ("status", "lattice", "n_states", "mode", "axiom", "witness", "samples", "seed")
    _defaults = {"axiom": None, "witness": None, "samples": None, "seed": None}


class _Law(Record):
    """Goals ``lhs = rhs``, or if ``horn`` the goal ``lhs <= rhs`` required
    only where the premise ``lhs <= rhs`` holds: ``code`` compiles their
    sides, the premise's first; its names, in instance order, range over
    tests if in ``tests``, else over programs.  ``formula`` and ``terms``
    are what a witness prints, with its model when the law has ``terms``."""

    __slots__ = ("formula", "code", "horn", "tests", "terms")
    _defaults = {"horn": False, "tests": frozenset(), "terms": None}


def _equation(t1: Term, t2: Term, tests: Iterable[str] = ()) -> _Law:
    """t1 = t2, its atoms named in ``tests`` ranging over tests; its compiled
    names are the programs, then the tests, each alphabetical."""
    terms, tests = (pretty(t1), pretty(t2)), frozenset(tests)
    return _Law(" = ".join(terms), _compile((t1, t2), tests), terms=terms, tests=tests)


def _triple(pre: Term, prog: Term, post: Term) -> _Law:
    """{pre} prog {post}: pre;prog = pre;prog;post.  As post <= 1 and ``;`` is
    monotone, the right side never exceeds the left (pre;prog;post <= pre;prog),
    so the equation holds exactly where the triple's inclusion
    pre;prog <= pre;prog;post does."""
    terms = (pretty(pre), pretty(prog), pretty(post))
    lhs = Dot(pre, prog)
    return _Law("{%s} %s {%s}" % terms, _compile((lhs, Dot(lhs, post))), terms=terms)


# ---------------------------------------------------------------------------
# Instantiation spaces


def states_for(n_states: int) -> tuple[str, ...]:
    return tuple(f"w{i + 1}" for i in range(n_states))


def _grid_values(lattice: LatticeId, godel_grid) -> tuple[set[Fraction], int]:
    """The values a cell's components range over, and k, the number of cells:
    every (tt, ff) pair, but over bool2 only its two consistent corners."""
    if godel_grid is not None and lattice is not LatticeId.GODEL:
        raise EngineError(f"a godel grid applies only to the godel lattice, not {lattice.value}")
    grid = DEFAULT_GODEL_GRID if godel_grid is None else tuple(godel_grid)
    if lattice is not LatticeId.GODEL:
        grid = carrier(lattice)
    elif not grid:
        raise EngineError("an empty interval grid makes no candidates")
    values = {elem(lattice, g).value for g in grid}
    return values, 2 if lattice is LatticeId.BOOL2 else len(values) ** 2


def _parse_grid(text: str | None):
    """The ``--godel-grid`` option's values, or None when it is not given."""
    try:
        return None if text is None else tuple(elem(LatticeId.GODEL, p) for p in text.split(","))
    except CarrierError as exc:
        raise EngineError(f"bad --godel-grid value: {exc}") from exc


def _space(lattice: LatticeId, godel_grid):
    """The ``bitslice._Space`` of one (lattice, grid), nearest classical
    consistency first: built once per check, unless k > ``MAX_EXHAUSTIVE``;
    its loops draw from it.  Over the common denominator ``d`` of the table,
    value ``i`` is the integer ``a[i]``, so |tt + ff - 1| orders as
    |a[tt] + a[ff] - d| and values as ranks; the space is the first k cells
    in that order, ties in the product's (tt, ff) order, which the stable
    sort keeps."""
    from .bitslice import _Space

    members, k = _grid_values(lattice, godel_grid)
    if k > MAX_EXHAUSTIVE:
        raise EngineError(f"candidate space of {_count(k)} weights exceeds {MAX_EXHAUSTIVE}")
    values = value_table(members)
    ranks = [i for i, v in enumerate(values) if v in members]
    d = lcm(*(v.denominator for v in values))
    a = [v.numerator * (d // v.denominator) for v in values]
    cells = sorted(product(ranks, ranks), key=lambda c: abs(a[c[0]] + a[c[1]] - d))
    return _Space(values, tuple(cells[:k]))  # bool2's 2 consistent corners alone sit at distance 0


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
    n, ranks = len(states), range(len(space.table))
    programs, tests = {}, {}
    for name, test, start, stop in spans:
        cells = [space.cells[i] for i in instance[start:stop]]
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
# Law checking


def _first_break(lhs: PRel, rhs: PRel, require_leq: bool):
    """The first entry where lhs = rhs (lhs <= rhs) fails, decoded; else None."""
    lhs, rhs = align(lhs, rhs)
    for k, (a, b) in enumerate(zip(lhs.bits, rhs.bits)):
        if a & ~b if require_leq else a != b:
            n = len(lhs.states)
            return (lhs.states[k // n], lhs.states[k % n]), lhs.cell(k), rhs.cell(k)


def _break(law: _Law, env: Mapping[str, PRel], zer: PRel):
    """None when the instance ``env``, with ``zer`` its ``0``, satisfies the
    law, else its first break: the entry and the two sides' weights there.
    A pair of sides runs only when the pairs before it held."""
    names, steps, roots = law.code
    slots = [zer, *map(env.__getitem__, names)]
    sides = (_fill(slots, steps, root) for root in roots)
    if law.horn and not r_leq(next(sides), next(sides)):
        return None
    for left, right in zip(sides, sides):
        found = _first_break(left, right, law.horn)
        if found is not None:
            return found


def _verdict(law: _Law, model: Model, mode: str, **fields) -> Verdict:
    """The law checked on the relations of ``model``: holds, or fails with
    their first break as the witness, which carries the model if the law
    has user ``terms``."""
    env = _atom_assignment(model, law.code[0])
    found = _break(law, env, zero(model.lattice, model.states))
    if found is not None:
        shown = model if law.terms is not None else None
        fields["witness"] = Witness(env, *found, law.formula, shown, law.terms)
    status = Status.HOLDS if found is None else Status.FAILS
    return Verdict(status, model.lattice, len(model.states), mode, **fields)


def _count(count: int) -> str:
    """A count as a refusal prints it: in full up to 30 digits, else as %.2e."""
    return str(count) if count < 10**30 else f"{Decimal(count):.2e}"


def _guard(law: _Law, k: int, n_states: int) -> None:
    """Refuse a law with more than ``MAX_EXHAUSTIVE`` assignments over ``k``
    candidates.  For k >= 2, 2^bit_length already exceeds the bound, so
    that many cells are refused before any huge count is built."""
    cells = _spans(law, n_states)[1]
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
    from .bitslice import _breaks, _encode

    n, k = len(states), len(space.cells)
    verdicts, count, size = {}, 0, 1
    while len(verdicts) < len(runs) and (chunk := list(islice(instances, size))):
        cells = _encode(chunk, space, 2 * space.top)
        for i, (law, how, axiom, spans) in runs.items():
            b = None if i in verdicts else _breaks(law, spans, cells, len(chunk), space, n)
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
    if n_states < 1:
        raise EngineError("need at least one state")
    k = _grid_values(lattice, godel_grid)[1]
    streams, work = {}, 1
    for i, (law, how, axiom) in enumerate(plan):
        (spans, width), fixed = _spans(law, n_states), 0
        if how == "random":
            if not samples or samples < 1:
                raise EngineError("random mode needs a positive sample count")
            if not isinstance(seed, int):  # random.Random(None) would draw from the OS
                raise EngineError(f"random mode needs an int seed, got {type(seed).__name__}")
            work = max(work, samples)
        elif not law.horn and [x in law.tests for x in law.code[0]] == [True]:
            fixed, work = n_states - 1, max(work, k)  # a walk of k instances, as work
        else:
            _guard(law, k, n_states)
        streams.setdefault((how == "random", width, fixed), {})[i] = law, how, axiom, spans
    _guard_steps(work, n_states)
    space, states, verdicts = _space(lattice, godel_grid), states_for(n_states), {}
    for (drawn, width, fixed), runs in streams.items():
        instances = (_draws(random.Random(seed), k, width, samples) if drawn else
                     _walk(k, width, fixed))
        verdicts |= _drive(runs, instances, lattice, states, space, seed if drawn else None, fixed)
    return [verdicts[i] for i in range(len(plan))]


# ---------------------------------------------------------------------------
# Term equivalence and triples


def equiv(t1: Term, t2: Term, model: Model) -> Verdict:
    """Exact equality of the two interpretations on one model."""
    sort_check(t1, model)
    sort_check(t2, model)
    return _verdict(_equation(t1, t2, model.tests), model, "model")


def equiv_random(
    t1: Term,
    t2: Term,
    lattice: LatticeId,
    n_states: int,
    samples: int,
    seed: int,
    *,
    test_names: Iterable[str] = (),
    godel_grid=None,
) -> Verdict:
    """Compare two terms on seeded random models.

    A holds verdict means no countermodel was found among the samples,
    not a proof; a fails verdict carries the first countermodel.
    """
    if not samples or samples < 1:
        raise EngineError("need a positive sample count")
    tests = frozenset(test_names)
    programs = (atoms(t1) | atoms(t2)) - tests
    for term in (t1, t2):
        sort_of(term, programs, tests)
    law = _equation(t1, t2, tests)
    return _check([(law, "random", None)], lattice, n_states, godel_grid, samples, seed)[0]


def hoare_check(pre: Term, prog: Term, post: Term, model: Model) -> Verdict:
    """Triple {pre} prog {post}: require pre;prog = pre;prog;post (see ``_triple``)."""
    if sort_check(pre, model) is not Sort.TEST:
        raise SortError("the precondition must be a test")
    if sort_check(post, model) is not Sort.TEST:
        raise SortError("the postcondition must be a test")
    sort_check(prog, model)
    return _verdict(_triple(pre, prog, post), model, "model")


# ---------------------------------------------------------------------------
# Verdict plumbing


def witness_parts(verdict: Verdict, unicode: bool, eq: str) -> list[str]:
    """A witness as text: each assigned relation as ``name{eq}{(u,v): w, ...}``,
    then the entry where the law breaks."""
    w = verdict.witness
    parts = [
        f"{name}{eq}{{"
        + ", ".join(f"({u},{v}): {x}" for (u, v), x in
                    rel.pairs(lambda x: format_weight(x, unicode)))
        + "}"
        for name, rel in w.assignment.items()
    ]
    u, v = w.entry
    lhs, rhs = format_weight(w.lhs, unicode), format_weight(w.rhs, unicode)
    return parts + [f"at ({u},{v}): lhs={lhs} rhs={rhs}"]


def _witness_to_dict(w: Witness) -> dict:
    out = {
        "assignment": {name: prel_to_entries(rel) for name, rel in w.assignment.items()},
        "entry": list(w.entry),
        "lhs": weight_to_json(w.lhs),
        "rhs": weight_to_json(w.rhs),
        "formula": w.formula,
    }
    if w.terms is not None:
        out["terms"] = list(w.terms)
    if w.model is not None:
        out["model"] = model_to_dict(w.model)
    return out


def verdict_to_dict(v: Verdict) -> dict:
    out = {
        "axiom": v.axiom.value if v.axiom is not None else None,
        "lattice": v.lattice.value,
        "states": v.n_states,
        "mode": v.mode,
        "status": v.status.value,
    }
    if v.witness is not None:
        out["witness"] = _witness_to_dict(v.witness)
    out["samples"] = v.samples
    out["seed"] = v.seed
    return out
