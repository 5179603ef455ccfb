"""Interprets terms over models and verifies the algebra mechanically.

Terms evaluate compositionally to weight matrices.  Axiom checking
instantiates matrix variables either exhaustively over a finite weight
space or by seeded sampling; equivalence checking compares two terms on
a given model or on a stream of random models.

Candidate spaces are enumerated deterministically, ordered by distance
from classical consistency (|tt + ff - 1|, ties broken by component),
so a reported counterexample is the most conservative one available.
Over the Boolean lattice, generated weights are restricted to the
classical corners TOP and BOT, which makes that instance ordinary
relation algebra; the three-valued chain uses all nine pairs and the
interval lattice all pairs over a finite grid (default 0, 1/4, 1/2,
3/4, 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import EngineError, SortError
from .lattice import LatticeId, carrier, elem
from .plts import Model, model_to_dict, program_relation, diagonal_relation
from .relp import (
    PRel,
    align,
    from_ranks,
    identity,
    prel_to_entries,
    r_dot,
    r_leq,
    r_plus,
    r_star,
    t_complement,
    value_table,
    zero,
)
from .syntax import (
    Atom,
    Dot,
    Not,
    One,
    Plus,
    Sort,
    Star,
    Term,
    Zero,
    atoms,
    parse,
    pretty,
    sort_check,
    sort_of,
)
from .twist import Weight, weight_to_json

DEFAULT_GODEL_GRID: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)

MAX_EXHAUSTIVE = 10**6


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


class AxiomId(Enum):
    """The axiom catalog: a Kleene algebra whose tests form a
    distributive complemented-lattice fragment; 219/220 are the two
    Boolean principles the paraconsistent reading drops."""

    PLUS_ASSOC = 1
    PLUS_COMM = 2
    PLUS_ZERO = 3
    PLUS_IDEM = 4
    DOT_ASSOC = 5
    DOT_ONE = 6
    DOT_DIST_L = 7
    DOT_DIST_R = 8
    DOT_ZERO = 9
    STAR_UNFOLD_L = 10
    STAR_UNFOLD_R = 11
    STAR_IND_L = 14
    STAR_IND_R = 15
    TEST_PLUS_OVER_DOT = 213
    TEST_DOT_COMM = 214
    TEST_DOT_OVER_PLUS = 215
    TEST_DOT_IDEM = 216
    TEST_DOUBLE_NEG = 217
    TEST_PLUS_ONE = 218
    TEST_NON_CONTRA = 219
    TEST_EXCL_MIDDLE = 220

    @property
    def slug(self) -> str:
        return self.name.lower().replace("_", "-")


CORE_AXIOMS = tuple(a for a in AxiomId if a.value < 219)
BOOLEAN_AXIOMS = (AxiomId.TEST_NON_CONTRA, AxiomId.TEST_EXCL_MIDDLE)


@dataclass(frozen=True)
class Witness:
    """Enough data to reproduce a failure independently."""

    assignment: dict[str, PRel]
    entry: tuple[str, str]
    lhs: Weight
    rhs: Weight
    formula: str
    model: Model | None = None
    terms: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Verdict:
    status: Status
    lattice: LatticeId
    n_states: int
    mode: str
    axiom: AxiomId | None = None
    witness: Witness | None = None
    samples: int | None = None
    seed: int | None = None


_Side = Callable[[Mapping[str, PRel], PRel, PRel], PRel]


@dataclass(frozen=True)
class _Axiom:
    ident: AxiomId
    formula: str
    vars: tuple[tuple[str, Sort], ...]
    equations: tuple[tuple[_Side, _Side], ...] = ()
    implication: tuple[tuple[_Side, _Side], tuple[_Side, _Side]] | None = None


def _build_catalog() -> dict[AxiomId, _Axiom]:
    P, T = Sort.PROGRAM, Sort.TEST
    table = [
        _Axiom(
            AxiomId.PLUS_ASSOC,
            "p + (q + r) = (p + q) + r",
            (("p", P), ("q", P), ("r", P)),
            equations=(
                (
                    lambda e, I, Z: r_plus(e["p"], r_plus(e["q"], e["r"])),
                    lambda e, I, Z: r_plus(r_plus(e["p"], e["q"]), e["r"]),
                ),
            ),
        ),
        _Axiom(
            AxiomId.PLUS_COMM,
            "p + q = q + p",
            (("p", P), ("q", P)),
            equations=(
                (
                    lambda e, I, Z: r_plus(e["p"], e["q"]),
                    lambda e, I, Z: r_plus(e["q"], e["p"]),
                ),
            ),
        ),
        _Axiom(
            AxiomId.PLUS_ZERO,
            "p + 0 = p",
            (("p", P),),
            equations=(
                (lambda e, I, Z: r_plus(e["p"], Z), lambda e, I, Z: e["p"]),
            ),
        ),
        _Axiom(
            AxiomId.PLUS_IDEM,
            "p + p = p",
            (("p", P),),
            equations=(
                (lambda e, I, Z: r_plus(e["p"], e["p"]), lambda e, I, Z: e["p"]),
            ),
        ),
        _Axiom(
            AxiomId.DOT_ASSOC,
            "p;(q;r) = (p;q);r",
            (("p", P), ("q", P), ("r", P)),
            equations=(
                (
                    lambda e, I, Z: r_dot(e["p"], r_dot(e["q"], e["r"])),
                    lambda e, I, Z: r_dot(r_dot(e["p"], e["q"]), e["r"]),
                ),
            ),
        ),
        _Axiom(
            AxiomId.DOT_ONE,
            "1;p = p;1 = p",
            (("p", P),),
            equations=(
                (lambda e, I, Z: r_dot(I, e["p"]), lambda e, I, Z: e["p"]),
                (lambda e, I, Z: r_dot(e["p"], I), lambda e, I, Z: e["p"]),
            ),
        ),
        _Axiom(
            AxiomId.DOT_DIST_L,
            "p;(q + r) = p;q + p;r",
            (("p", P), ("q", P), ("r", P)),
            equations=(
                (
                    lambda e, I, Z: r_dot(e["p"], r_plus(e["q"], e["r"])),
                    lambda e, I, Z: r_plus(r_dot(e["p"], e["q"]), r_dot(e["p"], e["r"])),
                ),
            ),
        ),
        _Axiom(
            AxiomId.DOT_DIST_R,
            "(p + q);r = p;r + q;r",
            (("p", P), ("q", P), ("r", P)),
            equations=(
                (
                    lambda e, I, Z: r_dot(r_plus(e["p"], e["q"]), e["r"]),
                    lambda e, I, Z: r_plus(r_dot(e["p"], e["r"]), r_dot(e["q"], e["r"])),
                ),
            ),
        ),
        _Axiom(
            AxiomId.DOT_ZERO,
            "0;p = p;0 = 0",
            (("p", P),),
            equations=(
                (lambda e, I, Z: r_dot(Z, e["p"]), lambda e, I, Z: Z),
                (lambda e, I, Z: r_dot(e["p"], Z), lambda e, I, Z: Z),
            ),
        ),
        _Axiom(
            AxiomId.STAR_UNFOLD_L,
            "1 + p;p* = p*",
            (("p", P),),
            equations=(
                (
                    lambda e, I, Z: r_plus(I, r_dot(e["p"], r_star(e["p"]))),
                    lambda e, I, Z: r_star(e["p"]),
                ),
            ),
        ),
        _Axiom(
            AxiomId.STAR_UNFOLD_R,
            "1 + p*;p = p*",
            (("p", P),),
            equations=(
                (
                    lambda e, I, Z: r_plus(I, r_dot(r_star(e["p"]), e["p"])),
                    lambda e, I, Z: r_star(e["p"]),
                ),
            ),
        ),
        _Axiom(
            AxiomId.STAR_IND_L,
            "p;r <= r  ->  p*;r <= r",
            (("p", P), ("r", P)),
            implication=(
                (lambda e, I, Z: r_dot(e["p"], e["r"]), lambda e, I, Z: e["r"]),
                (
                    lambda e, I, Z: r_dot(r_star(e["p"]), e["r"]),
                    lambda e, I, Z: e["r"],
                ),
            ),
        ),
        _Axiom(
            AxiomId.STAR_IND_R,
            "r;p <= r  ->  r;p* <= r",
            (("p", P), ("r", P)),
            implication=(
                (lambda e, I, Z: r_dot(e["r"], e["p"]), lambda e, I, Z: e["r"]),
                (
                    lambda e, I, Z: r_dot(e["r"], r_star(e["p"])),
                    lambda e, I, Z: e["r"],
                ),
            ),
        ),
        _Axiom(
            AxiomId.TEST_PLUS_OVER_DOT,
            "a + b;c = (a + b);(a + c)",
            (("a", T), ("b", T), ("c", T)),
            equations=(
                (
                    lambda e, I, Z: r_plus(e["a"], r_dot(e["b"], e["c"])),
                    lambda e, I, Z: r_dot(r_plus(e["a"], e["b"]), r_plus(e["a"], e["c"])),
                ),
            ),
        ),
        _Axiom(
            AxiomId.TEST_DOT_COMM,
            "a;b = b;a",
            (("a", T), ("b", T)),
            equations=(
                (
                    lambda e, I, Z: r_dot(e["a"], e["b"]),
                    lambda e, I, Z: r_dot(e["b"], e["a"]),
                ),
            ),
        ),
        _Axiom(
            AxiomId.TEST_DOT_OVER_PLUS,
            "a;b + c = (a + c);(b + c)",
            (("a", T), ("b", T), ("c", T)),
            equations=(
                (
                    lambda e, I, Z: r_plus(r_dot(e["a"], e["b"]), e["c"]),
                    lambda e, I, Z: r_dot(r_plus(e["a"], e["c"]), r_plus(e["b"], e["c"])),
                ),
            ),
        ),
        _Axiom(
            AxiomId.TEST_DOT_IDEM,
            "a;a = a",
            (("a", T),),
            equations=(
                (lambda e, I, Z: r_dot(e["a"], e["a"]), lambda e, I, Z: e["a"]),
            ),
        ),
        _Axiom(
            AxiomId.TEST_DOUBLE_NEG,
            "!!a = a",
            (("a", T),),
            equations=(
                (
                    lambda e, I, Z: t_complement(t_complement(e["a"])),
                    lambda e, I, Z: e["a"],
                ),
            ),
        ),
        _Axiom(
            AxiomId.TEST_PLUS_ONE,
            "a + 1 = 1",
            (("a", T),),
            equations=(
                (lambda e, I, Z: r_plus(e["a"], I), lambda e, I, Z: I),
            ),
        ),
        _Axiom(
            AxiomId.TEST_NON_CONTRA,
            "a;!a = 0",
            (("a", T),),
            equations=(
                (lambda e, I, Z: r_dot(e["a"], t_complement(e["a"])), lambda e, I, Z: Z),
            ),
        ),
        _Axiom(
            AxiomId.TEST_EXCL_MIDDLE,
            "a + !a = 1",
            (("a", T),),
            equations=(
                (lambda e, I, Z: r_plus(e["a"], t_complement(e["a"])), lambda e, I, Z: I),
            ),
        ),
    ]
    return {ax.ident: ax for ax in table}


_AXIOMS = _build_catalog()


def axiom_formula(axiom: AxiomId) -> str:
    return _AXIOMS[axiom].formula


# ---------------------------------------------------------------------------
# Term evaluation


def evaluate(term: Term, model: Model) -> PRel:
    """Interpret a term as a weight matrix over the model's states."""
    sort_check(term, model)
    return _eval(term, model)


def _eval(term: Term, model: Model) -> PRel:
    match term:
        case Zero():
            return zero(model.lattice, model.states, model.values)
        case One():
            return identity(model.lattice, model.states, model.values)
        case Atom(name):
            if name in model.programs:
                return program_relation(model, name)
            return diagonal_relation(model, name)
        case Plus(left, right):
            return r_plus(_eval(left, model), _eval(right, model))
        case Dot(left, right):
            return r_dot(_eval(left, model), _eval(right, model))
        case Star(inner):
            return r_star(_eval(inner, model))
        case Not(inner):
            return t_complement(_eval(inner, model))


# ---------------------------------------------------------------------------
# Instantiation spaces


def states_for(n_states: int) -> tuple[str, ...]:
    if n_states < 1:
        raise EngineError("need at least one state")
    return tuple(f"w{i + 1}" for i in range(n_states))


def _grid_elems(lattice: LatticeId, godel_grid) -> tuple:
    if lattice is LatticeId.GODEL:
        grid = DEFAULT_GODEL_GRID if godel_grid is None else tuple(godel_grid)
        if not grid:
            raise EngineError("an empty interval grid makes no candidates")
        return tuple(dict.fromkeys(elem(lattice, g) for g in grid))
    return carrier(lattice)


@dataclass(frozen=True)
class _Space:
    """The candidates of one (lattice, grid), nearest classical consistency
    first: each a weight with its (tt, ff) ranks into ``values``."""

    values: tuple[Fraction, ...]
    cells: tuple[tuple[Weight, int, int], ...]


def _space(lattice: LatticeId, godel_grid) -> _Space:
    """Built once per check; its loops draw from it."""
    elems = _grid_elems(lattice, godel_grid)
    pairs = [Weight(t, f) for t in elems for f in elems]
    if lattice is LatticeId.BOOL2:
        pairs = [w for w in pairs if w.tt.value + w.ff.value == 1]
    pairs.sort(key=lambda w: (abs(w.tt.value + w.ff.value - 1), w.tt.value, w.ff.value))
    values = value_table(e.value for e in elems)
    return _Space(values, tuple(
        (w, values.index(w.tt.value), values.index(w.ff.value)) for w in pairs
    ))


def weight_space(lattice: LatticeId, godel_grid=None) -> tuple[Weight, ...]:
    """All candidate weights, nearest classical consistency first.

    Over the Boolean lattice only the consistent corners TOP and BOT
    are generated, so checks over it coincide with ordinary relations.
    """
    return tuple(w for w, _, _ in _space(lattice, godel_grid).cells)


def _matrix(lattice, states, space: _Space, cells) -> PRel:
    _, tt, ff = zip(*cells)
    return from_ranks(lattice, states, space.values, tt, ff)


def _test_matrix(lattice, states, space: _Space, diagonal) -> PRel:
    """The test carrying the space cells ``diagonal`` on its diagonal."""
    n, bot = len(states), (None, 0, len(space.values) - 1)
    cells = [diagonal[k // (n + 1)] if k % (n + 1) == 0 else bot for k in range(n * n)]
    return _matrix(lattice, states, space, cells)


def _nth_matrix(
    lattice: LatticeId,
    states: tuple[str, ...],
    space: _Space,
    diagonal_only: bool,
    index: int,
) -> PRel:
    """Decode the index-th matrix in lexicographic cell order."""
    n = len(states)
    cells = n if diagonal_only else n * n
    digits = []
    rem = index
    for _ in range(cells):
        rem, d = divmod(rem, len(space.cells))
        digits.append(space.cells[d])
    digits.reverse()
    build = _test_matrix if diagonal_only else _matrix
    return build(lattice, states, space, digits)


def _draw(rng: random.Random, space: _Space, count: int) -> list:
    return [rng.choice(space.cells) for _ in range(count)]


def random_prel(
    rng: random.Random, lattice: LatticeId, states: tuple[str, ...], godel_grid=None
) -> PRel:
    space = _space(lattice, godel_grid)
    return _matrix(lattice, states, space, _draw(rng, space, len(states) ** 2))


def random_test(
    rng: random.Random, lattice: LatticeId, states: tuple[str, ...], godel_grid=None
) -> PRel:
    space = _space(lattice, godel_grid)
    return _test_matrix(lattice, states, space, _draw(rng, space, len(states)))


def random_model(
    rng: random.Random,
    lattice: LatticeId,
    states: tuple[str, ...],
    program_names: Iterable[str],
    test_names: Iterable[str],
    godel_grid=None,
) -> Model:
    space = _space(lattice, godel_grid)
    return _random_model(rng, lattice, states, space, program_names, test_names)


def _random_model(rng, lattice, states, space: _Space, program_names, test_names) -> Model:
    programs = {
        name: _matrix(lattice, states, space, _draw(rng, space, len(states) ** 2))
        for name in sorted(program_names)
    }
    tests, diagonals = {}, {}
    for name in sorted(test_names):
        drawn = _draw(rng, space, len(states))
        tests[name] = {s: w for s, (w, _, _) in zip(states, drawn)}
        diagonals[name] = _test_matrix(lattice, states, space, drawn)
    return Model(lattice, states, programs, tests, values=space.values, diagonals=diagonals)


# ---------------------------------------------------------------------------
# Axiom checking


def _first_break(lhs: PRel, rhs: PRel, require_leq: bool):
    """The first entry where lhs = rhs (lhs <= rhs) fails, decoded; else None."""
    if r_leq(lhs, rhs) if require_leq else lhs == rhs:
        return None
    lhs, rhs = align(lhs, rhs)
    cells = zip(lhs.tt, rhs.tt, lhs.ff, rhs.ff)
    for k, (lt, rt, lf, rf) in enumerate(cells):
        if (lt > rt or lf < rf) if require_leq else (lt != rt or lf != rf):
            n = len(lhs.states)
            u, v = lhs.states[k // n], lhs.states[k % n]
            return (u, v), lhs.entry(u, v), rhs.entry(u, v)


def _check_instance(ax: _Axiom, env: Mapping[str, PRel], ident: PRel, zer: PRel):
    """None when the instance satisfies the axiom, else the break info."""
    if ax.implication is not None:
        (pl, pr), (cl, cr) = ax.implication
        if not r_leq(pl(env, ident, zer), pr(env, ident, zer)):
            return None
        lhs, rhs = cl(env, ident, zer), cr(env, ident, zer)
        return _first_break(lhs, rhs, require_leq=True)
    for fl, fr in ax.equations:
        lhs, rhs = fl(env, ident, zer), fr(env, ident, zer)
        found = _first_break(lhs, rhs, require_leq=False)
        if found is not None:
            return found
    return None


def check_axiom(
    axiom: AxiomId | int,
    lattice: LatticeId,
    n_states: int,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int | None = None,
    godel_grid=None,
    max_space: int = MAX_EXHAUSTIVE,
) -> Verdict:
    """Check one axiom by instantiating its variables over relations.

    Exhaustive mode walks the whole finite instantiation space (refused
    above ``max_space``); random mode draws seeded samples.  A failing
    verdict carries the first counterexample in enumeration order.
    """
    ax = _AXIOMS[AxiomId(axiom)]
    states, n = states_for(n_states), n_states
    space = _space(lattice, godel_grid)
    ident = identity(lattice, states, space.values)
    zer = zero(lattice, states, space.values)

    def fails(env, found, checked):
        entry, lw, rw = found
        return Verdict(
            Status.FAILS,
            lattice,
            n_states,
            mode,
            axiom=ax.ident,
            witness=Witness(dict(env), entry, lw, rw, ax.formula),
            samples=checked,
            seed=seed if mode == "random" else None,
        )

    if mode == "exhaustive":
        sizes = [
            len(space.cells) ** (n if sort is Sort.TEST else n * n) for _, sort in ax.vars
        ]
        total = 1
        for size in sizes:
            total *= size
        if total > max_space:
            raise EngineError(
                f"exhaustive space of {total} instantiations exceeds {max_space}"
            )
        for index in range(total):
            rem = index
            digits = []
            for size in reversed(sizes):
                rem, d = divmod(rem, size)
                digits.append(d)
            digits.reverse()
            env = {
                name: _nth_matrix(lattice, states, space, sort is Sort.TEST, d)
                for (name, sort), d in zip(ax.vars, digits)
            }
            found = _check_instance(ax, env, ident, zer)
            if found is not None:
                return fails(env, found, index + 1)
        return Verdict(
            Status.HOLDS, lattice, n_states, mode, axiom=ax.ident, samples=total
        )

    if mode == "random":
        if not samples or samples < 1:
            raise EngineError("random mode needs a positive sample count")
        rng = random.Random(seed)
        for k in range(1, samples + 1):
            env = {
                name: (
                    _test_matrix(lattice, states, space, _draw(rng, space, n))
                    if sort is Sort.TEST
                    else _matrix(lattice, states, space, _draw(rng, space, n * n))
                )
                for name, sort in ax.vars
            }
            found = _check_instance(ax, env, ident, zer)
            if found is not None:
                return fails(env, found, k)
        return Verdict(
            Status.HOLDS,
            lattice,
            n_states,
            mode,
            axiom=ax.ident,
            samples=samples,
            seed=seed,
        )

    raise EngineError(f"unknown mode {mode!r}")


def find_boolean_witness(
    lattice: LatticeId,
    n_states: int,
    godel_grid=None,
    max_space: int = MAX_EXHAUSTIVE,
) -> dict[AxiomId, Verdict]:
    """Search tests refuting non-contradiction and excluded middle.

    Candidates are enumerated deterministically (nearest classical
    consistency first); each returned verdict reports the first
    violating test, or holds when the whole space is clean.
    """
    states = states_for(n_states)
    space = _space(lattice, godel_grid)
    total = len(space.cells) ** len(states)
    if total > max_space:
        raise EngineError(
            f"witness space of {total} candidates exceeds {max_space}"
        )
    ident = identity(lattice, states, space.values)
    zer = zero(lattice, states, space.values)
    goals = {
        AxiomId.TEST_NON_CONTRA: lambda t, tc: (r_dot(t, tc), zer),
        AxiomId.TEST_EXCL_MIDDLE: lambda t, tc: (r_plus(t, tc), ident),
    }
    out: dict[AxiomId, Verdict] = {}
    for index in range(total):
        t = _nth_matrix(lattice, states, space, True, index)
        tc = t_complement(t)
        for ident_ax, build in goals.items():
            if ident_ax in out:
                continue
            lhs, rhs = build(t, tc)
            found = _first_break(lhs, rhs, require_leq=False)
            if found is not None:
                entry, lw, rw = found
                out[ident_ax] = Verdict(
                    Status.FAILS,
                    lattice,
                    n_states,
                    "search",
                    axiom=ident_ax,
                    witness=Witness({"a": t}, entry, lw, rw, axiom_formula(ident_ax)),
                    samples=index + 1,
                )
        if len(out) == len(goals):
            break
    for ident_ax in goals:
        if ident_ax not in out:
            out[ident_ax] = Verdict(
                Status.HOLDS, lattice, n_states, "search", axiom=ident_ax, samples=total
            )
    return {ax: out[ax] for ax in BOOLEAN_AXIOMS}


# ---------------------------------------------------------------------------
# Term equivalence and triples


def _atom_assignment(model: Model, names: Iterable[str]) -> dict[str, PRel]:
    out = {}
    for name in sorted(names):
        if name in model.programs:
            out[name] = model.programs[name]
        else:
            out[name] = diagonal_relation(model, name)
    return out


def equiv(t1: Term, t2: Term, model: Model) -> Verdict:
    """Exact equality of the two interpretations on one model."""
    sort_check(t1, model)
    sort_check(t2, model)
    lhs, rhs = _eval(t1, model), _eval(t2, model)
    if lhs == rhs:
        return Verdict(Status.HOLDS, model.lattice, len(model.states), "model")
    entry, lw, rw = _first_break(lhs, rhs, require_leq=False)
    witness = Witness(
        _atom_assignment(model, atoms(t1) | atoms(t2)),
        entry,
        lw,
        rw,
        f"{pretty(t1)} = {pretty(t2)}",
        model=model,
        terms=(pretty(t1), pretty(t2)),
    )
    return Verdict(
        Status.FAILS, model.lattice, len(model.states), "model", witness=witness
    )


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
    if samples < 1:
        raise EngineError("need a positive sample count")
    names = atoms(t1) | atoms(t2)
    tests = frozenset(test_names)
    programs = names - tests
    for term in (t1, t2):
        sort_of(term, programs, tests)
    states = states_for(n_states)
    rng = random.Random(seed)
    space = _space(lattice, godel_grid)
    for k in range(1, samples + 1):
        model = _random_model(rng, lattice, states, space, programs, tests & names)
        lhs, rhs = _eval(t1, model), _eval(t2, model)
        if lhs != rhs:
            entry, lw, rw = _first_break(lhs, rhs, require_leq=False)
            witness = Witness(
                _atom_assignment(model, names),
                entry,
                lw,
                rw,
                f"{pretty(t1)} = {pretty(t2)}",
                model=model,
                terms=(pretty(t1), pretty(t2)),
            )
            return Verdict(
                Status.FAILS,
                lattice,
                n_states,
                "random",
                witness=witness,
                samples=k,
                seed=seed,
            )
    return Verdict(
        Status.HOLDS, lattice, n_states, "random", samples=samples, seed=seed
    )


def hoare_check(pre: Term, prog: Term, post: Term, model: Model) -> Verdict:
    """Triple {pre} prog {post}: require pre;prog <= pre;prog;post."""
    if sort_check(pre, model) is not Sort.TEST:
        raise SortError("the precondition must be a test")
    if sort_check(post, model) is not Sort.TEST:
        raise SortError("the postcondition must be a test")
    sort_check(prog, model)
    lhs = r_dot(_eval(pre, model), _eval(prog, model))
    rhs = r_dot(lhs, _eval(post, model))
    formula = f"{{{pretty(pre)}}} {pretty(prog)} {{{pretty(post)}}}"
    if r_leq(lhs, rhs):
        return Verdict(Status.HOLDS, model.lattice, len(model.states), "model")
    entry, lw, rw = _first_break(lhs, rhs, require_leq=True)
    witness = Witness(
        _atom_assignment(model, atoms(pre) | atoms(prog) | atoms(post)),
        entry,
        lw,
        rw,
        formula,
        model=model,
        terms=(pretty(pre), pretty(prog), pretty(post)),
    )
    return Verdict(
        Status.FAILS, model.lattice, len(model.states), "model", witness=witness
    )


# ---------------------------------------------------------------------------
# Verdict plumbing


def recheck(verdict: Verdict) -> bool:
    """Re-evaluate a failing verdict's witness; True iff it reproduces."""
    if verdict.status is not Status.FAILS or verdict.witness is None:
        raise EngineError("only failing verdicts carry a witness to recheck")
    w = verdict.witness
    if verdict.axiom is not None:
        ax = _AXIOMS[verdict.axiom]
        some = next(iter(w.assignment.values()))
        ident = identity(some.lattice, some.states, some.values)
        zer = zero(some.lattice, some.states, some.values)
        return _check_instance(ax, w.assignment, ident, zer) is not None
    if w.terms is not None and w.model is not None:
        parsed = [parse(t) for t in w.terms]
        if len(parsed) == 2:
            return equiv(parsed[0], parsed[1], w.model).status is Status.FAILS
        if len(parsed) == 3:
            again = hoare_check(parsed[0], parsed[1], parsed[2], w.model)
            return again.status is Status.FAILS
    raise EngineError("verdict carries no recheckable witness")


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
