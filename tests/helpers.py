"""Shared test fixtures: value shortcuts, independent oracles, generators.

Oracles here are written from the definitions (dict matrices, plain
set relations, pointwise folds) so library shortcuts are checked
against a second route.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import accumulate, product
from operator import ge, le

from hypothesis import strategies as st

from pkat.bitslice import _Space, states_for
from pkat.engine import Status, Verdict, Witness, _break, _equation
from pkat.errors import CarrierError, LatticeMismatchError, ModelError
from pkat.lattice import LatticeElem, LatticeId, elem
from pkat.plts import Model
from pkat.relp import (
    _ranks,
    from_cells,
    from_diagonal,
    from_entries,
    identity,
    r_dot,
    r_plus,
    r_star,
    t_complement,
    value_table,
    zero,
)
from pkat.syntax import Atom, Dot, Not, One, Plus, Star, Term, Zero, _atom_assignment, atoms
from pkat.twist import Weight, weight, wbot, wjoin, wmeet, wtop

L3 = LatticeId.LUKASIEWICZ3
B2 = LatticeId.BOOL2
GD = LatticeId.GODEL

BOT = elem(L3, "bot")
U = elem(L3, "u")
TOP = elem(L3, "top")

LUKA_ELEMS = (BOT, U, TOP)
LUKA_WEIGHTS = tuple(Weight(t, f) for t in LUKA_ELEMS for f in LUKA_ELEMS)


def lw(tt: str, ff: str) -> Weight:
    return weight(L3, tt, ff)


def gw(tt, ff) -> Weight:
    return weight(GD, tt, ff)


def random_godel_elem(rng: random.Random, max_denominator: int = 16):
    d = rng.randint(1, max_denominator)
    return elem(GD, Fraction(rng.randint(0, d), d))


# --- dict-matrix oracle (independent of the PRel composition path) ---------


def dict_matrix(rel) -> dict:
    return {pair: w for pair, w in rel.pairs()}


def oracle_dot(states, a: dict, b: dict, lattice) -> dict:
    out = {}
    for u in states:
        for v in states:
            acc = wbot(lattice)
            for w in states:
                acc = wjoin(acc, wmeet(a[(u, w)], b[(w, v)]))
            out[(u, v)] = acc
    return out


def oracle_identity(states, lattice) -> dict:
    t, b = wtop(lattice), wbot(lattice)
    return {(u, v): t if u == v else b for u in states for v in states}


def oracle_star(states, a: dict, lattice, max_power: int) -> dict:
    """Join of matrix powers 0..max_power, straight from the definition."""
    acc = oracle_identity(states, lattice)
    power = oracle_identity(states, lattice)
    for _ in range(max_power):
        power = oracle_dot(states, a, power, lattice)
        acc = {k: wjoin(acc[k], power[k]) for k in acc}
    return acc


# --- ranks and spaces through the library's encoders (relp, bitslice._Space) ---


def from_rank_lists(lattice, states, values, tt, ff):
    """The relation whose row-major cells hold ranks ``tt`` and ``ff`` into ``values``."""
    return from_cells(lattice, states, values, dict(enumerate(zip(tt, ff))), range(len(values)))


def rank_lists(rel) -> tuple:
    """(tt, ff): each cell's support and opposition rank, row-major, decoded."""
    top = len(rel.values) - 1
    return tuple(zip(*(_ranks(c, top) for c in rel.bits)))


def space_weights(lattice, godel_grid=None) -> tuple:
    """The weights of ``bitslice._Space``'s cells, in its order."""
    space = _Space(lattice, godel_grid)
    table = [elem(lattice, v) for v in space.table]
    return tuple(Weight(table[i], table[j]) for i, j in space.cells)


# --- rank-form kernel (independent of the cut bits) ---------------------------
# A relation as two row-major tuples of ranks into one table: ``tt`` and ``ff``.


def oracle_product(a, b, n: int, add, mul) -> tuple:
    """Row-major n x n product: ``add`` over k of ``mul(a[i,k], b[k,j])``."""
    rows = [a[i:i + n] for i in range(0, n * n, n)]
    cols = [b[j::n] for j in range(n)]
    return tuple(add(map(mul, row, col)) for row in rows for col in cols)


def rank_plus(r, s) -> tuple:
    """(tt, ff) of r + s: max on the support, min on the opposition."""
    return tuple(map(max, r[0], s[0])), tuple(map(min, r[1], s[1]))


def rank_dot(r, s, n: int) -> tuple:
    """(tt, ff) of r;s: max of mins on the support, min of maxes on the opposition."""
    return oracle_product(r[0], s[0], n, max, min), oracle_product(r[1], s[1], n, min, max)


def rank_leq(r, s) -> bool:
    return all(map(le, r[0], s[0])) and all(map(ge, r[1], s[1]))


def rank_complement(r, n: int) -> tuple:
    """(tt, ff) of a test's complement: the diagonal's ranks swapped."""
    tt, ff = list(r[0]), list(r[1])
    tt[::n + 1], ff[::n + 1] = r[1][::n + 1], r[0][::n + 1]
    return tuple(tt), tuple(ff)


# --- term-walk oracle (independent of the compiled form) --------------------


def units(lattice, states):
    """The relations ``1`` and ``0`` that ``oracle_eval`` reads for its constants,
    on the table {0, 1}: kernels lift them where they meet a relation."""
    return identity(lattice, states), zero(lattice, states)


def oracle_eval(term: Term, env: dict, one, zer):
    """Interpret a term over an assignment of its atoms by walking it, one
    kernel call per node, so a repeated subterm is computed each time."""
    match term:
        case Atom(name):
            return env[name]
        case Dot(left, right):
            return r_dot(oracle_eval(left, env, one, zer), oracle_eval(right, env, one, zer))
        case Plus(left, right):
            return r_plus(oracle_eval(left, env, one, zer), oracle_eval(right, env, one, zer))
        case Star(inner):
            return r_star(oracle_eval(inner, env, one, zer))
        case Not(inner):
            return t_complement(oracle_eval(inner, env, one, zer))
        case One():
            return one
        case Zero():
            return zer


# --- per-instance checking loops (independent of the bit-sliced chunks) -----


def oracle_relation(lattice, states, space, test: bool, cells):
    """The relation with the given space cells, row-major, or the test with
    them on its diagonal; every other cell is BOT."""
    n = len(states)
    tt, ff = [0] * (n * n), [len(space.table) - 1] * (n * n)
    step = n + 1 if test else 1
    tt[::step], ff[::step] = zip(*cells)
    return from_rank_lists(lattice, states, space.table, tt, ff)


def oracle_draw(rng: random.Random, lattice, states, space, test: bool):
    """A relation (a test) of cells drawn from ``rng``."""
    n = len(states)
    cells = [rng.choice(space.cells) for _ in range(n if test else n * n)]
    return oracle_relation(lattice, states, space, test, cells)


def oracle_model(rng: random.Random, lattice, states, programs, tests, godel_grid=None):
    """A model of the named programs, then tests, each alphabetical, its
    cells drawn from ``rng`` one ``oracle_draw`` at a time."""
    space = _Space(lattice, godel_grid)
    drawn = {name: oracle_draw(rng, lattice, states, space, False) for name in sorted(programs)}
    tested = {name: oracle_draw(rng, lattice, states, space, True) for name in sorted(tests)}
    return Model(lattice, states, drawn, tested)


def oracle_assignments(law, lattice, states, space, fixed: int = 0):
    """Every assignment of the law's variables with its first ``fixed`` cells
    at the space's first, in lexicographic order: the last cell varies fastest."""
    n, names = len(states), law.code[0]
    cuts = [0, *accumulate(n if name in law.tests else n * n for name in names)]
    pools = [space.cells[:1]] * fixed + [space.cells] * (cuts[-1] - fixed)
    return (
        ({name: oracle_relation(lattice, states, space, name in law.tests, cells[i:j])
          for name, i, j in zip(names, cuts, cuts[1:])}, None)
        for cells in product(*pools)
    )


def oracle_check(law, instances, zer, lattice, n_states, mode, **fields):
    """Check the law on each (assignment, model) of ``instances`` in turn, one
    ``_break`` each: fails at the first break with its witness, else holds;
    ``samples`` counts the instances checked."""
    k = 0
    for k, (env, model) in enumerate(instances, 1):
        found = _break(law, env, zer)
        if found is not None:
            witness = Witness(dict(env), *found, law.formula, model, law.terms)
            return Verdict(Status.FAILS, lattice, n_states, mode, witness=witness,
                           samples=k, **fields)
    return Verdict(Status.HOLDS, lattice, n_states, mode, samples=k, **fields)


def oracle_run(law, ident, lattice, n_states, godel_grid, how, samples=None, seed=None):
    """The verdict on ``law``, as axiom ``ident``, from the per-instance loop,
    refusals left out: random draws, the exhaustive walk, or the walk of k
    last-cell instances that a one-test law takes outside random mode."""
    space, states = _Space(lattice, godel_grid), states_for(n_states)
    one_test = not law.horn and [x in law.tests for x in law.code[0]] == [True]
    fixed = n_states - 1 if one_test and how != "random" else 0
    if how == "random":
        rng = random.Random(seed)
        instances = (({name: oracle_draw(rng, lattice, states, space, name in law.tests)
                       for name in law.code[0]}, None) for _ in range(samples))
    else:
        instances = oracle_assignments(law, lattice, states, space, fixed)
    zer = zero(lattice, states)
    verdict = oracle_check(law, instances, zer, lattice, n_states, how, axiom=ident,
                           seed=seed if how == "random" else None)
    if fixed and verdict.status is Status.HOLDS:
        verdict = verdict.replace(samples=verdict.samples * len(space.cells) ** fixed)
    return verdict


def oracle_equiv_random(t1, t2, lattice, n_states, samples, seed, test_names=(), godel_grid=None):
    """``equiv_random`` on well-sorted terms through the per-instance loop."""
    names = atoms(t1) | atoms(t2)
    tests = frozenset(test_names) & names
    states, rng = states_for(n_states), random.Random(seed)
    space = _Space(lattice, godel_grid)
    models = (oracle_model(rng, lattice, states, names - tests, tests, godel_grid)
              for _ in range(samples))
    instances = ((_atom_assignment(m, names), m) for m in models)
    zer = zero(lattice, states)
    return oracle_check(_equation(t1, t2), instances, zer, lattice, n_states, "random",
                        seed=seed)


# --- Weight-path loader and renderers (independent of the rank boundary) ----


def oracle_load_model(document: str):
    """The model loader as it was before it read each value text once: every
    cell becomes a ``Weight`` through ``elem``, every relation is built by
    ``from_entries``.  Reads only well-formed JSON."""
    from pkat.modelfile import (_check_name, _checked_pairs, _named_section, _read_states,
                                _read_test_carrier)

    raw = json.loads(document, object_pairs_hook=_checked_pairs)
    if not isinstance(raw, dict):
        raise ModelError("a model document must be a JSON object")
    unknown = set(raw) - {"lattice", "states", "programs", "tests", "test_carrier"}
    if unknown:
        raise ModelError(f"unknown field {sorted(unknown)[0]!r}")
    if "lattice" not in raw:
        raise ModelError("missing field 'lattice'")
    if not isinstance(raw["lattice"], str):
        raise ModelError("'lattice' must be a string")
    try:
        lattice = LatticeId.from_name(raw["lattice"])
    except CarrierError as exc:
        raise ModelError(str(exc)) from exc
    states = _read_states(raw.get("states"))
    carrier = _read_test_carrier(lattice, raw.get("test_carrier"))

    def pair(owner, value):
        try:
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise LatticeMismatchError(
                    f"a weight is a two-element [tt, ff] array, got {value!r}")
            return weight(lattice, value[0], value[1])
        except (CarrierError, LatticeMismatchError) as exc:
            raise ModelError(f"{owner}: {exc}") from exc

    def quad(owner, item):
        if not isinstance(item, list) or len(item) != 4:
            raise ModelError(f"{owner}: entries are [from, to, tt, ff], got {item!r}")
        u, v = item[0], item[1]
        for s in (u, v):
            if s not in states:
                raise ModelError(f"{owner}: unknown state {s!r}")
        return u, v, pair(owner, item[2:])

    entries = {}
    for name, items in _named_section(raw.get("programs"), "programs").items():
        _check_name(name, entries, {})
        owner = f"program {name!r}"
        if not isinstance(items, list):
            raise ModelError(f"{owner}: expected an array of entries")
        table = entries[name] = {}
        for item in items:
            u, v, w = quad(owner, item)
            if (u, v) in table:
                raise ModelError(f"{owner}: duplicate entry ({u!r}, {v!r})")
            table[(u, v)] = w

    diagonals = {}
    for name, body in _named_section(raw.get("tests"), "tests").items():
        _check_name(name, entries, diagonals)
        owner, table = f"test {name!r}", {}
        if isinstance(body, dict):
            for state, value in body.items():
                if state not in states:
                    raise ModelError(f"{owner}: unknown state {state!r}")
                table[state] = pair(owner, value)
        elif isinstance(body, list):
            for item in body:
                u, v, w = quad(owner, item)
                if u != v:
                    raise ModelError(f"{owner}: entry ({u!r}, {v!r}) is off the diagonal")
                if u in table:
                    raise ModelError(f"{owner}: duplicate entry for state {u!r}")
                table[u] = w
        else:
            raise ModelError(f"{owner}: expected a state map or an entry array")
        full = diagonals[name] = {s: table.get(s, wbot(lattice)) for s in states}
        for state, w in full.items():
            if carrier is not None and (w.tt not in carrier or w.ff not in carrier):
                raise ModelError(
                    f"{owner}: weight at {state!r} outside the declared test carrier")

    weights = [w for table in (*entries.values(), *diagonals.values()) for w in table.values()]
    values = value_table({x.value for w in weights for x in (w.tt, w.ff)})
    programs = {name: from_entries(lattice, states, t, values) for name, t in entries.items()}
    tests = {name: from_diagonal(lattice, states, d, values) for name, d in diagonals.items()}
    return Model(lattice, states, programs, tests, carrier)


def oracle_weights(rel) -> list:
    """Each cell's weight, row-major, decoded cell by cell from its ranks."""
    elem_at = lambda rank: LatticeElem(rel.lattice, rel.values[rank])  # noqa: E731
    return [Weight(elem_at(t), elem_at(f)) for t, f in zip(*rank_lists(rel))]


# --- ordinary binary-relation oracle (classical embedding) ------------------


def classical_eval(term: Term, states, programs: dict, tests: dict) -> frozenset:
    """Evaluate with plain set relations: union / composition / closure.

    programs: name -> set of (u, v); tests: name -> set of satisfying
    states.  Returns a set of pairs.
    """
    full_identity = frozenset((u, u) for u in states)

    def walk(t):
        match t:
            case Zero():
                return frozenset()
            case One():
                return full_identity
            case Atom(name):
                if name in programs:
                    return frozenset(programs[name])
                return frozenset((u, u) for u in tests[name])
            case Plus(left, right):
                return walk(left) | walk(right)
            case Dot(left, right):
                lhs, rhs = walk(left), walk(right)
                return frozenset(
                    (u, w) for (u, v1) in lhs for (v2, w) in rhs if v1 == v2
                )
            case Star(inner):
                base = walk(inner)
                closure = full_identity
                while True:
                    step = frozenset(
                        (u, w)
                        for (u, v1) in closure
                        for (v2, w) in base
                        if v1 == v2
                    )
                    nxt = closure | step
                    if nxt == closure:
                        return closure
                    closure = nxt
            case Not(inner):
                return full_identity - walk(inner)

    return walk(term)


def prel_to_set(rel) -> frozenset:
    """Classical relation of a {TOP, BOT}-valued matrix."""
    t, b = wtop(rel.lattice), wbot(rel.lattice)
    out = set()
    for (u, v), w in rel.pairs():
        assert w in (t, b), f"non-classical entry {w!r}"
        if w == t:
            out.add((u, v))
    return frozenset(out)


# --- random term generators --------------------------------------------------


def _extend(inner, unary):
    """One more layer; the last option repeats a subterm, as laws do."""
    return st.one_of(st.builds(Plus, inner, inner), st.builds(Dot, inner, inner),
                     st.builds(unary, inner), inner.map(lambda t: Plus(Dot(t, t), t)))


TEST_TERMS = st.recursive(st.sampled_from([Zero(), One(), Atom("a"), Atom("b")]),
                          lambda inner: _extend(inner, Not), max_leaves=5)
PROGRAM_TERMS = st.recursive(st.one_of(TEST_TERMS, st.sampled_from([Atom("p"), Atom("q")])),
                             lambda inner: _extend(inner, Star), max_leaves=6)


def random_any_term(rng: random.Random, depth: int, names=("p", "q", "a", "b")) -> Term:
    """Arbitrary tree (sorts ignored); used for parser round-trips."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [Zero(), One()] + [Atom(n) for n in names]
        )
    kind = rng.randrange(4)
    if kind == 0:
        return Plus(random_any_term(rng, depth - 1, names), random_any_term(rng, depth - 1, names))
    if kind == 1:
        return Dot(random_any_term(rng, depth - 1, names), random_any_term(rng, depth - 1, names))
    if kind == 2:
        return Star(random_any_term(rng, depth - 1, names))
    return Not(random_any_term(rng, depth - 1, names))


def random_sorted_term(
    rng: random.Random, depth: int, programs, tests, want_test: bool = False
) -> Term:
    """Well-sorted tree: negation only ever wraps test-sorted subterms."""
    if depth == 0 or rng.random() < 0.3:
        pool = [Zero(), One()] + [Atom(n) for n in tests]
        if not want_test:
            pool += [Atom(n) for n in programs]
        return rng.choice(pool)
    kind = rng.randrange(4)
    if kind == 0:
        return Plus(
            random_sorted_term(rng, depth - 1, programs, tests, want_test),
            random_sorted_term(rng, depth - 1, programs, tests, want_test),
        )
    if kind == 1:
        return Dot(
            random_sorted_term(rng, depth - 1, programs, tests, want_test),
            random_sorted_term(rng, depth - 1, programs, tests, want_test),
        )
    if kind == 2 and not want_test:
        return Star(random_sorted_term(rng, depth - 1, programs, tests, False))
    return Not(random_sorted_term(rng, depth - 1, programs, tests, True))
