import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from math import lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import pkat.catalog
import pkat.engine
import pkat.relp
import pkat.syntax
from pkat.catalog import (
    AxiomId,
    CORE_AXIOMS,
    check_axiom,
    check_suite,
    find_boolean_witness,
    recheck,
)
from pkat.engine import (
    Status,
    equiv,
    equiv_random,
    evaluate,
    hoare_check,
    states_for,
    verdict_to_dict,
)
from pkat.errors import EngineError, ShapeError, SortError
from pkat.lattice import carrier, elem
from pkat.plts import Model, load_model
from pkat.relp import (PRel, identity, r_dot, r_leq, r_plus, r_star, t_complement,
                       value_table, zero)
from pkat.syntax import Dot, Not, One, Plus, Star, parse
from pkat.twist import Weight, wbot, wtop

from helpers import (B2, GD, L3, PROGRAM_TERMS, TEST_TERMS, from_rank_lists, lw, oracle_check,
                     oracle_eval, oracle_model, oracle_relation, random_sorted_term, rank_lists,
                     space_weights, units, weight)

RICH_DOC = json.dumps(
    {
        "lattice": "lukasiewicz3",
        "states": ["w1", "w2"],
        "programs": {
            "r": [["w1", "w2", "top", "bot"], ["w2", "w1", "top", "u"]],
            "s": [["w1", "w1", "u", "u"], ["w2", "w2", "top", "top"]],
        },
        "tests": {
            "a": {"w1": ["top", "bot"], "w2": ["u", "u"]},
            "b": {"w1": ["u", "bot"], "w2": ["top", "bot"]},
        },
    }
)


@pytest.fixture
def rich_model():
    return load_model(RICH_DOC)


# --- evaluation ----------------------------------------------------------------


def test_evaluate_constants(two_state_model):
    m = two_state_model
    assert evaluate(parse("1"), m) == identity(L3, m.states)
    assert evaluate(parse("0"), m) == zero(L3, m.states)
    assert evaluate(parse("r;0"), m) == zero(L3, m.states)


def test_evaluating_a_term_without_1_or_negation_complements_nothing(monkeypatch):
    model = oracle_model(random.Random(5), L3, states_for(2), ("p", "q"), ())
    nots, complement = [], pkat.relp._not
    monkeypatch.setattr(pkat.relp, "_not", lambda *a: nots.append(a) or complement(*a))
    got = evaluate(parse("p;q"), model)
    assert got == r_dot(model.programs["p"], model.programs["q"]) and nots == []


def test_evaluate_worked_example(two_state_model):
    rr = evaluate(parse("r;r"), two_state_model)
    assert rr.entry("w1", "w1") == lw("top", "u")
    assert rr.entry("w1", "w2") == lw("bot", "top")


def test_evaluate_test_atom_is_subidentity(two_state_model):
    t = evaluate(parse("p"), two_state_model)
    assert t.entry("w1", "w1") == lw("top", "bot")
    assert t.entry("w1", "w2") == wbot(L3)


def test_evaluate_requires_declared_atoms(two_state_model):
    with pytest.raises(SortError):
        evaluate(parse("ghost"), two_state_model)
    with pytest.raises(SortError):
        evaluate(parse("!r"), two_state_model)


def test_evaluate_compositional(rich_model):
    rng = random.Random(31)
    programs, tests = ("r", "s"), ("a", "b")
    for _ in range(200):
        t1 = random_sorted_term(rng, rng.randint(0, 4), programs, tests)
        t2 = random_sorted_term(rng, rng.randint(0, 4), programs, tests)
        v1, v2 = evaluate(t1, rich_model), evaluate(t2, rich_model)
        assert evaluate(Plus(t1, t2), rich_model) == r_plus(v1, v2)
        assert evaluate(Dot(t1, t2), rich_model) == r_dot(v1, v2)
        assert evaluate(Star(t1), rich_model) == r_star(v1)
        guard = random_sorted_term(rng, rng.randint(0, 3), programs, tests, True)
        assert evaluate(Not(guard), rich_model) == t_complement(
            evaluate(guard, rich_model)
        )


@st.composite
def _models(draw):
    lattice, n = draw(st.sampled_from([B2, L3, GD])), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return oracle_model(rng, lattice, states_for(n), ("p", "q"), ("a", "b"))


def _walked_break(sides, leq, premise, env, constants):
    """The first break of the law with these sides, each side walked in full."""
    values = [oracle_eval(side, env, *constants) for side in sides]
    pairs = list(zip(values[::2], values[1::2]))
    if premise and not r_leq(*pairs.pop(0)):
        return None
    found = (pkat.engine._first_break(lhs, rhs, leq) for lhs, rhs in pairs)
    return next((f for f in found if f is not None), None)


@settings(max_examples=50, deadline=None)
@given(_models(), PROGRAM_TERMS, PROGRAM_TERMS, TEST_TERMS)
def test_compiled_laws_match_the_term_walk(model, t1, t2, b):
    engine = pkat.engine
    env = engine._atom_assignment(model, "abpq")
    one, zer = units(model.lattice, model.states, model.values)
    assert evaluate(t1, model) == oracle_eval(t1, env, one, zer)
    sum12, star1 = Plus(t1, t2), Star(t1)
    goals = [sum12, Plus(t2, t1), Plus(One(), Dot(t1, star1)), star1, Dot(t1, t2), Dot(t2, t1)]
    laws = [  # (law, its sides, leq, premise)
        (engine._equation(t1, t2), [t1, t2], False, False),
        (engine._triple(b, t1, b), [Dot(b, t1), Dot(Dot(b, t1), b)], True, False),
        (None, goals, False, False),  # goals that hold, then one that may break
        (None, [t1, sum12, t2, t1], True, True),  # a premise that holds
        (None, [Dot(t1, t2), t2, Dot(star1, t2), t2], True, True),  # star induction
    ]
    for law, sides, leq, premise in laws:
        law = law or engine._Law("", engine._compile(sides), leq=leq, premise=premise)
        want = _walked_break(sides, leq, premise, env, (one, zer))
        assert engine._break(law, env, zer) == want


def test_an_equations_variables_are_its_programs_then_its_tests_each_alphabetical():
    law = pkat.engine._equation(parse("b;q + a;p"), parse("p"), tests="ab")
    assert law.code[0] == ["p", "q", "a", "b"]
    assert [x in law.tests for x in law.code[0]] == [False, False, True, True]


def test_a_laws_compiled_names_are_its_instance_layout():
    # _drive places an instance's cells in the slots of code[0], a test's
    # n diagonal cells and a program's n*n.
    law = pkat.engine._equation(parse("b;q + a;p"), parse("p"), tests="ab")
    assert law.code[0] == ["p", "q", "a", "b"]
    assert pkat.engine._spans(law, 2) == ([("p", False, 0, 4), ("q", False, 4, 8),
                                           ("a", True, 8, 10), ("b", True, 10, 12)], 12)


# --- weight spaces ---------------------------------------------------------------


def test_weight_space_sizes_and_order():
    luka = space_weights(L3)
    assert len(luka) == 9
    assert luka[0] == wbot(L3)
    assert luka[1] == lw("u", "u")
    assert luka[2] == wtop(L3)
    boolean = space_weights(B2)
    assert set(boolean) == {wtop(B2), wbot(B2)}
    godel = space_weights(GD)
    assert len(godel) == 25
    godel_small = space_weights(GD, godel_grid=("0", "0.5", "1"))
    assert len(godel_small) == 9
    deduped = space_weights(GD, godel_grid=("0", "0.5", "1/2", "1"))
    assert deduped == godel_small


def _fraction_keyed_space(lattice, grid=None):
    """The candidate order computed directly: every pair of elements,
    sorted by |tt + ff - 1| and then by value in Fraction arithmetic."""
    elems = carrier(lattice) if grid is None else dict.fromkeys(elem(lattice, g) for g in grid)
    pairs = [Weight(t, f) for t in elems for f in elems]
    if lattice is B2:
        pairs = [w for w in pairs if w.tt.value + w.ff.value == 1]
    return tuple(sorted(pairs, key=lambda w: (abs(w.tt.value + w.ff.value - 1),
                                              w.tt.value, w.ff.value)))


_GRID_VALUE = st.one_of(
    st.sampled_from(["0", "1", "1/2", "0.5", "2/4", "1/3", "2/6", "0.25", "1/4", "3/4",
                     "0.75", "0.1", "1/10", "2/3", "0.125"]),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)


@given(st.lists(_GRID_VALUE, min_size=1, max_size=9))
def test_rank_keyed_space_matches_the_fraction_keyed_order(grid):
    assert space_weights(GD, godel_grid=grid) == _fraction_keyed_space(GD, grid)


def test_rank_keyed_space_on_the_finite_lattices():
    for lattice in (B2, L3):
        assert space_weights(lattice) == _fraction_keyed_space(lattice)
    assert space_weights(GD) == _fraction_keyed_space(GD, pkat.engine.DEFAULT_GODEL_GRID)


@settings(deadline=None)
@example(B2, None)
@example(L3, None)
@example(GD, None)
@given(st.just(GD), st.lists(_GRID_VALUE, min_size=2, max_size=9).filter(
    lambda grid: len({elem(GD, v).value for v in grid}) > 1))
def test_the_exhaustive_guard_counts_the_space_it_would_walk(lattice, grid):
    # engine._check counts k before it builds the space, as engine._grid_values
    # counts it for _space (bool2 keeps its two consistent corners); law 1 at
    # three states is refused for any k > 1, and the refusal prints that k.
    with pytest.raises(EngineError) as err:
        check_axiom(1, lattice, 3, "exhaustive", godel_grid=grid)
    k = re.fullmatch(r"exhaustive space of (\d+)\^27 instantiations exceeds 1000000",
                     str(err.value))
    assert k and int(k[1]) == len(pkat.engine._space(lattice, grid).cells)


@settings(deadline=None)
@example(B2, None)
@example(L3, None)
@given(st.just(GD), st.lists(st.sampled_from([Fraction(i, q) for q in range(1, 16)
                                              for i in range(q + 1)]), min_size=1, max_size=60))
def test_the_space_is_the_first_k_cells_of_the_sorted_product(lattice, grid):
    # The oracle filters bool2's pairs to its consistent corners before the
    # sort; _space sorts every pair and keeps the first k.
    members = ({e.value for e in carrier(lattice)} if grid is None
               else {elem(lattice, g).value for g in grid})
    values = value_table(members)
    ranks = [i for i, v in enumerate(values) if v in members]
    d = lcm(*(v.denominator for v in values))
    a = [v.numerator * (d // v.denominator) for v in values]
    cells = [(i, j) for i in ranks for j in ranks]
    if lattice is B2:
        cells = [(i, j) for i, j in cells if a[i] + a[j] == d]
    cells.sort(key=lambda c: (abs(a[c[0]] + a[c[1]] - d), c))
    space = pkat.engine._space(lattice, grid)
    assert (space.table, space.cells) == (values, tuple(cells))


def _indexed_assignments(law, lattice, states, space):
    """Every assignment decoded from its index: a variable of w cells is
    the digit ``index // stride % k^w``, its cell i that digit's
    ``// k^(w-1-i) % k``, and a test's cells lie on the diagonal, BOT
    elsewhere."""
    n, k = len(states), len(space.cells)
    bot = (0, len(space.table) - 1)

    def relation(test, index):
        width = n if test else n * n
        cells = [space.cells[index // k ** i % k] for i in reversed(range(width))]
        if test:
            cells = [cells[j // (n + 1)] if j % (n + 1) == 0 else bot for j in range(n * n)]
        tt, ff = zip(*cells)
        return from_rank_lists(lattice, states, space.table, tt, ff)

    names = law.code[0]
    tests = [name in law.tests for name in names]
    sizes = [k ** (n if test else n * n) for test in tests]
    strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    for index in range(prod(sizes)):
        yield {name: relation(test, index // stride % size)
               for name, test, stride, size in zip(names, tests, strides, sizes)}


@pytest.mark.parametrize("lattice, n, axioms", [
    (B2, 1, list(AxiomId)),
    (B2, 2, list(AxiomId)),
    (L3, 1, list(AxiomId)),
    (L3, 3, [AxiomId.TEST_NON_CONTRA]),
    (GD, 1, list(AxiomId)),
])
def test_assignments_match_the_index_decoder(lattice, n, axioms):
    def cells(law, env):  # each variable's cells as the walk lists them: a test's diagonal
        return tuple(cell for name, r in zip(law.code[0], env.values())
                     for cell in list(zip(*rank_lists(r)))[::n + 1 if name in law.tests else 1])

    space, states = pkat.engine._space(lattice, None), states_for(n)
    for ident in axioms:
        law = pkat.catalog._AXIOMS[ident]
        size = len(space.cells) ** sum(n if x in law.tests else n * n for x in law.code[0])
        limit = size if size <= 20_000 else 2_000
        found = pkat.engine._walk(len(space.cells), pkat.engine._spans(law, n)[1])
        decoded = _indexed_assignments(law, lattice, states, space)
        assert [tuple(space.cells[i] for i in ids) for ids in islice(found, limit)] == [
            cells(law, env) for env in islice(decoded, limit)]
        if limit == size:  # and no assignment beyond the decoder's last
            assert next(found, None) is None


# --- axiom checking ---------------------------------------------------------------


def test_axiom_catalog_is_complete():
    values = sorted(ax.value for ax in AxiomId)
    assert values == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15] + list(
        range(213, 221)
    )


def test_commutativity_axiom_exhaustive():
    verdict = check_axiom(2, L3, 1, "exhaustive")
    assert verdict.status is Status.HOLDS
    assert verdict.samples == 81


def test_non_contradiction_fails_on_chain():
    verdict = check_axiom(219, L3, 1, "exhaustive")
    assert verdict.status is Status.FAILS
    assert verdict.witness.assignment["a"].entry("w1", "w1") == lw("u", "u")
    assert verdict.witness.entry == ("w1", "w1")
    assert recheck(verdict)


def test_non_contradiction_holds_on_boolean():
    for ax in (219, 220):
        verdict = check_axiom(ax, B2, 1, "exhaustive")
        assert verdict.status is Status.HOLDS


def test_core_axioms_hold_exhaustively():
    for ax in CORE_AXIOMS:
        assert check_axiom(ax, L3, 1, "exhaustive").status is Status.HOLDS


def test_exhaustive_space_guard():
    with pytest.raises(EngineError):
        check_axiom(1, L3, 2, "exhaustive")
    # but a lower bound is accepted for a single-variable axiom
    verdict = check_axiom(3, L3, 2, "exhaustive")
    assert verdict.status is Status.HOLDS and verdict.samples == 9**4


def test_a_huge_space_is_refused_from_its_exponent():
    # n = 10**10 states: the guard works on exponents, so nothing large is built.
    guard, laws = pkat.engine._guard, pkat.catalog._AXIOMS
    with pytest.raises(EngineError) as err:
        guard(laws[AxiomId.PLUS_ASSOC], 9, 10**10)
    assert str(err.value) == (
        "exhaustive space of 9^300000000000000000000 instantiations exceeds 1000000"
    )
    with pytest.raises(EngineError, match=r"^exhaustive space of 25\^10000000000 inst"):
        guard(laws[AxiomId.TEST_NON_CONTRA], 25, 10**10)
    # One candidate makes one assignment however many cells there are.
    guard(laws[AxiomId.PLUS_ASSOC], 1, 10**10)
    # An exponent beyond the float range is compared as an integer and printed as %.2e.
    with pytest.raises(EngineError, match=r"^exhaustive space of 2\^3\.00e\+400 inst"):
        guard(laws[AxiomId.PLUS_ASSOC], 2, 10**200)
    # The cap itself is exact: 10**6 assignments pass and one more is refused.
    for k, n in ((10, 6), (1000, 2), (10**6, 1)):
        guard(laws[AxiomId.TEST_DOT_IDEM], k, n)
        with pytest.raises(EngineError, match=f"^exhaustive space of {k + 1}\\^{n} inst"):
            guard(laws[AxiomId.TEST_DOT_IDEM], k + 1, n)
    with pytest.raises(EngineError, match=r"^exhaustive space of 9\^12 inst"):
        guard(laws[AxiomId.PLUS_ASSOC], 9, 2)


def test_the_exhaustive_guard_covers_the_witness_search():
    # A searched law walks k^cells unless it is one-test, so it is guarded as in
    # exhaustive mode; "search" is a plan's mode, not one a caller may ask for.
    plan = [(pkat.catalog._AXIOMS[AxiomId.PLUS_ASSOC], "search", None)]
    with pytest.raises(EngineError) as err:
        pkat.engine._check(plan, L3, 2, None, None, None)
    assert str(err.value) == "exhaustive space of 9^12 instantiations exceeds 1000000"
    with pytest.raises(EngineError, match="^unknown mode 'search'$"):
        check_axiom(1, L3, 1, "search")
    with pytest.raises(EngineError, match="^unknown mode 'bogus'$"):  # before the state count
        check_axiom(1, L3, 0, "bogus")


def test_a_refused_count_is_printed_in_full_up_to_30_digits():
    guard = pkat.engine._guard_steps
    with pytest.raises(EngineError, match=f"^work of {'9' * 30} x 1-state instances exceeds"):
        guard(10**30 - 1, 1)
    with pytest.raises(EngineError, match=r"^work of 1\.00e\+30 x 1-state instances exceeds"):
        guard(10**30, 1)
    # Past float range and past str()'s 4300 digits alike.
    with pytest.raises(EngineError, match=r"^work of 1 x 1\.00e\+5000-state instances exceeds"):
        guard(1, 10**5000)


def test_suite_refuses_before_checking_any_law(monkeypatch):
    for stream in ("_walk", "_draws"):  # any check would raise TypeError
        monkeypatch.setattr(pkat.engine, stream, None)
    with pytest.raises(EngineError, match=r"^exhaustive space of 9\^27 "):
        pkat.catalog.check_suite(L3, 3)
    # The witness search's 2 tests at 48^4 steps each exceed the step cap.
    with pytest.raises(EngineError, match=r"^work of 2 x 47-state instances exceeds"):
        pkat.catalog.check_suite(B2, 47, "random", samples=1, seed=0)


def test_work_guard_counts_samples_and_star_rounds():
    # Decided from the formula alone, so huge n and sample counts build nothing.
    guard = pkat.engine._guard_steps
    with pytest.raises(EngineError) as err:
        guard(1, 10**10)
    assert str(err.value) == (
        "work of 1 x 10000000000-state instances exceeds 10000000 kernel steps")
    with pytest.raises(EngineError, match=r"^work of 1000000000 x 1-state instances exceeds"):
        guard(10**9, 1)
    # The cap itself is exact: 10**7 steps pass and one more sample is refused.
    guard(625_000, 1)
    with pytest.raises(EngineError):
        guard(625_001, 1)
    # Every benchmark shape passes: at most 4 states and 500 samples.
    for n in range(1, 5):
        guard(500, n)


def test_random_work_is_refused_before_any_state_is_built(monkeypatch):
    monkeypatch.setattr(pkat.engine, "states_for", None)  # building states would raise TypeError
    refusal = r"^work of 1 x 400-state instances exceeds 10000000 kernel steps$"
    for mode, samples in (("random", 1), ("exhaustive", None)):  # one candidate: 1 instance
        with pytest.raises(EngineError, match=refusal):
            pkat.catalog.check_suite(GD, 400, mode, samples=samples, seed=0, godel_grid=["1/2"])
    with pytest.raises(EngineError, match=refusal):
        equiv_random(parse("p;q"), parse("q;p"), GD, 400, 1, 0)


def test_every_check_refuses_a_huge_state_count_before_building_states(monkeypatch):
    # states_for(10**300) would never return, so reaching it fails at once instead.
    def states_for(n):
        raise AssertionError("states_for ran before the guards")

    monkeypatch.setattr(pkat.engine, "states_for", states_for)
    n, work = 10**300, r"^work of \d+ x 1\.00e\+300-state instances exceeds"
    with pytest.raises(EngineError, match=r"^exhaustive space of 9\^3\.00e\+600 inst"):
        pkat.catalog.check_suite(L3, n)
    with pytest.raises(EngineError, match=work):
        pkat.catalog.check_suite(L3, n, "random", samples=1, seed=0)
    with pytest.raises(EngineError, match=work):
        check_axiom(219, GD, n)
    with pytest.raises(EngineError, match=work):
        find_boolean_witness(GD, n)
    with pytest.raises(EngineError, match=work):
        equiv_random(parse("a;p"), parse("p;a"), GD, n, 1, 0, test_names="a")


def test_a_refused_exhaustive_suite_never_builds_its_space():
    # 1,000 grid points make 10^6 candidate cells; the refusal needs only their count.
    grid = [f"{i}/999" for i in range(1000)]
    tracemalloc.start()
    try:
        with pytest.raises(EngineError) as err:
            pkat.catalog.check_suite(GD, 1, godel_grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "exhaustive space of 1000000^3 instantiations exceeds 1000000"
    assert peak < 5 * 2**20


def test_an_over_size_candidate_space_is_refused_before_it_is_built():
    # 1,001 grid points make 1,002,001 candidate cells, one sample of which is
    # drawn: the random runs pass every other guard, so _space refuses them.
    grid = [f"{i}/1000" for i in range(1001)]
    runs = (lambda: equiv_random(parse("p"), parse("p;p"), GD, 1, 1, 0, godel_grid=grid),
            lambda: check_axiom(2, GD, 1, "random", samples=1, seed=0, godel_grid=grid))
    for run in runs:
        tracemalloc.start()
        try:
            with pytest.raises(EngineError) as err:
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "candidate space of 1002001 weights exceeds 1000000"
        assert peak < 5 * 2**20


def test_a_one_sample_suite_formats_only_the_cells_it_reads():
    # 200 grid points make 40,000 candidate cells of 398 cut bits each; one sample reads few.
    grid = [f"{i}/199" for i in range(200)]
    tracemalloc.start()
    try:
        verdicts = pkat.catalog.check_suite(GD, 1, "random", samples=1, seed=0, godel_grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for ident, verdict in zip(CORE_AXIOMS, verdicts):
        assert verdict == check_axiom(ident, GD, 1, "random", samples=1, seed=0, godel_grid=grid)
    assert peak < 10 * 2**20


def test_random_mode_deterministic():
    one = check_axiom(5, L3, 2, "random", samples=50, seed=7)
    two = check_axiom(5, L3, 2, "random", samples=50, seed=7)
    assert one == two
    assert one.status is Status.HOLDS and one.seed == 7
    with pytest.raises(EngineError):
        check_axiom(5, L3, 2, "random")
    with pytest.raises(EngineError):
        check_axiom(5, L3, 2, "sideways")


def test_random_mode_finds_boolean_failures():
    verdict = check_axiom(219, L3, 1, "random", samples=200, seed=1)
    assert verdict.status is Status.FAILS
    assert recheck(verdict)


# --- refutation search ---------------------------------------------------------------


def test_boolean_witness_on_chain():
    found = find_boolean_witness(L3, 1)
    for ax in (AxiomId.TEST_NON_CONTRA, AxiomId.TEST_EXCL_MIDDLE):
        verdict = found[ax]
        assert verdict.status is Status.FAILS
        assert verdict.samples <= 9
        assert verdict.witness.assignment["a"].entry("w1", "w1") == lw("u", "u")
        assert recheck(verdict)
    # deterministic across runs
    assert find_boolean_witness(L3, 1) == found


def test_boolean_witness_none_on_boolean():
    found = find_boolean_witness(B2, 1)
    assert all(v.status is Status.HOLDS for v in found.values())
    assert all(v.samples == 2 for v in found.values())
    found2 = find_boolean_witness(B2, 2)
    assert all(v.status is Status.HOLDS for v in found2.values())


def test_boolean_witness_on_interval_grid():
    found = find_boolean_witness(GD, 1, godel_grid=("0", "0.5", "1"))
    from pkat.twist import weight

    half = weight(GD, "0.5", "0.5")
    for verdict in found.values():
        assert verdict.status is Status.FAILS
        assert verdict.witness.assignment["a"].entry("w1", "w1") == half


def _full_walk(ident, lattice, n, grid, mode):
    """The one-test law's verdict from every one of its k^n tests in walk
    order: the reference the k-instance check must reproduce."""
    engine = pkat.engine
    law, space, states = pkat.catalog._AXIOMS[ident], engine._space(lattice, grid), states_for(n)
    instances = (({"a": oracle_relation(lattice, states, space, True, cells)}, None)
                 for cells in product(space.cells, repeat=n))
    return oracle_check(law, instances, zero(lattice, states, space.table), lattice, n, mode,
                        axiom=ident)


@st.composite
def _one_test_runs(draw):
    """A lattice, a godel grid of 1-3 values or None, and n <= 4 (<= 8 on
    bool2), keeping the oracle's walk to at most 729 tests."""
    lattice = draw(st.sampled_from([B2, L3, GD]))
    grid = None
    if lattice is GD:
        values = ["0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"]
        grid = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))
    k = len(pkat.engine._space(lattice, grid).cells)
    top = max(n for n in range(1, 9 if lattice is B2 else 5) if k**n <= 729)
    return lattice, grid, draw(st.integers(1, top))


@settings(max_examples=30, deadline=None)
@example((L3, None, 3))  # the walk fails at its second test, at (w3,w3)
@example((GD, ["1/2"], 4))  # the space's first cell fails: the walk's first test
@example((GD, ["0", "1"], 3))  # consistent cells first, so the walk fails at its third
@given(_one_test_runs())
def test_one_test_laws_give_the_full_walks_verdicts(run):
    lattice, grid, n = run
    for ident in map(AxiomId, range(216, 221)):
        got = check_axiom(ident, lattice, n, "exhaustive", godel_grid=grid)
        assert verdict_to_dict(got) == verdict_to_dict(
            _full_walk(ident, lattice, n, grid, "exhaustive"))
    for ident, got in find_boolean_witness(lattice, n, grid).items():
        assert verdict_to_dict(got) == verdict_to_dict(
            _full_walk(ident, lattice, n, grid, "search"))


def test_one_test_law_is_guarded_by_the_tests_it_checks():
    # 25^5 tests at godel n = 5, but the walk checks 25: the search's walk.
    got = verdict_to_dict(check_axiom(AxiomId.TEST_NON_CONTRA, GD, 5))
    found = verdict_to_dict(find_boolean_witness(GD, 5)[AxiomId.TEST_NON_CONTRA])
    assert (got.pop("mode"), found.pop("mode")) == ("exhaustive", "search")
    assert got == found and (got["status"], got["samples"]) == ("fails", 2)


def test_bool2_witness_search_builds_two_tests_per_law(monkeypatch):
    # The walk took all 2^14 tests for each law; the search takes k = 2.
    taken, walk = [], pkat.engine._walk
    monkeypatch.setattr(pkat.engine, "_walk", lambda *a: (taken.append(c) or c for c in walk(*a)))
    found = find_boolean_witness(B2, 14)
    assert [(v.status, v.samples) for v in found.values()] == [(Status.HOLDS, 2**14)] * 2
    assert len(taken) <= 2 * 2


# --- term equivalence ---------------------------------------------------------------


def test_equiv_test_commutativity(rich_model):
    verdict = equiv(parse("a;b"), parse("b;a"), rich_model)
    assert verdict.status is Status.HOLDS


def test_equiv_star_unfold(two_state_model):
    verdict = equiv(parse("1 + r;r*"), parse("r*"), two_state_model)
    assert verdict.status is Status.HOLDS


def test_equiv_failure_carries_witness(rich_model):
    verdict = equiv(parse("r"), parse("s"), rich_model)
    assert verdict.status is Status.FAILS
    assert verdict.witness.entry is not None
    assert recheck(verdict)


def test_equiv_computes_a_repeated_star_once(two_state_model, monkeypatch):
    # r* occurs three times on the left and once on the right: one slot, one call.
    stars, star = [], pkat.syntax.r_star
    monkeypatch.setattr(pkat.syntax, "r_star", lambda rel: stars.append(rel) or star(rel))
    verdict = equiv(parse("r*;r* + r*"), parse("r*"), two_state_model)
    assert verdict.status is Status.HOLDS and len(stars) == 1


def test_a_relation_off_its_models_lattice_or_states_is_refused():
    # A model built through the API may hold a relation over other states or
    # another lattice: no check may answer about that relation in its place.
    r = PRel(GD, ("a", "b"), [weight(GD, "0.5", "0.25")] * 4)
    checks = [lambda m: evaluate(parse("r;r"), m), lambda m: equiv(parse("r"), parse("r;r"), m),
              lambda m: equiv(parse("r*"), parse("r*;r*"), m),
              lambda m: hoare_check(One(), parse("r"), One(), m)]
    for model in (Model(GD, ("x",), {"r": r}), Model(L3, ("a", "b"), {"r": r})):
        for check in checks:
            with pytest.raises(ShapeError, match="relation 'r' does not range over"):
                check(model)
    # Nor may a test hold weight off its diagonal: it would be checked as a test.
    t = PRel(L3, ("x", "y"), [weight(L3, "top", "bot")] * 4)
    model = Model(L3, ("x", "y"), {"r": identity(L3, ("x", "y"))}, {"t": t})
    for check in (lambda: evaluate(parse("t"), model), lambda: equiv(parse("t + 1"), One(), model),
                  lambda: hoare_check(parse("t"), parse("r"), parse("t"), model)):
        with pytest.raises(ShapeError, match="^test 't' is not a subidentity relation$"):
            check()


def test_equiv_random_program_composition_not_commutative():
    verdict = equiv_random(parse("p;q"), parse("q;p"), L3, 2, 100, 0)
    assert verdict.status is Status.FAILS
    assert verdict.witness.model is not None
    assert recheck(verdict)
    again = equiv_random(parse("p;q"), parse("q;p"), L3, 2, 100, 0)
    assert again == verdict


def test_equiv_random_star_unfold_holds():
    verdict = equiv_random(parse("1 + r;r*"), parse("r*"), L3, 2, 100, 3)
    assert verdict.status is Status.HOLDS
    assert verdict.samples == 100


def test_equiv_random_respects_test_declarations():
    verdict = equiv_random(
        parse("a;b"), parse("b;a"), L3, 2, 100, 5, test_names=("a", "b")
    )
    assert verdict.status is Status.HOLDS
    with pytest.raises(SortError):
        equiv_random(parse("!a"), parse("a"), L3, 1, 10, 0)  # 'a' defaults to program


# --- triples ---------------------------------------------------------------


def test_hoare_trivial_triples(two_state_model):
    m = two_state_model
    assert hoare_check(parse("p"), parse("r"), parse("1"), m).status is Status.HOLDS
    assert hoare_check(parse("1"), parse("0"), parse("p"), m).status is Status.HOLDS


def test_hoare_worked_example(two_state_model):
    verdict = hoare_check(parse("p"), parse("r"), parse("p"), two_state_model)
    assert verdict.status is Status.FAILS
    assert verdict.witness.entry == ("w1", "w2")
    assert verdict.witness.lhs == lw("top", "bot")
    assert verdict.witness.rhs == lw("u", "bot")
    assert recheck(verdict)


def test_hoare_evaluates_pre_and_prog_once(two_state_model, monkeypatch):
    # The triple's law is pre;prog <= pre;prog;post: its right side extends
    # its left, so r*, r;r*, p;(r;r*) and the final ;p are one call each.
    calls = {"r_dot": 0, "r_star": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pkat.syntax, name, counted(name, getattr(pkat.syntax, name)))
    verdict = hoare_check(parse("p"), parse("r;r*"), parse("p"), two_state_model)
    assert calls == {"r_dot": 3, "r_star": 1}
    assert verdict.status is Status.FAILS and recheck(verdict)


def test_hoare_sort_requirements(two_state_model):
    with pytest.raises(SortError):
        hoare_check(parse("r"), parse("r"), parse("p"), two_state_model)
    with pytest.raises(SortError):
        hoare_check(parse("p"), parse("r"), parse("r"), two_state_model)


# --- plumbing ---------------------------------------------------------------


def test_verdict_json_schema():
    verdict = check_axiom(219, L3, 1, "exhaustive")
    payload = verdict_to_dict(verdict)
    assert list(payload) == [
        "axiom",
        "lattice",
        "states",
        "mode",
        "status",
        "witness",
        "samples",
        "seed",
    ]
    assert payload["axiom"] == 219
    assert payload["status"] == "fails"
    assert payload["witness"]["entry"] == ["w1", "w1"]
    text = json.dumps(payload)
    assert json.loads(text) == payload
    held = verdict_to_dict(check_axiom(2, L3, 1, "exhaustive"))
    assert "witness" not in held


def test_recheck_reproduces_the_exact_witness(two_state_model):
    verdict = check_axiom(219, L3, 1, "exhaustive")
    assert recheck(verdict)
    w = verdict.witness
    assert not recheck(verdict.replace(witness=w.replace(lhs=lw("top", "top"))))
    assert not recheck(verdict.replace(witness=w.replace(rhs=lw("u", "u"))))
    triple = hoare_check(parse("p"), parse("r"), parse("p"), two_state_model)
    assert recheck(triple)
    assert not recheck(triple.replace(witness=triple.witness.replace(entry=("w2", "w1"))))


def test_recheck_with_an_empty_assignment(two_state_model):
    verdict = equiv(parse("1"), parse("0"), two_state_model)
    assert verdict.status is Status.FAILS and verdict.witness.assignment == {}
    assert recheck(verdict)
    again = equiv_random(parse("1"), parse("0"), GD, 2, 5, 0)
    assert again.status is Status.FAILS and again.witness.assignment == {}
    assert recheck(again)


def test_recheck_requires_failure():
    verdict = check_axiom(2, L3, 1, "exhaustive")
    with pytest.raises(EngineError):
        recheck(verdict)


def test_recheck_refuses_a_witness_it_cannot_rebuild():
    # No axiom and no witness terms: no law to run.
    verdict = check_axiom(AxiomId.TEST_NON_CONTRA, L3, 1, "exhaustive")
    assert verdict.status is Status.FAILS and verdict.witness.terms is None
    with pytest.raises(EngineError, match="^verdict carries no recheckable witness$"):
        recheck(verdict.replace(axiom=None))
    # An empty assignment and no model: no lattice or states to run it on.
    bare = equiv_random(parse("1"), parse("0"), GD, 2, 5, 0)
    assert bare.witness.assignment == {} and bare.witness.model is not None
    with pytest.raises(EngineError, match="^verdict carries no recheckable witness$"):
        recheck(bare.replace(witness=bare.witness.replace(model=None)))


def test_an_empty_grid_makes_no_candidates():
    # The CLI refuses --godel-grid "" as a bad value first; the library refuses it here.
    with pytest.raises(EngineError, match="^an empty interval grid makes no candidates$"):
        check_suite(GD, 1, godel_grid=())
