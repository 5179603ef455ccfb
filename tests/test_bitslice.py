"""Laws checked a chunk at a time give the per-instance loop's verdicts.

``pkat.bitslice`` evaluates a law on many instances at once, one bit per
(instance, cut).  Each verdict here, with its count and witness, is
compared with ``oracle_check``'s, which builds and checks one instance
at a time, over bool2, Ł3 and godel grids, in every mode.
"""

import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

import pkat.bitslice
import pkat.catalog
import pkat.engine
from pkat.bitslice import MAX_BITS, _encode
from pkat.catalog import AxiomId, check_axiom, check_suite, find_boolean_witness, recheck
from pkat.engine import Status, equiv_random, verdict_to_dict
from pkat.relp import _code
from pkat.syntax import Dot, Not, One, Plus, Star, parse

from helpers import B2, GD, L3, PROGRAM_TERMS, oracle_equiv_random, oracle_run, rank_lists

GODEL9 = ["0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8", "1"]
GRIDS = [(B2, None), (L3, None), (GD, ["1/2"]), (GD, ["0", "1/3", "1"]), (GD, GODEL9)]
WALK_LIMIT = 729  # instances the oracle walks in one example

# Horn laws that fail; the first only after instances whose goal fails where
# its premise fails too.
FAILING_HORN = ["q <= p + m  ->  q <= p", "p <= q  ->  q <= p", "p;q <= q;p  ->  q;p <= p;q"]


def _walk_size(law, k, n):
    tests = [x in law.tests for x in law.code[0]]
    return k if not law.premise and tests == [True] else k ** sum(n if t else n * n for t in tests)


@st.composite
def _runs(draw):
    """(lattice, grid, n, how, axiom, samples, seed); an exhaustive law only
    where its walk fits the oracle."""
    lattice, grid = draw(st.sampled_from(GRIDS))
    n, how = draw(st.integers(1, 3)), draw(st.sampled_from(["random", "exhaustive", "search"]))
    if how == "search":
        return lattice, grid, n, how, draw(st.sampled_from([219, 220])), None, None
    if how == "random":
        samples, seed = draw(st.sampled_from([1, 5, 25])), draw(st.integers(0, 999))
        return lattice, grid, n, how, draw(st.sampled_from(list(AxiomId))).value, samples, seed
    k = len(pkat.engine._space(lattice, grid).cells)
    fits = [a.value for a in AxiomId if _walk_size(pkat.catalog._AXIOMS[a], k, n) <= WALK_LIMIT]
    return lattice, grid, n, how, draw(st.sampled_from(fits)), None, None


def _checked(lattice, grid, n, how, axiom, samples, seed):
    if how == "search":
        return find_boolean_witness(lattice, n, grid)[AxiomId(axiom)]
    return check_axiom(axiom, lattice, n, how, samples=samples, seed=seed, godel_grid=grid)


@settings(max_examples=40, deadline=None)
@example((L3, None, 1, "exhaustive", 14, None, None))  # premises that fail are excused
@example((L3, None, 1, "exhaustive", 15, None, None))
@example((GD, ["0", "1/3", "1"], 2, "random", 15, 25, 4))
@example((L3, None, 3, "exhaustive", 219, None, None))  # fails at the walk's second test
@example((GD, GODEL9, 2, "random", 220, 25, 1))  # many failures in one chunk: the first
@given(_runs())
def test_axiom_verdicts_match_the_per_instance_loop(run):
    lattice, grid, n, how, axiom, samples, seed = run
    got = _checked(*run)
    law = pkat.catalog._AXIOMS[AxiomId(axiom)]
    want = oracle_run(law, AxiomId(axiom), lattice, n, grid, how, samples, seed)
    assert verdict_to_dict(got) == verdict_to_dict(want)
    assert got.status is Status.HOLDS or recheck(got)


def _horn(formula):
    """The formula compiled as the catalog compiles its laws."""
    return pkat.catalog._Laws()[SimpleNamespace(formula=formula)]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(FAILING_HORN), st.sampled_from(GRIDS[:4]), st.integers(1, 2),
       st.integers(0, 99))
def test_failing_horn_laws_match_the_per_instance_loop(formula, space, n, seed):
    lattice, grid = space
    law, ident = _horn(formula), AxiomId.STAR_IND_L
    k = len(pkat.engine._space(lattice, grid).cells)
    for how, samples in (("random", 40), ("exhaustive", None)):
        if how == "exhaustive" and _walk_size(law, k, n) > WALK_LIMIT:
            continue
        with patch.object(pkat.catalog, "_AXIOMS", {ident: law}):
            got = check_axiom(ident, lattice, n, how, samples=samples, seed=seed, godel_grid=grid)
        want = oracle_run(law, ident, lattice, n, grid, how, samples, seed)
        assert verdict_to_dict(got) == verdict_to_dict(want)


def test_a_failing_horn_law_skips_instances_whose_premise_fails():
    # While m = BOT the premise is the goal, so each of the first 81 instances
    # holds; 45 of them break the goal.  The law fails at m = (u,u), p = BOT
    # and q = (u,u), the walk's 83rd instance.
    law = _horn(FAILING_HORN[0])
    with patch.object(pkat.catalog, "_AXIOMS", {AxiomId.STAR_IND_L: law}):
        verdict = check_axiom(AxiomId.STAR_IND_L, L3, 1)
        assert recheck(verdict)
    want = oracle_run(law, AxiomId.STAR_IND_L, L3, 1, None, "exhaustive")
    assert verdict_to_dict(verdict) == verdict_to_dict(want)
    assert (verdict.status, verdict.samples) == (Status.FAILS, 83)


def _near(t1, t2):
    """Right sides that hold against t1, or fail on some models only."""
    return st.sampled_from([t2, Plus(t1, t1), Plus(One(), Dot(t1, Star(t1))), Plus(t1, t2),
                            Dot(t1, t2), Plus(t1, Dot(t2, t1))])


@settings(max_examples=60, deadline=None)
@given(st.tuples(PROGRAM_TERMS, PROGRAM_TERMS).flatmap(lambda ts: st.tuples(st.just(ts[0]),
                                                                             _near(*ts))),
       st.sampled_from(GRIDS), st.integers(1, 3), st.sampled_from([1, 6, 40]),
       st.integers(0, 999))
def test_equiv_random_matches_the_per_instance_loop(terms, space, n, samples, seed):
    (t1, t2), (lattice, grid) = terms, space
    got = equiv_random(t1, t2, lattice, n, samples, seed, test_names="ab", godel_grid=grid)
    want = oracle_equiv_random(t1, t2, lattice, n, samples, seed, "ab", grid)
    assert verdict_to_dict(got) == verdict_to_dict(want)
    assert got.status is Status.HOLDS or recheck(got)


def test_a_repeated_star_runs_once_per_chunk(monkeypatch):
    # r* occurs three times on the left and once on the right: one slot, so
    # one Warshall closure for each chunk encoded.
    stars, chunks = [], []
    star, encode = pkat.bitslice._OPS[Star], pkat.bitslice._encode
    monkeypatch.setitem(pkat.bitslice._OPS, Star, lambda *a: stars.append(a) or star(*a))
    monkeypatch.setattr(pkat.bitslice, "_encode", lambda *a: chunks.append(a) or encode(*a))
    verdict = equiv_random(parse("r*;r* + r*"), parse("r*"), L3, 2, 20, 1)
    assert verdict.status is Status.HOLDS and len(stars) == len(chunks) > 1


def _complements_and_chunks(monkeypatch, t1, t2):
    """Run equiv_random on t1 = t2, recording each complement and each chunk encoded."""
    nots, chunks = [], []
    complement, encode = pkat.bitslice._not, pkat.bitslice._encode
    counted = lambda *a: nots.append(a) or complement(*a)
    monkeypatch.setattr(pkat.bitslice, "_not", counted)
    monkeypatch.setitem(pkat.bitslice._OPS, Not, counted)
    monkeypatch.setattr(pkat.bitslice, "_encode", lambda *a: chunks.append(a) or encode(*a))
    verdict = equiv_random(parse(t1), parse(t2), L3, 2, 20, 1)
    return verdict, nots, chunks


def test_a_law_without_1_or_negation_complements_nothing(monkeypatch):
    verdict, nots, chunks = _complements_and_chunks(monkeypatch, "p;q", "q;p")
    assert verdict.status is Status.FAILS and chunks and nots == []


def test_1_is_complemented_once_per_chunk(monkeypatch):
    # 1 compiles as !0: one Not step for each chunk encoded.
    verdict, nots, chunks = _complements_and_chunks(monkeypatch, "1;p", "p")
    assert verdict.status is Status.HOLDS and len(nots) == len(chunks) > 1


def test_a_run_encodes_each_cell_at_most_once_for_all_its_laws(monkeypatch):
    # 21 laws over the 81 cells of a 9-point grid share one space.
    codes, code = [], pkat.bitslice._code
    monkeypatch.setattr(pkat.bitslice, "_code", lambda *a: codes.append(a) or code(*a))
    grid = [Fraction(i, 8) for i in range(9)]
    verdicts = check_suite(GD, 2, "random", samples=8, seed=0, godel_grid=grid)
    assert len(verdicts) == 21 and 0 < len(codes) <= 81


# --- early exits --------------------------------------------------------------------


def _counted(monkeypatch, name):
    """Record every instance the engine's stream ``name`` yields."""
    taken, stream = [], getattr(pkat.engine, name)
    monkeypatch.setattr(pkat.engine, name,
                        lambda *a: (taken.append(c) or c for c in stream(*a)))
    return taken


def test_a_mutant_failing_at_its_first_sample_draws_one_model(monkeypatch):
    drawn = _counted(monkeypatch, "_draws")
    verdict = equiv_random(parse("p;q"), parse("q;p"), L3, 2, 100_000, 0)
    assert (verdict.status, verdict.samples, len(drawn)) == (Status.FAILS, 1, 1)


def test_an_exhaustive_law_failing_at_its_second_instance_encodes_a_few(monkeypatch):
    taken = _counted(monkeypatch, "_walk")
    verdict = check_axiom(AxiomId.TEST_NON_CONTRA, L3, 3)  # a walk of 9 tests
    assert (verdict.status, verdict.samples) == (Status.FAILS, 2) and len(taken) <= 3
    # The same law's full walk at six states: 9^6 tests, of which it takes three.
    engine = pkat.engine
    law, space = pkat.catalog._AXIOMS[AxiomId.TEST_NON_CONTRA], engine._space(L3, None)
    taken.clear()
    found = engine._drive(law, L3, engine.states_for(6), space, "exhaustive", None, None)
    (test,) = found.witness.assignment.values()
    diagonal = list(zip(*rank_lists(test)))[::7]
    assert found.samples == 2 and diagonal == [space.cells[0]] * 5 + [space.cells[1]]
    assert len(taken) == 3


# --- the encoding -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.sampled_from([1, 2, 3, 7, 64, None]), st.integers(1, 3),
       st.integers(0, 2**32))
def test_a_chunk_encodes_bit_j_of_instance_b_at_bit_j_times_b_plus_b(top, size, width, seed):
    rng, cells = random.Random(seed), [(t, f) for t in range(top + 1) for f in range(top + 1)]
    size = size or MAX_BITS // (2 * top)  # None: the chunk cap at this top
    chunk = [[rng.randrange(len(cells)) for _ in range(width)] for _ in range(size)]
    bits = [format(_code(t, f, top), f"0{2 * top}b") for t, f in cells]
    got = _encode(chunk, bits, 2 * top)
    for value, column in zip(got, zip(*chunk), strict=True):
        codes = [_code(*cells[i], top) for i in column]
        want = "".join(str(code >> j & 1) for j in range(2 * top) for code in codes)
        assert value < 1 << 2 * top * size
        assert f"{value:0{2 * top * size}b}"[::-1] == want  # bit p is digit p from the right


def test_a_sixty_point_grid_suite_matches_the_per_instance_loop_in_bounded_memory():
    # 3,600 cells of 59 cuts each, encoded once per law as one string a cell:
    # a table of one-digit strings per cut instead took about 4 MiB.
    grid = [Fraction(i, 59) for i in range(60)]
    tracemalloc.start()
    try:
        got = check_suite(GD, 1, "random", samples=1, seed=0, godel_grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    for verdict in got:  # the oracle reads samples and seed in random mode only
        law = pkat.catalog._AXIOMS[verdict.axiom]
        want = oracle_run(law, verdict.axiom, GD, 1, grid, verdict.mode, 1, 0)
        assert verdict_to_dict(verdict) == verdict_to_dict(want)
