"""Acceptance suite: one test per release criterion.

Each test exercises its criterion at the stated tolerance (exact
equality unless noted), measures the stated runtime budget where one
applies, and prints a single PASS line; run with ``pytest -s`` to see
the lines as they go by.
"""

import random
import time
from itertools import product

from pkat.cli import main
from pkat.catalog import AxiomId, CORE_AXIOMS, check_axiom, find_boolean_witness
from pkat.engine import Status, evaluate, states_for
from pkat.lattice import bottom, big_join, big_meet, carrier, implies, join, leq, meet, top
from pkat.plts import valuation
from pkat.relp import r_star_steps
from pkat.setp import from_values, s_complement, s_star, s_subset, upsilon
from pkat.syntax import Atom, Dot, Plus, Star, parse, pretty
from pkat.twist import Weight, classify, negate, wjoin, wmeet, wtop

from helpers import (
    B2,
    GD,
    L3,
    LUKA_WEIGHTS,
    classical_eval,
    dict_matrix,
    lw,
    oracle_model,
    oracle_star,
    prel_to_set,
    random_any_term,
    random_godel_elem,
    random_sorted_term,
    space_weights,
)


def report(number, name):
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def _heyting_laws(a, b, c):
    lat = a.lattice
    assert meet(a, b) == meet(b, a) and join(a, b) == join(b, a)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert meet(a, a) == a and join(a, a) == a
    assert meet(a, join(a, b)) == a and join(a, meet(a, b)) == a
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))
    assert join(a, top(lat)) == top(lat) and meet(a, bottom(lat)) == bottom(lat)
    for x in (a, b, c):
        assert leq(meet(a, x), c) == leq(x, implies(a, c))
        if leq(a, b):
            assert leq(meet(a, x), meet(b, x))
    sample = [a, b, c]
    assert meet(a, big_join(lat, sample)) == big_join(lat, [meet(a, s) for s in sample])
    assert join(a, big_meet(lat, sample)) == big_meet(lat, [join(a, s) for s in sample])


def test_criterion_1_lattice_law_suite():
    start = time.process_time()
    for lattice in (B2, L3):
        for a, b, c in product(carrier(lattice), repeat=3):
            _heyting_laws(a, b, c)
    rng = random.Random(20260809)
    for _ in range(10_000):
        a, b, c = (random_godel_elem(rng) for _ in range(3))
        _heyting_laws(a, b, c)
    elapsed = time.process_time() - start
    assert elapsed < 1.0, f"lattice law suite took {elapsed:.2f}s"
    report(1, "lattice laws incl. adjunction, exhaustive + 10k interval triples")


def test_criterion_2_twisted_structure_suite():
    start = time.process_time()
    t3 = wtop(L3)
    b3 = Weight(bottom(L3), top(L3))
    for x, y in product(LUKA_WEIGHTS, repeat=2):
        assert negate(negate(x)) == x
        assert wjoin(x, t3) == t3 and wjoin(x, b3) == x
        assert wjoin(x, x) == x and wmeet(x, x) == x
        assert wjoin(x, y) == wjoin(y, x) and wmeet(x, y) == wmeet(y, x)
        assert negate(wjoin(x, y)) == wmeet(negate(x), negate(y))
        assert negate(wmeet(x, y)) == wjoin(negate(x), negate(y))
        assert wmeet(x, t3) == x and wmeet(t3, x) == x
        assert wmeet(x, b3) == b3 and wmeet(b3, x) == b3
    for x, y, z in product(LUKA_WEIGHTS, repeat=3):
        assert wjoin(x, wjoin(y, z)) == wjoin(wjoin(x, y), z)
        assert wmeet(x, wmeet(y, z)) == wmeet(wmeet(x, y), z)
        assert wmeet(x, wjoin(y, z)) == wjoin(wmeet(x, y), wmeet(x, z))
        assert wjoin(x, wmeet(y, z)) == wmeet(wjoin(x, y), wjoin(x, z))
    elapsed = time.process_time() - start
    assert elapsed < 1.0, f"twisted-structure suite took {elapsed:.2f}s"
    report(2, "pair-algebra property suite, 729 triples exhaustive")


def test_criterion_3_axioms_exhaustive_core():
    start = time.perf_counter()
    three_var = {1, 5, 7, 8, 213, 215}
    for ax in CORE_AXIOMS:
        verdict = check_axiom(ax, L3, 1, "exhaustive")
        assert verdict.status is Status.HOLDS, f"axiom {ax.value} failed"
        if ax.value in three_var:
            assert verdict.samples == 729
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"exhaustive core took {elapsed:.2f}s"
    report(3, "all core axioms hold exhaustively, one state, 729 triples")


def test_criterion_4_axioms_randomized():
    start = time.perf_counter()
    combos = [(L3, 2), (L3, 3), (GD, 2), (GD, 3)]
    per_combo = 500  # 2000 seeded instantiations per axiom over the 4 combos
    for ax in CORE_AXIOMS:
        for index, (lattice, n) in enumerate(combos):
            verdict = check_axiom(
                ax,
                lattice,
                n,
                "random",
                samples=per_combo,
                seed=ax.value * 1000 + n * 10 + index,
            )
            assert verdict.status is Status.HOLDS, (
                f"axiom {ax.value} failed on {lattice.value} |W|={n}: "
                f"{verdict.witness}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"randomized suite took {elapsed:.2f}s"
    report(4, "2000 random instantiations per core axiom all hold")


def test_criterion_5_boolean_axiom_refutation():
    found = find_boolean_witness(L3, 1)
    for ax in (AxiomId.TEST_NON_CONTRA, AxiomId.TEST_EXCL_MIDDLE):
        verdict = found[ax]
        assert verdict.status is Status.FAILS
        assert verdict.samples <= 9
        assert verdict.witness.assignment["a"].entry("w1", "w1") == lw("u", "u")
    assert find_boolean_witness(L3, 1) == found  # deterministic
    clean = find_boolean_witness(B2, 1)
    assert all(v.status is Status.HOLDS for v in clean.values())
    report(5, "chain witness diag (u,u) within 9 candidates; boolean lattice clean")


def test_criterion_6_star_against_power_join_oracle():
    rng = random.Random(424242)
    lattices = [L3, B2, GD]
    for i in range(500):
        n = 1 + i % 4
        states = states_for(n)
        lattice = lattices[i % 3]
        rel = oracle_model(rng, lattice, states, ("r",), ()).programs["r"]
        star, steps = r_star_steps(rel)
        assert steps <= n + 1
        expected = oracle_star(states, dict_matrix(rel), lattice, 2 * n)
        assert dict_matrix(star) == expected
    report(6, "500 random stars stabilize in |W|+1 rounds and equal power joins")


def test_criterion_7_set_star_closed_form():
    rng = random.Random(777)
    states = ("w1", "w2", "w3")
    for i in range(500):
        lattice = L3 if i % 2 else GD
        pool = space_weights(lattice)
        values = {w: rng.choice(pool) for w in states}
        phi = from_values(lattice, states, values)
        star = s_star(phi)
        assert star == upsilon(lattice, states)
        for w in states:
            power = wtop(lattice)
            acc = power
            for _ in range(5):
                power = wmeet(phi.value(w), power)
                acc = wjoin(acc, power)
            assert acc == star.value(w)
    report(7, "500 random set stars equal constant TOP and the iterated joins")


def test_criterion_8_worked_examples_bit_exact(two_state_model, data_dir):
    m = two_state_model
    assert valuation(m, "p", "w1") == lw("top", "bot")
    assert valuation(m, "p", "w2") == lw("u", "bot")

    states = ("w1", "w2")
    phi = from_values(L3, states, {"w1": lw("top", "u"), "w2": lw("u", "u")})
    psi = from_values(L3, states, {"w1": lw("top", "bot"), "w2": lw("top", "u")})
    phi_bar, psi_bar = s_complement(phi), s_complement(psi)
    assert phi_bar.value("w1") == lw("u", "top")
    assert phi_bar.value("w2") == lw("u", "u")
    assert psi_bar.value("w1") == lw("bot", "top")
    assert psi_bar.value("w2") == lw("u", "top")
    assert s_subset(phi, psi) and s_subset(psi_bar, phi_bar)

    partition = {
        "consistent": {("top", "bot"), ("u", "u"), ("bot", "top")},
        "vague": {("u", "bot"), ("bot", "bot"), ("bot", "u")},
        "inconsistent": {("top", "u"), ("top", "top"), ("u", "top")},
    }
    for label, pairs in partition.items():
        for tt, ff in pairs:
            assert classify(lw(tt, ff)).value == label
    report(8, "worked model, complements, subsets and the 9-pair partition")


def test_criterion_9_classical_embedding():
    rng = random.Random(90909)
    programs, tests = ("p", "q"), ("a", "b")
    t2 = wtop(B2)
    for i in range(1000):
        n = 1 + i % 3
        states = states_for(n)
        model = oracle_model(rng, B2, states, programs, tests)
        term = random_sorted_term(rng, rng.randint(0, 5), programs, tests)
        mine = prel_to_set(evaluate(term, model))
        sets = {name: prel_to_set(rel) for name, rel in model.programs.items()}
        sat = {
            name: {w for w in states if test.entry(w, w) == t2}
            for name, test in model.tests.items()
        }
        assert mine == classical_eval(term, states, sets, sat)
    report(9, "1000 random boolean term/model pairs match the set-relation oracle")


def test_criterion_10_parser_round_trip():
    rng = random.Random(1010)
    for _ in range(1000):
        term = random_any_term(rng, 8)
        assert parse(pretty(term)) == term
    assert parse("p + q ; r*") == Plus(Atom("p"), Dot(Atom("q"), Star(Atom("r"))))
    report(10, "1000 random terms round-trip; precedence pins p + q;r*")


def test_criterion_11_cli_golden(capsys, golden_dir, data_dir):
    cases = [
        (
            ["axioms", "--lattice", "lukasiewicz3", "--states", "1", "--exhaustive"],
            "axioms_luka3_exhaustive.txt",
            0,
        ),
        (
            ["eval", "--model", str(data_dir / "two_state.json"), "--term", "r;r"],
            "eval_rr.txt",
            0,
        ),
        (
            [
                "equiv",
                "--model",
                str(data_dir / "two_state.json"),
                "--t1",
                "1 + r;r*",
                "--t2",
                "r*",
            ],
            "equiv_star_unfold.txt",
            0,
        ),
    ]
    for argv, golden, wanted in cases:
        for _ in range(2):  # byte-identical across repeated runs
            code = main(argv)
            out = capsys.readouterr().out
            assert code == wanted, f"{argv} exited {code}"
            assert out == (golden_dir / golden).read_text(), f"{argv} drifted"
    report(11, "three CLI commands byte-identical to their golden outputs")
