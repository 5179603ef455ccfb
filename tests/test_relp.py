import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import pkat.relp

from pkat.bitslice import _star as warshall
from pkat.errors import ShapeError, SortError
from pkat.relp import (
    PRel,
    format_prel,
    from_entries,
    from_ranks,
    identity,
    is_test,
    prel_to_entries,
    r_dot,
    r_leq,
    r_plus,
    r_star,
    r_star_steps,
    t_complement,
    from_diagonal,
    value_table,
    zero,
)
from pkat.lattice import LatticeElem
from pkat.twist import Weight, negate, wbot, weight, wjoin, wleq, wtop

from helpers import (
    B2,
    GD,
    L3,
    LUKA_WEIGHTS,
    dict_matrix,
    gw,
    lw,
    oracle_dot,
    oracle_identity,
    oracle_star,
    random_godel_elem,
    rank_complement,
    rank_dot,
    rank_leq,
    rank_plus,
)

W = ("w1", "w2")


@pytest.fixture
def rel_r():
    return from_entries(
        L3, W, {("w1", "w2"): lw("top", "bot"), ("w2", "w1"): lw("top", "u")}
    )


def single(w):
    return PRel(L3, ("w",), (w,))


def test_identity_and_zero():
    ident = identity(L3, W)
    assert ident.entry("w1", "w1") == wtop(L3)
    assert ident.entry("w1", "w2") == wbot(L3)
    z = zero(L3, W)
    for _, w in z.pairs():
        assert w == wbot(L3)
    assert is_test(ident) and is_test(z)
    with pytest.raises(ShapeError):
        identity(L3, ())


def test_plus_examples(rel_r):
    z = zero(L3, W)
    assert r_plus(rel_r, z) == rel_r
    assert r_plus(rel_r, rel_r) == rel_r
    a, b = single(lw("top", "u")), single(lw("u", "bot"))
    assert r_plus(a, b) == single(lw("top", "bot"))


def test_dot_worked_example(rel_r):
    rr = r_dot(rel_r, rel_r)
    assert rr.entry("w1", "w1") == lw("top", "u")
    assert rr.entry("w1", "w2") == lw("bot", "top")
    assert rr.entry("w2", "w1") == lw("bot", "top")
    assert rr.entry("w2", "w2") == lw("top", "u")


def test_dot_identity_laws(rel_r):
    ident = identity(L3, W)
    z = zero(L3, W)
    assert r_dot(ident, rel_r) == rel_r
    assert r_dot(rel_r, ident) == rel_r
    assert r_dot(z, rel_r) == z
    assert r_dot(rel_r, z) == z


def test_star_examples(rel_r):
    assert r_star(zero(L3, W)) == identity(L3, W)
    assert r_star(identity(L3, W)) == identity(L3, W)
    star = r_star(rel_r)
    assert star.entry("w1", "w2") == lw("top", "bot")
    assert star.entry("w1", "w1") == wtop(L3)
    assert star.entry("w2", "w1") == lw("top", "u")


def test_star_unfolding_exact(rel_r):
    ident = identity(L3, W)
    star = r_star(rel_r)
    assert r_plus(ident, r_dot(rel_r, star)) == star
    assert r_plus(ident, r_dot(star, rel_r)) == star


def test_star_stabilizes_and_matches_power_join():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        states = tuple(f"s{i}" for i in range(n))
        entries = tuple(rng.choice(LUKA_WEIGHTS) for _ in range(n * n))
        rel = PRel(L3, states, entries)
        star, steps = r_star_steps(rel)
        assert steps <= n + 1
        expected = oracle_star(states, dict_matrix(rel), L3, 2 * n)
        assert dict_matrix(star) == expected


def test_star_builds_its_unit_from_ranks(monkeypatch):
    rel = PRel(L3, ("s0", "s1", "s2"), [lw("u", "bot"), lw("top", "u"), lw("bot", "top")] * 3)
    expected = r_star(rel)
    calls = []
    monkeypatch.setattr(pkat.relp, "value_table", lambda values: calls.append(values))
    assert r_star(rel) == expected
    assert calls == []  # no table is sorted again inside the star


def test_star_induction():
    rng = random.Random(11)
    for _ in range(200):
        states = ("s0", "s1")
        p = PRel(L3, states, tuple(rng.choice(LUKA_WEIGHTS) for _ in range(4)))
        r = PRel(L3, states, tuple(rng.choice(LUKA_WEIGHTS) for _ in range(4)))
        if r_leq(r_dot(p, r), r):
            assert r_leq(r_dot(r_star(p), r), r)
        if r_leq(r_dot(r, p), r):
            assert r_leq(r_dot(r, r_star(p)), r)


def test_leq_examples(rel_r):
    assert r_leq(zero(L3, W), rel_r)
    other = from_entries(L3, W, {("w1", "w1"): lw("u", "u")})
    assert r_leq(rel_r, r_plus(rel_r, other))
    assert not r_leq(rel_r, identity(L3, W))
    assert r_leq(rel_r, rel_r) and (r_plus(rel_r, rel_r) == rel_r)


def test_leq_agrees_with_plus_absorption():
    singles = [single(w) for w in LUKA_WEIGHTS]
    for a, b in product(singles, repeat=2):
        assert r_leq(a, b) == (r_plus(a, b) == b)


def test_complement_examples():
    t = from_diagonal(L3, W, {"w1": lw("u", "bot")})
    tc = t_complement(t)
    assert tc.entry("w1", "w1") == lw("bot", "u")
    assert tc.entry("w2", "w2") == wtop(L3)  # negate of the default BOT
    assert tc.entry("w1", "w2") == wbot(L3)
    assert t_complement(tc) == t
    ident = identity(L3, W)
    assert t_complement(ident) == zero(L3, W)


def test_complement_requires_subidentity(rel_r):
    with pytest.raises(SortError):
        t_complement(rel_r)


def test_tests_closed_under_operations():
    diags = [from_diagonal(L3, ("w",), {"w": x}) for x in LUKA_WEIGHTS]
    for a, b in product(diags, repeat=2):
        assert is_test(r_plus(a, b))
        assert is_test(r_dot(a, b))
        assert r_dot(a, b) == r_dot(b, a)
        assert r_dot(a, a) == a
    for a in diags:
        assert is_test(t_complement(a))


def test_two_state_test_composition_meets_diagonals():
    ta = from_diagonal(L3, W, {"w1": lw("top", "bot"), "w2": lw("u", "u")})
    tb = from_diagonal(L3, W, {"w1": lw("u", "bot"), "w2": lw("top", "bot")})
    both = r_dot(ta, tb)
    assert both.entry("w1", "w1") == lw("u", "bot")
    assert both.entry("w2", "w2") == lw("u", "u")
    assert is_test(both)


def test_non_contradiction_fails_on_the_chain():
    t = from_diagonal(L3, ("w",), {"w": lw("u", "u")})
    assert r_dot(t, t_complement(t)) != zero(L3, ("w",))
    assert r_plus(t, t_complement(t)) != identity(L3, ("w",))


def test_non_contradiction_holds_for_classical_tests():
    corners = (wtop(B2), wbot(B2))
    for d1, d2 in product(corners, repeat=2):
        t = from_diagonal(B2, W, {"w1": d1, "w2": d2})
        assert r_dot(t, t_complement(t)) == zero(B2, W)
        assert r_plus(t, t_complement(t)) == identity(B2, W)


def test_classical_embedding_small():
    # {TOP, BOT} matrices behave as plain relations.
    t, b = wtop(B2), wbot(B2)
    rel = from_entries(B2, W, {("w1", "w2"): t})
    assert prel_to_set(rel) == {("w1", "w2")}
    assert prel_to_set(r_star(rel)) == {("w1", "w1"), ("w2", "w2"), ("w1", "w2")}
    back = from_entries(B2, W, {("w2", "w1"): t})
    assert prel_to_set(r_dot(rel, back)) == {("w1", "w1")}
    assert prel_to_set(r_plus(rel, back)) == {("w1", "w2"), ("w2", "w1")}


def prel_to_set(rel):
    return {pair for pair, w in rel.pairs() if w == wtop(rel.lattice)}


def test_shape_checks(rel_r):
    with pytest.raises(ShapeError):
        r_plus(rel_r, zero(L3, ("w1",)))
    with pytest.raises(ShapeError):
        r_dot(rel_r, zero(B2, W))
    with pytest.raises(ShapeError):
        PRel(L3, W, (wbot(L3),) * 3)
    with pytest.raises(ShapeError):
        PRel(L3, ("w", "w"), (wbot(L3),) * 4)
    with pytest.raises(ShapeError):
        from_entries(L3, W, {("w1", "nope"): lw("u", "u")})
    with pytest.raises(ShapeError):
        rel_r.entry("w1", "nope")
    with pytest.raises(ShapeError):
        PRel(L3, ("w",), (weight(B2, 1, 0),))


def test_format_and_entries_export(rel_r):
    text = format_prel(rel_r)
    assert "(top,bot)" in text and text.splitlines()[0].strip().startswith("w1")
    rows = prel_to_entries(rel_r)
    assert ["w1", "w2", "top", "bot"] in rows
    assert len(rows) == 4  # defaults made explicit
    assert format_prel(rel_r, unicode=True).count("⊤") > 0


# --- rank kernel against the Weight-level oracles ------------------------------

THIRDS = tuple(gw(Fraction(t, 3), Fraction(f, 3)) for t in (1, 2) for f in (1, 2))
QUARTERS = tuple(gw(Fraction(t, 4), Fraction(f, 4)) for t in (1, 2, 3) for f in (1, 2, 3))


def _random_rel(rng, lattice, states, pool):
    return PRel(lattice, states, tuple(rng.choice(pool) for _ in range(len(states) ** 2)))


def _check_pair(r, s):
    states, lattice = r.states, r.lattice
    a, b = dict_matrix(r), dict_matrix(s)
    assert dict_matrix(r_plus(r, s)) == {k: wjoin(a[k], b[k]) for k in a}
    assert dict_matrix(r_dot(r, s)) == oracle_dot(states, a, b, lattice)
    assert r_leq(r, s) == all(wleq(a[k], b[k]) for k in a)
    assert (r == s) == (a == b)
    # The same weights re-encoded on another table stay equal, hash alike.
    again = PRel(lattice, states, s.weights, values=r.values)
    assert again == s and hash(again) == hash(s)
    assert is_test(r) == all(w == wbot(lattice) for (u, v), w in a.items() if u != v)


def _check_star(r):
    states, lattice, a = r.states, r.lattice, dict_matrix(r)
    star, steps = r_star_steps(r)
    joined = power = oracle_identity(states, lattice)
    for rounds in range(1, len(states) + 2):
        power = oracle_dot(states, a, power, lattice)
        grown = {k: wjoin(joined[k], power[k]) for k in joined}
        if grown == joined:
            break
        joined = grown
    assert (dict_matrix(star), steps) == (joined, rounds)
    # The chunk kernels' Warshall closure, on this one instance, agrees.
    assert warshall(r.bits, None, len(states), len(r.values) - 1) == list(star.bits)


@st.composite
def star_operands(draw):
    """A relation on Ł3 or on a godel table of up to 16 values, n <= 10:
    empty, sparse, dense or self-loops only."""
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 10))))
    if draw(st.booleans()):
        lattice, pool = L3, LUKA_WEIGHTS
    else:
        table = draw(st.lists(st.fractions(0, 1, max_denominator=15), max_size=14))
        lattice = GD
        pool = [weight(GD, t, f) for t in {0, 1, *table} for f in {0, 1, *table}]
    cells, w = list(product(states, repeat=2)), st.sampled_from(pool)
    shape = draw(st.sampled_from(["empty", "sparse", "dense", "self-loops"]))
    if shape == "sparse":
        picked = st.lists(st.sampled_from(cells), max_size=2 * len(states))
        entries = {uv: draw(w) for uv in draw(picked)}
    elif shape == "dense":
        entries = {uv: draw(w) for uv in cells}
    else:
        entries = {(u, u): draw(w) for u in states} if shape == "self-loops" else {}
    return from_entries(lattice, states, entries)


@settings(max_examples=150, deadline=None)
@given(star_operands())
def test_star_matches_the_power_join_in_value_and_rounds(r):
    _check_star(r)


def _round_star(r):
    """The star by iterating S = 1 + R.S on ranks until it stops changing."""
    n, top = len(r.states), len(r.values) - 1

    def dot(a, b, add, mul):
        rows, cols = [a[i * n:i * n + n] for i in range(n)], [b[j::n] for j in range(n)]
        return [add(map(mul, row, col)) for row in rows for col in cols]

    one_tt = [top if k % (n + 1) == 0 else 0 for k in range(n * n)]
    one_ff = [top - t for t in one_tt]
    tt, ff = one_tt, one_ff
    for step in range(1, n + 2):
        nxt_tt = list(map(max, one_tt, dot(r.tt, tt, max, min)))
        nxt_ff = list(map(min, one_ff, dot(r.ff, ff, min, max)))
        if (nxt_tt, nxt_ff) == (tt, ff):
            return tuple(tt), tuple(ff), step
        tt, ff = nxt_tt, nxt_ff
    raise AssertionError("no fixpoint within n + 1 rounds")


def test_star_of_forty_states_matches_the_round_loop():
    # A ring of random weights on a 16-value godel table, with a few chords:
    # values travel far, so the rounds count long paths.
    rng, n = random.Random(4040), 40
    values = value_table(Fraction(i, 15) for i in range(16))
    tt, ff = [0] * (n * n), [15] * (n * n)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(rng.randrange(n), rng.randrange(n))
                                                    for _ in range(12)]
    for i, j in edges:
        tt[i * n + j], ff[i * n + j] = rng.randint(1, 15), rng.randint(0, 14)
    r = from_ranks(GD, tuple(f"s{i}" for i in range(n)), values, tuple(tt), tuple(ff))
    star, steps = r_star_steps(r)
    assert (star.tt, star.ff, steps) == _round_star(r)
    assert steps > 10


def test_star_makes_no_matrix_products(monkeypatch):
    rng = random.Random(6)
    states = tuple(f"s{i}" for i in range(6))
    rels = [_random_rel(rng, L3, states, LUKA_WEIGHTS) for _ in range(5)]
    calls = []
    dot = pkat.relp._dot
    monkeypatch.setattr(pkat.relp, "_dot", lambda *args: calls.append(1) or dot(*args))
    for rel in rels:
        r_star(rel)
        r_star_steps(rel)
    assert calls == []
    r_dot(rels[0], rels[1])
    assert calls == [1]  # the counter sees the one product r_dot makes


def _check_complement(t):
    d = dict_matrix(t)
    expected = {(u, v): negate(w) if u == v else w for (u, v), w in d.items()}
    assert dict_matrix(t_complement(t)) == expected


def test_rank_kernel_matches_weight_oracles():
    rng = random.Random(2506)
    for i in range(60):
        n = 1 + i % 5
        states = tuple(f"s{k}" for k in range(n))
        godel_pool = tuple(
            gw(random_godel_elem(rng), random_godel_elem(rng)) for _ in range(6)
        )
        entries = {uv: rng.choice(LUKA_WEIGHTS) for uv in product(states, states)}
        sparse = from_entries(L3, states, {k: w for k, w in entries.items() if rng.random() < 0.4})
        luka = [_random_rel(rng, L3, states, LUKA_WEIGHTS) for _ in range(2)]
        pairs = [
            tuple(luka),
            (sparse, identity(L3, states)),
            (_random_rel(rng, GD, states, THIRDS), _random_rel(rng, GD, states, QUARTERS)),
            (_random_rel(rng, GD, states, godel_pool), zero(GD, states)),
        ]
        for r, s in pairs:
            _check_pair(r, s)
            _check_pair(s, r)
            _check_pair(r, r)
            _check_star(r)
        for lattice, pool in ((L3, LUKA_WEIGHTS), (GD, godel_pool)):
            _check_complement(
                from_diagonal(lattice, states, {u: rng.choice(pool) for u in states})
            )



# --- cut bits against the rank form -------------------------------------------

RANK_TABLES = [
    (B2, value_table(())),  # top = 1
    (L3, value_table([Fraction(1, 2)])),
    (GD, value_table(Fraction(i, 8) for i in range(9))),
    (GD, value_table(Fraction(i, 39) for i in range(40))),
]


@st.composite
def rank_operands(draw):
    """Two relations of n <= 6 states over one lattice, each as (relation,
    table, tt, ff) and built by ``from_ranks``.  A table is the lattice's
    whole table or a few of its values, so operands may sit on different
    tables; a relation is a test half the time."""
    lattice, whole = draw(st.sampled_from(RANK_TABLES))
    n = draw(st.integers(1, 6))
    states = tuple(f"s{i}" for i in range(n))
    out = []
    for _ in range(2):
        table = value_table(draw(st.one_of(st.just(whole),
                                           st.lists(st.sampled_from(whole), max_size=6))))
        top = len(table) - 1
        tt, ff = (draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n))
                  for _ in range(2))
        if draw(st.booleans()):
            for k in range(n * n):
                if k % (n + 1):
                    tt[k], ff[k] = 0, top
        tt, ff = tuple(tt), tuple(ff)
        out.append((from_ranks(lattice, states, table, tt, ff), table, tt, ff))
    return out


@settings(max_examples=150, deadline=None)
@given(rank_operands())
def test_cut_bits_match_the_rank_form(operands):
    (r, r_table, *r_ranks), (s, s_table, *s_ranks) = operands
    lattice, n = r.lattice, len(r.states)
    for rel, table, (tt, ff) in ((r, r_table, r_ranks), (s, s_table, s_ranks)):
        assert (rel.values, rel.tt, rel.ff) == (table, tt, ff)
        top = len(table) - 1  # bit t-1 for tt >= t, bit top+s for ff <= s
        assert list(rel.bits) == [sum(1 << c - 1 for c in range(1, top + 1) if t >= c)
                                  + sum(1 << top + c for c in range(top) if f <= c)
                                  for t, f in zip(tt, ff)]
        elems = [LatticeElem(lattice, v) for v in table]
        assert rel.weights == tuple(Weight(elems[t], elems[f]) for t, f in zip(tt, ff))
    merged = value_table((*r_table, *s_table))
    a, b = ([tuple(merged.index(table[x]) for x in ranks) for ranks in pair]
            for table, pair in ((r_table, r_ranks), (s_table, s_ranks)))

    def ranks(rel):
        return rel.values, [rel.tt, rel.ff]

    assert ranks(r_plus(r, s)) == (merged, list(rank_plus(a, b)))
    assert ranks(r_dot(r, s)) == (merged, list(rank_dot(a, b, n)))
    assert r_leq(r, s) == rank_leq(a, b)
    assert (r == s) == (a == b)
    again = from_ranks(lattice, r.states, merged, *a)
    assert again == r and hash(again) == hash(r)
    top = len(r_table) - 1
    test = all(r_ranks[0][k] == 0 and r_ranks[1][k] == top for k in range(n * n) if k % (n + 1))
    assert is_test(r) == test
    if test:
        assert ranks(t_complement(r)) == (r_table, list(rank_complement(r_ranks, n)))
    else:
        with pytest.raises(SortError):
            t_complement(r)


def test_sparse_encoding_keeps_the_table_and_the_weights():
    # from_entries and from_diagonal encode only the listed entries and
    # give every other cell the BOT ranks.
    rng = random.Random(4401)
    for i in range(80):
        n = 1 + i % 5
        states = tuple(f"s{k}" for k in range(n))
        lattice, pool = (L3, LUKA_WEIGHTS) if i % 2 else (
            GD, tuple(gw(random_godel_elem(rng), random_godel_elem(rng)) for _ in range(4)))
        extra = [random_godel_elem(rng).value for _ in range(i % 3)] if lattice is GD else []
        entries = {uv: rng.choice(pool) for uv in product(states, states) if rng.random() < 0.5}
        diagonal = {u: rng.choice(pool) for u in states if rng.random() < 0.7}
        for rel, cells in (
            (from_entries(lattice, states, entries, extra), entries),
            (from_diagonal(lattice, states, diagonal, extra), {(u, u): w for u, w in diagonal.items()}),
            (PRel(lattice, states, [entries.get(uv, wbot(lattice)) for uv in product(states, states)],
                  extra), entries),
        ):
            used = {x.value for w in cells.values() for x in (w.tt, w.ff)}
            assert rel.values == tuple(sorted({Fraction(0), Fraction(1), *extra, *used}))
            assert rel.weights == tuple(cells.get(uv, wbot(lattice)) for uv in product(states, states))
            assert rel.states == states and rel.lattice is lattice
    for states, entries, message in (
        (W, {("w1", "w9"): lw("u", "u")}, "entry ('w1', 'w9') names an unknown state"),
        ((), {}, "a relation needs a nonempty state set"),
        (("w", "w"), {}, "duplicate state name"),
        (W, {("w1", "w1"): gw("0.5", "0")}, "entry weight from a different lattice"),
    ):
        with pytest.raises(ShapeError, match=re.escape(message)):
            from_entries(L3, states, entries)
