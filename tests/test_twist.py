import json
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pkat.errors import LatticeMismatchError, ModelError
from pkat.lattice import elem
from pkat.plts import load_model, valuation
from pkat.twist import (
    ConsistencyClass,
    Weight,
    classify,
    format_weight,
    negate,
    wbot,
    weight,
    weight_to_json,
    wjoin,
    wleq,
    wmeet,
    wtop,
)

from helpers import B2, GD, L3, LUKA_WEIGHTS, lw, random_godel_elem

T3, B3 = wtop(L3), wbot(L3)


def check_lemma_binary(x, y):
    lat = x.lattice
    t, b = wtop(lat), wbot(lat)
    assert negate(negate(x)) == x
    assert wjoin(x, t) == t
    assert wjoin(x, b) == x
    assert wjoin(x, x) == x
    assert wmeet(x, x) == x
    assert wjoin(x, y) == wjoin(y, x)
    assert wmeet(x, y) == wmeet(y, x)
    assert negate(wjoin(x, y)) == wmeet(negate(x), negate(y))
    assert negate(wmeet(x, y)) == wjoin(negate(x), negate(y))
    assert wmeet(x, t) == x and wmeet(t, x) == x
    assert wmeet(x, b) == b and wmeet(b, x) == b


def check_lemma_ternary(x, y, z):
    assert wjoin(x, wjoin(y, z)) == wjoin(wjoin(x, y), z)
    assert wmeet(x, wmeet(y, z)) == wmeet(wmeet(x, y), z)
    assert wmeet(x, wjoin(y, z)) == wjoin(wmeet(x, y), wmeet(x, z))
    assert wjoin(x, wmeet(y, z)) == wmeet(wjoin(x, y), wjoin(x, z))


def test_lemma_suite_exhaustive_three_valued():
    for x, y in product(LUKA_WEIGHTS, repeat=2):
        check_lemma_binary(x, y)
    for x, y, z in product(LUKA_WEIGHTS, repeat=3):
        check_lemma_ternary(x, y, z)


def test_lemma_suite_exhaustive_boolean_pairs():
    # All sixteen pair combinations over {0,1} x {0,1}.
    values = [weight(B2, a, b) for a in (0, 1) for b in (0, 1)]
    for x, y in product(values, repeat=2):
        check_lemma_binary(x, y)
    for x, y, z in product(values, repeat=3):
        check_lemma_ternary(x, y, z)


def test_wjoin_examples():
    assert wjoin(lw("u", "bot"), lw("top", "u")) == lw("top", "bot")
    for x in LUKA_WEIGHTS:
        assert wjoin(x, B3) == x
        assert wjoin(x, T3) == T3


def test_wmeet_examples():
    assert wmeet(lw("top", "bot"), lw("u", "bot")) == lw("u", "bot")
    for x in LUKA_WEIGHTS:
        assert wmeet(x, T3) == x
        assert wmeet(x, B3) == B3


def test_negate_examples():
    assert negate(lw("u", "bot")) == lw("bot", "u")
    assert negate(T3) == B3
    for x in LUKA_WEIGHTS:
        assert negate(negate(x)) == x


def test_wleq_examples():
    assert wleq(lw("u", "u"), lw("top", "bot"))
    for x in LUKA_WEIGHTS:
        assert wleq(x, x)
    assert not wleq(lw("bot", "bot"), lw("top", "top"))
    assert not wleq(lw("top", "top"), lw("bot", "bot"))


def test_order_is_partial_order_with_lub_glb():
    for x, y in product(LUKA_WEIGHTS, repeat=2):
        if wleq(x, y) and wleq(y, x):
            assert x == y
        j, m = wjoin(x, y), wmeet(x, y)
        assert wleq(x, j) and wleq(y, j)
        assert wleq(m, x) and wleq(m, y)
        for z in LUKA_WEIGHTS:
            if wleq(x, z) and wleq(y, z):
                assert wleq(j, z)
            if wleq(z, x) and wleq(z, y):
                assert wleq(z, m)
    for x, y, z in product(LUKA_WEIGHTS, repeat=3):
        if wleq(x, y) and wleq(y, z):
            assert wleq(x, z)


def test_bounds_are_extremes():
    for x in LUKA_WEIGHTS:
        assert wleq(B3, x)
        assert wleq(x, T3)


def test_meet_monotone():
    for x, x2, y, y2 in product(LUKA_WEIGHTS, repeat=4):
        if wleq(x, x2) and wleq(y, y2):
            assert wleq(wmeet(x, y), wmeet(x2, y2))
            assert wleq(wjoin(x, y), wjoin(x2, y2))


def test_negate_is_order_antimorphism():
    for x, y in product(LUKA_WEIGHTS, repeat=2):
        assert wleq(x, y) == wleq(negate(y), negate(x))


def test_classical_corners_closed():
    corners = {T3, B3}
    for x, y in product(corners, repeat=2):
        assert wjoin(x, y) in corners
        assert wmeet(x, y) in corners
    for x in corners:
        assert negate(x) in corners


# --- classification -----------------------------------------------------------


def test_classify_examples():
    assert classify(lw("top", "u")) is ConsistencyClass.INCONSISTENT
    assert classify(lw("u", "bot")) is ConsistencyClass.VAGUE
    assert classify(lw("top", "bot")) is ConsistencyClass.CONSISTENT


def test_classify_partition_of_all_nine_pairs():
    expected = {
        ("top", "bot"): "consistent",
        ("u", "u"): "consistent",
        ("bot", "top"): "consistent",
        ("u", "bot"): "vague",
        ("bot", "bot"): "vague",
        ("bot", "u"): "vague",
        ("top", "u"): "inconsistent",
        ("top", "top"): "inconsistent",
        ("u", "top"): "inconsistent",
    }
    for (tt, ff), label in expected.items():
        assert classify(lw(tt, ff)).value == label


def test_classify_boolean_and_interval():
    assert classify(weight(B2, 0, 0)) is ConsistencyClass.VAGUE
    assert classify(weight(B2, 1, 1)) is ConsistencyClass.INCONSISTENT
    assert classify(weight(B2, 1, 0)) is ConsistencyClass.CONSISTENT
    assert classify(weight(GD, "0.25", "0.75")) is ConsistencyClass.CONSISTENT
    assert classify(weight(GD, "0.5", "0.75")) is ConsistencyClass.INCONSISTENT
    assert classify(weight(GD, "0.5", "0.25")) is ConsistencyClass.VAGUE


# --- plumbing -----------------------------------------------------------------


def test_mismatched_components_rejected():
    with pytest.raises(LatticeMismatchError):
        Weight(elem(L3, "u"), elem(B2, 1))
    for op in (wjoin, wmeet, wleq):  # the lattice operations refuse the mix
        with pytest.raises(LatticeMismatchError, match="^cannot combine lukasiewicz3 with bool2$"):
            op(T3, wtop(B2))


def _read_weight(lattice, pair):
    """``pair`` read back through a one-state model document."""
    doc = {"lattice": lattice.value, "states": ["s"], "tests": {"p": {"s": pair}}}
    return valuation(load_model(json.dumps(doc)), "p", "s")


def test_weight_json_round_trip():
    for w in LUKA_WEIGHTS:
        assert _read_weight(L3, weight_to_json(w)) == w
    w = weight(GD, "0.25", "1")
    assert _read_weight(GD, weight_to_json(w)) == w
    assert weight_to_json(wtop(B2)) == [1, 0]
    with pytest.raises(ModelError, match="a weight is a two-element"):
        _read_weight(L3, ["top"])


def test_format_weight():
    assert format_weight(lw("top", "u")) == "(top,u)"
    assert format_weight(lw("top", "bot"), unicode=True) == "(⊤,⊥)"


@given(st.integers(0, 2**32 - 1))
def test_godel_lemma_random(seed):
    rng = random.Random(seed)
    ws = [
        Weight(random_godel_elem(rng), random_godel_elem(rng)) for _ in range(3)
    ]
    check_lemma_binary(ws[0], ws[1])
    check_lemma_ternary(*ws)
