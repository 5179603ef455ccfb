import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkat.errors import ModelError, ShapeError
from pkat.lattice import elem, elem_to_json
from pkat.plts import load_model
from pkat.setp import (
    PSet,
    _from_test,
    from_values,
    oslash,
    pset_to_json,
    s_complement,
    s_dot,
    s_plus,
    s_star,
    s_subset,
    upsilon,
)
from pkat.twist import negate, weight, wjoin, wleq, wmeet, wtop

from helpers import B2, GD, L3, LUKA_WEIGHTS, lw

W = ("w1", "w2")


def pset(**values):
    return from_values(L3, W, values)


@pytest.fixture
def phi():
    return pset(w1=lw("top", "u"), w2=lw("u", "u"))


@pytest.fixture
def psi():
    return pset(w1=lw("top", "bot"), w2=lw("top", "u"))


def test_complement_worked_example(phi, psi):
    phi_bar = s_complement(phi)
    psi_bar = s_complement(psi)
    assert phi_bar.value("w1") == lw("u", "top")
    assert phi_bar.value("w2") == lw("u", "u")
    assert psi_bar.value("w1") == lw("bot", "top")
    assert psi_bar.value("w2") == lw("u", "top")


def test_subset_worked_example(phi, psi):
    assert s_subset(phi, psi)
    assert s_subset(s_complement(psi), s_complement(phi))
    assert not s_subset(psi, phi)


def test_plus_pointwise(phi, psi):
    assert s_plus(phi, psi).value("w2") == lw("top", "u")
    assert s_plus(phi, oslash(L3, W)) == phi
    assert s_dot(phi, upsilon(L3, W)) == phi
    assert s_dot(phi, oslash(L3, W)) == oslash(L3, W)


def test_complement_is_involution(phi):
    assert s_complement(s_complement(phi)) == phi


def test_star_closed_form(phi, psi):
    top_set = upsilon(L3, W)
    assert s_star(phi) == top_set
    assert s_star(psi) == top_set
    assert s_star(oslash(L3, W)) == top_set
    assert s_star(top_set) == top_set


def test_star_matches_iterated_joins(phi):
    # Fold of pointwise powers 0..5, straight from the definition.
    for w in W:
        value = phi.value(w)
        power = wtop(L3)
        acc = power
        for _ in range(5):
            power = wmeet(value, power)
            acc = wjoin(acc, power)
        assert acc == s_star(phi).value(w)


def test_subset_agrees_with_plus_absorption():
    singles = [from_values(L3, ("w",), {"w": x}) for x in LUKA_WEIGHTS]
    for a, b in product(singles, repeat=2):
        assert s_subset(a, b) == (s_plus(a, b) == b)


def test_complement_is_antitone():
    singles = [from_values(L3, ("w",), {"w": x}) for x in LUKA_WEIGHTS]
    for a, b in product(singles, repeat=2):
        assert s_subset(a, b) == s_subset(s_complement(b), s_complement(a))


def test_single_state_algebra_laws_exhaustive():
    """With one state the whole test-algebra fragment can be swept."""
    singles = [from_values(L3, ("w",), {"w": x}) for x in LUKA_WEIGHTS]
    zero_set, one_set = oslash(L3, ("w",)), upsilon(L3, ("w",))
    for a in singles:
        assert s_plus(a, zero_set) == a
        assert s_plus(a, a) == a
        assert s_dot(a, one_set) == a
        assert s_dot(a, zero_set) == zero_set
        assert s_plus(a, one_set) == one_set
        assert s_dot(a, a) == a
        assert s_complement(s_complement(a)) == a
    for a, b in product(singles, repeat=2):
        assert s_plus(a, b) == s_plus(b, a)
        assert s_dot(a, b) == s_dot(b, a)
    for a, b, c in product(singles, repeat=3):
        assert s_plus(a, s_plus(b, c)) == s_plus(s_plus(a, b), c)
        assert s_dot(a, s_dot(b, c)) == s_dot(s_dot(a, b), c)
        assert s_dot(a, s_plus(b, c)) == s_plus(s_dot(a, b), s_dot(a, c))
        assert s_plus(a, s_dot(b, c)) == s_dot(s_plus(a, b), s_plus(a, c))


def test_shape_and_lattice_mismatch():
    a = pset(w1=lw("u", "u"))
    other_states = from_values(L3, ("w1", "w2", "w3"), {})
    with pytest.raises(ShapeError):
        s_plus(a, other_states)
    with pytest.raises(ShapeError):
        s_subset(a, oslash(B2, W))
    with pytest.raises(ShapeError):
        from_values(L3, W, {"w9": lw("u", "u")})
    with pytest.raises(ShapeError):
        a.value("w9")
    with pytest.raises(ShapeError):
        PSet(L3, (), ())
    with pytest.raises(ShapeError):
        PSet(L3, ("w1", "w2"), (lw("u", "u"),))


def test_random_sets_star_is_constant_top():
    rng = random.Random(99)
    for _ in range(100):
        values = {w: rng.choice(LUKA_WEIGHTS) for w in W}
        assert s_star(from_values(L3, W, values)) == upsilon(L3, W)


def test_a_set_reprs_as_its_lattice_states_and_weights(phi):
    assert repr(phi) == "PSet(LatticeId.LUKASIEWICZ3, ('w1', 'w2'), (<(top,u)>, <(u,u)>))"


def test_json_round_trip(phi):
    # A set's JSON form reads back through the model loader, the one reader
    # of value text.
    from pkat.setp import pset_to_json

    payload = pset_to_json(phi)
    assert payload == {"w1": ["top", "u"], "w2": ["u", "u"]}
    doc = {"lattice": L3.value, "states": list(W), "tests": {"p": payload}}
    assert load_model(json.dumps(doc)).tests["p"] == phi.relation
    with pytest.raises(ModelError):
        load_model(json.dumps(dict(doc, tests={"p": ["not", "a", "map"]})))


# --- the kernel-backed sets against the pointwise algebra --------------------

_POOLS = {L3: (Fraction(0), Fraction(1, 2), Fraction(1))}


def _values(lattice):
    pool = _POOLS.get(lattice)
    if pool is not None:
        return st.sampled_from(pool)
    return st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def set_operands(draw):
    """Two sets on one lattice and state space, each on a table of its own:
    the first straight from its weights, the second widened by extra
    values, or the test of a loaded model whose program adds values."""
    lattice = draw(st.sampled_from([L3, GD]))
    states = tuple(f"w{i}" for i in range(draw(st.integers(1, 4))))
    value = _values(lattice)
    weights = st.lists(st.builds(lambda t, f: weight(lattice, t, f), value, value),
                       min_size=len(states), max_size=len(states))
    first = PSet(lattice, states, draw(weights))
    second_weights = draw(weights)
    if draw(st.booleans()):
        second = PSet(lattice, states, second_weights, draw(st.lists(value, max_size=3)))
    else:
        t, f = (elem_to_json(elem(lattice, draw(value))) for _ in range(2))
        doc = {
            "lattice": lattice.value,
            "states": list(states),
            "programs": {"r": [[states[0], states[-1], t, f]]},
            "tests": {"t": pset_to_json(from_values(lattice, states,
                                                    dict(zip(states, second_weights))))},
        }
        second = _from_test(load_model(json.dumps(doc)).tests["t"])
    return first, second


@settings(max_examples=200, deadline=None)
@given(set_operands())
def test_set_algebra_matches_pointwise_oracle(operands):
    a, b = operands
    lattice, states = a.lattice, a.states
    assert s_plus(a, b) == {s: wjoin(a[s], b[s]) for s in states}
    assert s_dot(a, b) == {s: wmeet(a[s], b[s]) for s in states}
    assert s_complement(b) == {s: negate(b[s]) for s in states}
    assert s_star(b) == {s: wtop(lattice) for s in states}
    assert s_subset(a, b) == all(wleq(a[s], b[s]) for s in states)
    assert s_subset(b, a) == all(wleq(b[s], a[s]) for s in states)
    assert (a == b) == all(a[s] == b[s] for s in states)
    assert a == PSet(lattice, states, a.weights, b.relation.values)
    assert b == dict(zip(states, b.weights)) and list(b) == list(states)
    assert hash(b) == hash(PSet(lattice, states, b.weights))
