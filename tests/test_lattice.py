import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pkat.errors import CarrierError, LatticeMismatchError
from pkat.lattice import (
    LatticeElem,
    LatticeId,
    big_join,
    big_meet,
    bottom,
    carrier,
    elem,
    elem_to_json,
    elem_to_text,
    implies,
    join,
    leq,
    meet,
    top,
)

from helpers import B2, GD, L3, BOT, TOP, U

godel_values = st.fractions(min_value=0, max_value=1, max_denominator=64)


def g(value):
    return elem(GD, value)


# --- three-valued truth tables ------------------------------------------------

MEET3 = {
    ("bot", "bot"): "bot", ("bot", "u"): "bot", ("bot", "top"): "bot",
    ("u", "bot"): "bot", ("u", "u"): "u", ("u", "top"): "u",
    ("top", "bot"): "bot", ("top", "u"): "u", ("top", "top"): "top",
}
JOIN3 = {
    ("bot", "bot"): "bot", ("bot", "u"): "u", ("bot", "top"): "top",
    ("u", "bot"): "u", ("u", "u"): "u", ("u", "top"): "top",
    ("top", "bot"): "top", ("top", "u"): "top", ("top", "top"): "top",
}


@pytest.mark.parametrize("pair,expected", MEET3.items())
def test_meet3_table(pair, expected):
    a, b = (elem(L3, t) for t in pair)
    assert meet(a, b) == elem(L3, expected)


@pytest.mark.parametrize("pair,expected", JOIN3.items())
def test_join3_table(pair, expected):
    a, b = (elem(L3, t) for t in pair)
    assert join(a, b) == elem(L3, expected)


def test_implies3_is_residuum_of_meet():
    # On the chain: top when a <= b, else b.  In particular u -> bot = bot,
    # the unique value making the adjunction below hold.
    expected = {
        ("bot", "bot"): "top", ("bot", "u"): "top", ("bot", "top"): "top",
        ("u", "bot"): "bot", ("u", "u"): "top", ("u", "top"): "top",
        ("top", "bot"): "bot", ("top", "u"): "u", ("top", "top"): "top",
    }
    for (ta, tb), tc in expected.items():
        assert implies(elem(L3, ta), elem(L3, tb)) == elem(L3, tc)


def test_meet_examples():
    assert meet(U, TOP) == U
    for a in carrier(L3):
        assert meet(a, TOP) == a
    assert meet(g("0.3"), g("0.7")) == g("0.3")


def test_join_examples():
    assert join(U, BOT) == U
    for a in carrier(L3):
        assert join(a, BOT) == a
    assert join(g("0.3"), g("0.7")) == g("0.7")


def test_implies_examples():
    for lattice in (B2, L3):
        for a in carrier(lattice):
            assert implies(a, a) == top(lattice)
    assert implies(g("0.7"), g("0.3")) == g("0.3")
    assert implies(g("0.3"), g("0.7")) == top(GD)


def test_leq_examples():
    assert leq(BOT, U)
    for a in carrier(L3):
        assert leq(a, a)
    assert not leq(g("0.7"), g("0.3"))


def test_big_join_and_meet():
    assert big_join(L3, [BOT, U, TOP]) == TOP
    assert big_join(L3, []) == BOT
    assert big_meet(L3, []) == TOP
    assert big_join(GD, [g("0.2"), g("0.5"), g("0.4")]) == g("0.5")
    assert big_meet(GD, [g("0.2"), g("0.5"), g("0.4")]) == g("0.2")


# --- laws, exhaustive on the finite instances --------------------------------


def _check_laws(a, b, c):
    lat = a.lattice
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert meet(a, a) == a and join(a, a) == a
    assert meet(a, join(a, b)) == a and join(a, meet(a, b)) == a
    # distributivity, both directions
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))
    # bounds
    assert join(a, top(lat)) == top(lat) and meet(a, bottom(lat)) == bottom(lat)
    assert join(a, bottom(lat)) == a and meet(a, top(lat)) == a
    # adjunction: meet(a, x) <= c  iff  x <= implies(a, c)
    for x in (a, b, c, top(lat), bottom(lat)):
        assert leq(meet(a, x), c) == leq(x, implies(a, c))


@pytest.mark.parametrize("lattice", [B2, L3])
def test_laws_exhaustive(lattice):
    values = carrier(lattice)
    for a, b, c in product(values, repeat=3):
        _check_laws(a, b, c)


def test_laws_random_godel():
    rng = random.Random(2024)
    for _ in range(2000):
        d = rng.randint(1, 12)
        a, b, c = (g(Fraction(rng.randint(0, d), d)) for _ in range(3))
        _check_laws(a, b, c)


@given(godel_values, godel_values, godel_values)
def test_godel_adjunction(x, y, z):
    a, b, c = g(x), g(y), g(z)
    assert leq(meet(a, b), c) == leq(b, implies(a, c))


@given(godel_values, godel_values)
def test_godel_monotone(x, y):
    a, b = g(min(x, y)), g(max(x, y))
    for w in (g(0), g("0.5"), g(1)):
        assert leq(meet(a, w), meet(b, w))
        assert leq(join(a, w), join(b, w))


@pytest.mark.parametrize("lattice", [B2, L3])
def test_finite_distributivity_over_subsets(lattice):
    values = carrier(lattice)
    subsets = [[]] + [[x] for x in values] + [list(values)]
    for a in values:
        for s in subsets:
            assert meet(a, big_join(lattice, s)) == big_join(
                lattice, [meet(a, x) for x in s]
            )
            assert join(a, big_meet(lattice, s)) == big_meet(
                lattice, [join(a, x) for x in s]
            )


def test_leq_agrees_with_join_absorption():
    for a, b in product(carrier(L3), repeat=2):
        assert leq(a, b) == (join(a, b) == b)
        assert leq(a, b) == (meet(a, b) == a)


# --- carriers, text forms, errors ---------------------------------------------


def test_mixed_lattice_rejected():
    with pytest.raises(LatticeMismatchError):
        meet(TOP, top(B2))
    with pytest.raises(LatticeMismatchError):
        leq(elem(GD, 1), TOP)


def test_carrier_validation():
    with pytest.raises(CarrierError):
        elem(B2, "0.5")
    with pytest.raises(CarrierError):
        elem(L3, "0.5")
    with pytest.raises(CarrierError):
        elem(GD, "1.5")
    with pytest.raises(CarrierError):
        elem(GD, "-0.25")
    with pytest.raises(CarrierError):
        elem(GD, 0.25)  # floats refused, decimals stay exact
    with pytest.raises(CarrierError):
        elem(L3, "unknown")
    with pytest.raises(CarrierError):
        LatticeElem(L3, Fraction(1, 3))


def test_non_scalar_values_rejected():
    for lattice in (B2, L3, GD):
        for value in (["top"], None, {}, (1,)):
            with pytest.raises(CarrierError):
                elem(lattice, value)


def test_godel_has_no_finite_carrier():
    with pytest.raises(CarrierError):
        carrier(GD)


def test_text_round_trip():
    assert elem_to_text(elem(L3, "u")) == "u"
    assert elem_to_text(elem(L3, "top")) == "top"
    assert elem_to_text(elem(L3, "top"), unicode=True) == "⊤"
    assert elem(L3, "⊥") == BOT
    assert elem(B2, "⊤") == top(B2)
    assert elem_to_text(elem(B2, 1)) == "1"
    assert elem_to_text(g("0.25")) == "0.25"
    assert elem_to_text(g(Fraction(1, 3))) == "1/3"
    assert elem(GD, "1/3") == g(Fraction(1, 3))
    assert elem_to_text(g(1)) == "1"


def test_json_forms():
    assert elem_to_json(top(B2)) == 1
    assert elem_to_json(U) == "u"
    assert elem_to_json(g("0.75")) == "0.75"


def test_unknown_lattice_name():
    with pytest.raises(CarrierError):
        LatticeId.from_name("fuzzy")


@pytest.mark.parametrize("build", [lambda: elem("godel", 1), lambda: elem("godel", "0.5"),
                                   lambda: LatticeElem("godel", Fraction(1, 2))])
def test_a_lattice_that_is_not_a_lattice_id_is_refused(build):
    # A lattice name is read by LatticeId.from_name; the name itself builds no element.
    with pytest.raises(CarrierError, match="^unknown lattice 'godel'$"):
        build()


# --- value text -----------------------------------------------------------------


@pytest.mark.parametrize("text, value", [
    ("0e99999999", 0),
    ("0e-99999999", 0),
    ("-0", 0),
    ("+.5", Fraction(1, 2)),
    ("25E-2", Fraction(1, 4)),
    (" 1/3 ", Fraction(1, 3)),
    ("0/7", 0),
    ("bot", 0),
    ("⊥", 0),
    ("top", 1),
    (" top ", 1),
    ("⊤", 1),
])
def test_interval_value_text(text, value):
    assert elem(GD, text) == g(Fraction(value))


@pytest.mark.parametrize("text, message", [
    ("1e99999999", "'1e99999999' lies outside [0, 1]"),
    ("-1e99999999", "'-1e99999999' lies outside [0, 1]"),
    ("-0.5", "'-0.5' lies outside [0, 1]"),
    ("3/2", "'3/2' lies outside [0, 1]"),
    ("1e-99999999", "'1e-99999999' has more than 4300 digits"),
    ("0." + "1" * 4300, "value text of 4302 characters exceeds 4300"),
    ("1/0", "'1/0' is not a decimal or rational in [0, 1]"),
    ("xe99999999", "'xe99999999' is not a decimal or rational in [0, 1]"),
    ("1e", "'1e' is not a decimal or rational in [0, 1]"),
    ("", "'' is not a decimal or rational in [0, 1]"),
])
def test_bad_interval_value_text_is_refused_without_building_it(text, message):
    # Each of these is decided from the text: none builds 10**e.
    with pytest.raises(CarrierError) as err:
        elem(GD, text)
    assert str(err.value) == message


_DECIMAL_TEXT = st.builds(
    "{}{}.{}e{}".format,
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", max_size=4),
    st.text("0123456789", min_size=1, max_size=4),
    st.integers(-12, 3),
)


@given(st.one_of(_DECIMAL_TEXT, st.builds("{}/{}".format, st.integers(0, 99), st.integers(1, 99))))
def test_value_text_reads_as_fraction_does(text):
    # Fraction is the reference wherever its 10**e is small enough to build.
    exact = Fraction(text)
    if 0 <= exact <= 1:
        assert elem(GD, text).value == exact
    else:
        with pytest.raises(CarrierError, match=r"lies outside \[0, 1\]$"):
            elem(GD, text)


@pytest.mark.parametrize("lattice, spellings", [
    (B2, [["0", "bot", "⊥"], ["1", "top", "⊤", " top "]]),
    (L3, [["bot", "⊥"], ["u", " u "], ["top", "⊤"]]),
])
def test_finite_values_are_read_from_each_spelling(lattice, spellings):
    assert [[elem(lattice, s) for s in group] for group in spellings] == [
        [e] * len(group) for e, group in zip(carrier(lattice), spellings)
    ]
    names = ", ".join(elem_to_text(e) for e in carrier(lattice))
    for bad in ("0.5", "x"):
        with pytest.raises(CarrierError, match=f"^'{bad}' is not one of {names}$"):
            elem(lattice, bad)
    with pytest.raises(CarrierError, match=f"^'1/3' is not a {lattice.value} value$"):
        LatticeElem(lattice, Fraction(1, 3))


def test_an_element_is_an_exact_rational_in_the_unit_interval_of_its_lattice():
    with pytest.raises(CarrierError, match="exact rationals"):
        LatticeElem(GD, 0.5)
    with pytest.raises(CarrierError, match=r"^'1.5' lies outside \[0, 1\]$"):
        LatticeElem(GD, Fraction(3, 2))
    with pytest.raises(LatticeMismatchError, match="does not belong to lukasiewicz3"):
        elem(L3, elem(GD, "1/2"))
