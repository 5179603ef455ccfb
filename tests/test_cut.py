"""Cuts are homomorphisms onto four-valued pairs.

The cut at a value θ > 0 sends x to [x >= θ].  Applied to both components
of every weight, it maps a model over a chain (``lukasiewicz3``, or a
``godel`` grid) onto a ``bool2`` model whose weights range over all four
pairs {0, 1}^2, and it commutes with evaluation: cutting the value of a
term is evaluating the term on the cut model.  This holds for each
operation, ``!`` and ``*`` included, so the property is checked here on
random models of up to three states before anything relies on it.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pkat.engine import evaluate
from pkat.modelfile import model_from_dict
from pkat.syntax import Dot, Not, Plus, Star

from helpers import random_sorted_term

PROGRAMS, TESTS = ("r", "s"), ("a", "b")
GODEL_VALUES = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def chain_models(draw):
    if draw(st.booleans()):
        lattice, value = "lukasiewicz3", st.sampled_from(["bot", "u", "top"])
    else:
        lattice, value = "godel", GODEL_VALUES.map(str)
    states = [f"w{i}" for i in range(draw(st.integers(1, 3)))]
    weight = st.lists(value, min_size=2, max_size=2)
    return model_from_dict({
        "lattice": lattice,
        "states": states,
        "programs": {name: [[u, v, *draw(weight)] for u in states for v in states]
                     for name in PROGRAMS},
        "tests": {name: {u: draw(weight) for u in states} for name in TESTS},
    })


def _cut(w, theta):
    return [int(w.tt.value >= theta), int(w.ff.value >= theta)]


def _cut_model(model, theta):
    """The bool2 model carrying each weight's cut at ``theta``."""
    return model_from_dict({
        "lattice": "bool2",
        "states": list(model.states),
        "programs": {name: [[u, v, *_cut(w, theta)] for (u, v), w in rel.pairs()]
                     for name, rel in model.programs.items()},
        "tests": {name: {u: _cut(test.entry(u, u), theta) for u in model.states}
                  for name, test in model.tests.items()},
    })


@settings(max_examples=100, deadline=None)
@given(chain_models(), st.integers(0, 2**32 - 1))
def test_cut_commutes_with_evaluation(model, seed):
    rng = random.Random(seed)
    program = lambda: random_sorted_term(rng, 3, PROGRAMS, TESTS)  # noqa: E731
    test = random_sorted_term(rng, 2, PROGRAMS, TESTS, want_test=True)
    term = Plus(program(), Dot(Star(program()), Not(test)))  # holds both ! and *
    value = evaluate(term, model)
    thetas = [theta for theta in model.values if theta > 0]
    assert Fraction(1) in thetas
    for theta in thetas:
        cut = evaluate(term, _cut_model(model, theta))
        expected = [[int(w.tt.value), int(w.ff.value)] for w in cut.weights]
        assert [_cut(w, theta) for w in value.weights] == expected, (theta, term)
