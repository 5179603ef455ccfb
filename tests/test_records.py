"""Value semantics of every record class: terms, weights, models, verdicts.

Each record is built twice from equal fields and once from different
ones; equality, hashing, ``repr``, immutability, positional ``match``
and pickling are checked against what the fields say.
"""

import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import pkat
from pkat.catalog import AxiomId
from pkat.engine import Status, Verdict, Witness, _Law
from pkat.lattice import LatticeElem, LatticeId
from pkat.plts import Model
from pkat.record import Record
from pkat.syntax import Atom, Dot, Not, One, Plus, Star, Zero
from pkat.twist import Weight

from helpers import B2, L3, lw

P, Q = Atom("p"), Atom("q")
HALF = Fraction(1, 2)
WITNESS = ({}, ("w1", "w1"), lw("top", "bot"), lw("bot", "top"), "1 = 0", None, ("1", "0"))

# class -> (fields, fields of an unequal record, repr of the first)
CASES = {
    Zero: ((), None, "Zero()"),
    One: ((), None, "One()"),
    Atom: (("p",), ("q",), "Atom(name='p')"),
    Plus: ((P, One()), (Q, One()), "Plus(left=Atom(name='p'), right=One())"),
    Dot: ((P, Zero()), (P, One()), "Dot(left=Atom(name='p'), right=Zero())"),
    Star: ((P,), (Q,), "Star(inner=Atom(name='p'))"),
    Not: ((Atom("a"),), (Atom("b"),), "Not(inner=Atom(name='a'))"),
    LatticeElem: ((L3, HALF), (L3, Fraction(1)), "<lukasiewicz3:u>"),
    Weight: ((lw("top", "u").tt, lw("top", "u").ff), (lw("u", "u").tt, lw("u", "u").ff),
             "<(top,u)>"),
    Model: (
        (B2, ("w1",), {}, {}, None),
        (B2, ("w1", "w2"), {}, {}, None),
        "Model(lattice=<LatticeId.BOOL2: 'bool2'>, states=('w1',), programs={}, "
        "tests={}, test_carrier=None)",
    ),
    Witness: (
        WITNESS,
        WITNESS[:1] + (("w1", "w2"),) + WITNESS[2:],
        "Witness(assignment={}, entry=('w1', 'w1'), lhs=<(top,bot)>, rhs=<(bot,top)>, "
        "formula='1 = 0', model=None, terms=('1', '0'))",
    ),
    Verdict: (
        (Status.HOLDS, B2, 1, "exhaustive", AxiomId.PLUS_COMM, None, 4, None),
        (Status.HOLDS, B2, 1, "exhaustive", AxiomId.PLUS_COMM, None, 5, None),
        "Verdict(status=<Status.HOLDS: 'holds'>, lattice=<LatticeId.BOOL2: 'bool2'>, "
        "n_states=1, mode='exhaustive', axiom=<AxiomId.PLUS_COMM: 2>, witness=None, "
        "samples=4, seed=None)",
    ),
    _Law: (
        ("p = q", (("p", "q"), (None,) * 3, (1, 2)), False, frozenset(), None),
        ("p = q", (("p", "q"), (None,) * 3, (1, 2)), True, frozenset(), None),
        "_Law(formula='p = q', code=(('p', 'q'), (None, None, None), (1, 2)), "
        "horn=False, tests=frozenset(), terms=None)",
    ),
}
UNHASHABLE = {Model, Witness}  # they hold dicts


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    fields, other, text = CASES[cls]
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b
    if other is not None:
        assert a != cls(*other)
    assert a.__eq__(object()) is NotImplemented
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == text
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert tuple(getattr(a, name) for name in cls.__match_args__) == fields
    if fields:
        match a:
            case cls(first):
                assert first == fields[0]
            case _:
                pytest.fail(f"{cls.__name__} did not match positionally")
    else:
        match a:
            case cls():
                pass
            case _:
                pytest.fail(f"{cls.__name__} did not match its class pattern")


def test_records_of_different_classes_never_compare_equal():
    assert Plus(P, Q) != Dot(P, Q)
    assert Star(P) != Not(P)
    assert Zero() != One()
    assert Atom("p") != "p"


def test_term_patterns_take_fields_positionally():
    match Plus(Dot(P, Q), Star(Not(Atom("a")))):
        case Plus(Dot(left, right), Star(Not(Atom(name)))):
            assert (left, right, name) == (P, Q, "a")
        case _:
            pytest.fail("positional pattern did not match")


def test_records_match_every_field_positionally():
    match Verdict(Status.FAILS, L3, 2, "random", None, None, 7, 11):
        case Verdict(status, lattice, n, mode, axiom, witness, samples, seed):
            assert (status, lattice, n, mode, samples, seed) == (Status.FAILS, L3, 2, "random", 7, 11)
            assert axiom is None and witness is None
        case _:
            pytest.fail("Verdict did not match positionally")
    carrier = (LatticeElem(L3, Fraction(0)), LatticeElem(L3, Fraction(1)))
    match Model(L3, ("w1",), {}, {}, carrier):
        case Model(lattice, states, programs, tests, test_carrier):
            assert (lattice, states, test_carrier) == (L3, ("w1",), carrier)
        case _:
            pytest.fail("Model did not match positionally")


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))}


def test_every_record_prints_every_field():
    # Every record class has a case above; each printed by ``Record.__repr__``
    # names all its fields, so none is left out of equality or ``repr``.
    assert _subclasses(Record) <= set(CASES)
    for cls, (fields, _, _) in CASES.items():
        if cls.__repr__ is Record.__repr__:
            text = repr(cls(*fields))
            assert all(f"{name}=" in text for name in cls.__slots__), cls


def test_construction_checks_its_fields():
    with pytest.raises(TypeError):
        Atom()
    with pytest.raises(TypeError):
        Atom("p", "q")
    with pytest.raises(TypeError):
        Atom("p", name="q")
    with pytest.raises(TypeError):
        Plus(P, rigth=Q)
    assert Plus(right=Q, left=P) == Plus(P, Q)
    assert Verdict(Status.FAILS, L3, 2, "random", seed=3).samples is None
    with pytest.raises(Exception):
        LatticeElem(LatticeId.BOOL2, HALF)
    with pytest.raises(Exception):
        Weight(lw("u", "u").tt, LatticeElem(B2, Fraction(0)))


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_records_refuse_new_attributes(cls):
    a = cls(*CASES[cls][0])
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.extra


def test_replace_changes_only_the_named_fields():
    verdict = Verdict(Status.HOLDS, L3, 1, "model", samples=1)
    assert verdict.replace(samples=None) == Verdict(Status.HOLDS, L3, 1, "model")
    assert verdict.samples == 1
    carried = Model(L3, ("w1",), {}, {}, (LatticeElem(L3, Fraction(0)), LatticeElem(L3, HALF)))
    assert carried.replace(states=("w2",)).test_carrier == carried.test_carrier
    with pytest.raises(TypeError):
        verdict.replace(sample=None)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pkat.__file__).parents[1]))
    probe = "import sys, pkat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out == "[]\n"
