import json

import pytest

from pkat.engine import evaluate, weight_space
from pkat.errors import ModelError
from pkat.plts import (
    load_model,
    model_to_dict,
    model_to_text,
    program_relation,
    diagonal_relation,
    valuation,
)
from pkat.syntax import parse
from pkat.twist import wbot, weight

from helpers import B2, GD, L3, lw


def doc(**overrides):
    base = {
        "lattice": "lukasiewicz3",
        "states": ["w1", "w2"],
        "programs": {"r": [["w1", "w2", "top", "bot"], ["w2", "w1", "top", "u"]]},
        "tests": {"p": {"w1": ["top", "bot"], "w2": ["u", "bot"]}},
    }
    base.update(overrides)
    return json.dumps(base)


def test_load_worked_example(two_state_model):
    m = two_state_model
    assert m.states == ("w1", "w2")
    r = program_relation(m, "r")
    assert r.entry("w1", "w2") == lw("top", "bot")
    assert r.entry("w2", "w1") == lw("top", "u")
    # unlisted pairs default to the least weight
    assert r.entry("w1", "w1") == wbot(L3)
    assert r.entry("w2", "w2") == wbot(L3)


def test_valuation_examples(two_state_model):
    assert valuation(two_state_model, "p", "w2") == lw("u", "bot")
    assert valuation(two_state_model, "p", "w1") == lw("top", "bot")
    with pytest.raises(ModelError):
        valuation(two_state_model, "q", "w1")
    with pytest.raises(ModelError):
        valuation(two_state_model, "p", "w9")


def test_diagonal_relation_is_subidentity(two_state_model):
    t = diagonal_relation(two_state_model, "p")
    assert t.entry("w1", "w1") == lw("top", "bot")
    assert t.entry("w2", "w2") == lw("u", "bot")
    assert t.entry("w1", "w2") == wbot(L3)


def test_unlisted_test_state_defaults_bot():
    m = load_model(doc(tests={"p": {"w1": ["top", "bot"]}}))
    assert valuation(m, "p", "w2") == wbot(L3)


def test_round_trip_is_semantically_equal(two_state_model):
    again = load_model(model_to_text(two_state_model))
    assert again == two_state_model
    # and canonical serialization is stable
    assert model_to_dict(again) == model_to_dict(two_state_model)


def test_tests_accept_entry_list_form():
    m = load_model(doc(tests={"p": [["w1", "w1", "top", "bot"]]}))
    assert valuation(m, "p", "w1") == lw("top", "bot")
    assert valuation(m, "p", "w2") == wbot(L3)


def test_off_diagonal_test_entry_rejected():
    with pytest.raises(ModelError, match="off the diagonal"):
        load_model(doc(tests={"p": [["w1", "w2", "top", "bot"]]}))


def test_zero_states_rejected():
    with pytest.raises(ModelError):
        load_model(doc(states=[]))


def test_duplicate_state_rejected():
    with pytest.raises(ModelError, match="duplicate state"):
        load_model(doc(states=["w1", "w1"]))


def test_unknown_lattice_rejected():
    with pytest.raises(ModelError, match="unknown lattice"):
        load_model(doc(lattice="fuzzy"))


def test_unknown_field_rejected():
    with pytest.raises(ModelError, match="unknown field"):
        load_model(json.dumps({"lattice": "bool2", "states": ["s"], "extra": 1}))


def test_weight_outside_carrier_rejected():
    with pytest.raises(ModelError):
        load_model(doc(programs={"r": [["w1", "w2", "0.5", "bot"]]}))
    with pytest.raises(ModelError):
        load_model(
            json.dumps(
                {
                    "lattice": "godel",
                    "states": ["s"],
                    "tests": {"p": {"s": ["1.5", "0"]}},
                }
            )
        )


def test_undeclared_state_rejected():
    with pytest.raises(ModelError, match="unknown state"):
        load_model(doc(programs={"r": [["w1", "w3", "top", "bot"]]}))
    with pytest.raises(ModelError, match="unknown state"):
        load_model(doc(tests={"p": {"w3": ["top", "bot"]}}))


def test_duplicate_entries_rejected():
    with pytest.raises(ModelError, match="duplicate entry"):
        load_model(
            doc(
                programs={
                    "r": [["w1", "w2", "top", "bot"], ["w1", "w2", "u", "bot"]]
                }
            )
        )


def test_duplicate_json_key_rejected():
    text = (
        '{"lattice": "lukasiewicz3", "states": ["w1"],'
        ' "tests": {"p": {"w1": ["u","u"]}, "p": {"w1": ["top","bot"]}}}'
    )
    with pytest.raises(ModelError, match="duplicate key"):
        load_model(text)


def test_name_collision_rejected():
    with pytest.raises(ModelError, match="declared twice"):
        load_model(
            doc(
                programs={"x": []},
                tests={"x": {"w1": ["top", "bot"]}},
            )
        )


def test_invalid_atom_name_rejected():
    with pytest.raises(ModelError, match="not a valid atom name"):
        load_model(doc(programs={"2r": []}))


def test_malformed_documents():
    with pytest.raises(ModelError):
        load_model("[1, 2]")
    with pytest.raises(ModelError):
        load_model("{not json")
    with pytest.raises(ModelError):
        load_model(doc(programs={"r": [["w1", "w2", "top"]]}))
    with pytest.raises(ModelError):
        load_model(doc(tests={"p": "everywhere"}))
    with pytest.raises(ModelError):
        load_model(json.dumps({"states": ["s"]}))


def test_godel_decimals_stay_exact():
    m = load_model(
        json.dumps(
            {
                "lattice": "godel",
                "states": ["s", "t"],
                "programs": {"r": [["s", "t", "0.1", "0.2"]]},
            }
        )
    )
    w = program_relation(m, "r").entry("s", "t")
    assert w == weight(GD, "0.1", "0.2")
    # floats in the document are refused (inexact)
    with pytest.raises(ModelError):
        load_model(
            json.dumps(
                {
                    "lattice": "godel",
                    "states": ["s"],
                    "programs": {"r": [["s", "s", 0.1, "0"]]},
                }
            )
        )


def test_declared_test_carrier_enforced():
    accepted = {
        "lattice": "godel",
        "states": ["s"],
        "test_carrier": ["0", "0.5", "1"],
        "tests": {"p": {"s": ["0.5", "0.5"]}},
    }
    m = load_model(json.dumps(accepted))
    assert m.test_carrier is not None
    rejected = dict(accepted, tests={"p": {"s": ["0.25", "0.5"]}})
    with pytest.raises(ModelError, match="test carrier"):
        load_model(json.dumps(rejected))
    missing_bounds = dict(accepted, test_carrier=["0.5"])
    with pytest.raises(ModelError, match="bot and top"):
        load_model(json.dumps(missing_bounds))


def test_bytes_input_accepted():
    m = load_model(doc().encode("utf-8"))
    assert m.states == ("w1", "w2")


def test_unicode_weight_text_accepted():
    m = load_model(doc(tests={"p": {"w1": ["⊤", "⊥"]}}))
    assert valuation(m, "p", "w1") == lw("top", "bot")


def test_bool2_models_are_four_valued():
    """A bool2 model may hold all four pairs over {0, 1}, including (1,1)
    and (0,0); the bool2 checks draw only the corners (1,0) and (0,1)."""
    doc = {
        "lattice": "bool2",
        "states": ["s"],
        "programs": {"r": [["s", "s", 1, 1]]},
        "tests": {"p": {"s": [0, 0]}},
    }
    m = load_model(json.dumps(doc))
    both, neither = weight(B2, 1, 1), weight(B2, 0, 0)
    assert evaluate(parse("r;r*"), m).entry("s", "s") == both
    assert evaluate(parse("!p"), m).entry("s", "s") == neither
    assert evaluate(parse("p + !p"), m).entry("s", "s") == neither
    assert set(weight_space(B2)) == {weight(B2, 1, 0), weight(B2, 0, 1)}


def test_model_tests_read_as_state_to_weight_maps(two_state_model):
    p = two_state_model.tests["p"]
    assert p["w1"] == lw("top", "bot") and p["w2"] == lw("u", "bot")
    assert list(p.items()) == [("w1", lw("top", "bot")), ("w2", lw("u", "bot"))]
    assert p == {"w1": lw("top", "bot"), "w2": lw("u", "bot")}
    assert {"w1": lw("top", "bot"), "w2": lw("u", "bot")} == p
    assert p != {"w1": lw("top", "bot"), "w2": lw("u", "u")}
    assert "w9" not in p and p.get("w9") is None
    # the test is stored once: its relation is what terms evaluate
    assert diagonal_relation(two_state_model, "p") is p.relation
    assert evaluate(parse("p"), two_state_model) is p.relation


def test_canonical_form_of_the_two_state_fixture(data_dir):
    m = load_model((data_dir / "two_state.json").read_text())
    assert model_to_dict(m) == {
        "lattice": "lukasiewicz3",
        "states": ["w1", "w2"],
        "programs": {"r": [["w1", "w1", "bot", "top"], ["w1", "w2", "top", "bot"],
                           ["w2", "w1", "top", "u"], ["w2", "w2", "bot", "top"]]},
        "tests": {"p": {"w1": ["top", "bot"], "w2": ["u", "bot"]}},
    }
