import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pkat.cli import main
from pkat.engine import Status, equiv_random, evaluate
from pkat.errors import ModelError
from pkat.plts import (
    Model,
    load_model,
    model_to_dict,
    model_to_text,
    program_relation,
    diagonal_relation,
    valuation,
)
from pkat.relp import PRel, is_test
from pkat.syntax import parse
from pkat.twist import wbot, weight

from helpers import B2, GD, L3, lw, oracle_load_model, rank_lists, space_weights


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


def test_diagonal_relation_of_an_unknown_test_is_a_model_error(two_state_model):
    with pytest.raises(ModelError, match="^unknown test 'zz'$"):
        diagonal_relation(two_state_model, "zz")


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


def test_undeclared_state_rejected(tmp_path, capsys):
    with pytest.raises(ModelError, match="unknown state"):
        load_model(doc(programs={"r": [["w1", "w3", "top", "bot"]]}))
    with pytest.raises(ModelError, match="unknown state"):
        load_model(doc(tests={"p": {"w3": ["top", "bot"]}}))
    # A state field may be any JSON value, an unhashable array or object too.
    path = tmp_path / "model.json"
    for fields, state in [
        ({"programs": {"r": [["w1", ["w2"], "top", "bot"]]}}, "['w2']"),
        ({"programs": {"r": [[{"w1": 1}, "w3", "top", "bot"]]}}, "{'w1': 1}"),
        ({"tests": {"p": [[["w1"], ["w1"], "top", "bot"]]}}, "['w1']"),
        ({"tests": {"p": [["w1", {}, "top", "bot"]]}}, "{}"),
    ]:
        owner = "program 'r'" if "programs" in fields else "test 'p'"
        message = f"{owner}: unknown state {state}"
        with pytest.raises(ModelError) as raised:
            load_model(doc(**fields))
        assert str(raised.value) == message
        path.write_text(doc(**fields))
        assert main(["star", "--model", str(path), "--program", "r"]) == 3
        assert capsys.readouterr() == ("", f"model error: {message}\n")


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
    assert set(space_weights(B2)) == {weight(B2, 1, 0), weight(B2, 0, 1)}


def test_model_tests_read_as_state_to_weight_maps(two_state_model):
    p = two_state_model.tests["p"]
    assert valuation(two_state_model, "p", "w1") == p.entry("w1", "w1") == lw("top", "bot")
    assert valuation(two_state_model, "p", "w2") == p.entry("w2", "w2") == lw("u", "bot")
    # the test is stored once: its relation is what terms evaluate
    assert diagonal_relation(two_state_model, "p") is p
    assert evaluate(parse("p"), two_state_model) is p


def test_canonical_form_of_the_two_state_fixture(data_dir):
    m = load_model((data_dir / "two_state.json").read_text())
    assert model_to_dict(m) == {
        "lattice": "lukasiewicz3",
        "states": ["w1", "w2"],
        "programs": {"r": [["w1", "w1", "bot", "top"], ["w1", "w2", "top", "bot"],
                           ["w2", "w1", "top", "u"], ["w2", "w2", "bot", "top"]]},
        "tests": {"p": {"w1": ["top", "bot"], "w2": ["u", "bot"]}},
    }


# --- the loader reads each value once: pinned against the Weight-path oracle --


def _load_both(document: str):
    """Load ``document`` with ``load_model`` and with the Weight-path oracle:
    both give the same ``ModelError`` text, or equal models whose relations
    hold the same tables and ranks.  Returns the model or the error text."""
    outcomes = []
    for load in (load_model, oracle_load_model):
        try:
            outcomes.append(load(document))
        except ModelError as exc:
            outcomes.append(f"ModelError: {exc}")
    new, old = outcomes
    assert new == old
    if isinstance(new, Model):
        assert _one_table(new) == _one_table(old)
        assert list(new.programs) == list(old.programs) and list(new.tests) == list(old.tests)
        pairs = [*zip(new.programs.values(), old.programs.values()),
                 *zip(new.tests.values(), old.tests.values())]
        for a, b in pairs:
            assert (a.values, *rank_lists(a)) == (b.values, *rank_lists(b))
    return new


def test_the_value_memo_keeps_equal_values_of_other_types_and_texts():
    bool2 = {
        "lattice": "bool2",
        "states": ["s", "t"],
        "programs": {"r": [["s", "t", 1, "0"], ["t", "s", "1", 0], ["s", "s", True, False],
                           ["t", "t", " 1", "1"]]},
        "tests": {"p": {"s": [True, "0"], "t": ["1", 1]}},
    }
    m = _load_both(json.dumps(bool2))
    r, one_zero = m.programs["r"], weight(B2, 1, 0)
    assert r.entry("s", "t") == r.entry("t", "s") == r.entry("s", "s") == one_zero
    assert r.entry("t", "t") == weight(B2, 1, 1) and valuation(m, "p", "s") == one_zero
    assert _one_table(m) == (Fraction(0), Fraction(1))
    godel = {
        "lattice": "godel",
        "states": ["s", "t"],
        "programs": {"r": [["s", "t", "0.5", 1], ["t", "s", "0.50", "1"],
                           ["s", "s", "1/2", True]]},
        "tests": {"p": [["s", "s", "0.50", "0.5"]]},
        "test_carrier": ["0", "0.5", 1],
    }
    m = _load_both(json.dumps(godel))
    half_one = weight(GD, "0.5", "1")
    r = m.programs["r"]
    assert r.entry("s", "t") == r.entry("t", "s") == r.entry("s", "s") == half_one
    assert valuation(m, "p", "s") == weight(GD, "0.5", "0.5")
    assert _one_table(m) == (Fraction(0), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("document, message", [
    # a float after a valid int of the same value is still refused
    ({"lattice": "bool2", "states": ["s", "t"],
      "programs": {"r": [["s", "t", 1, 0], ["t", "s", 1.0, 0]]}},
     "program 'r': refusing inexact float 1.0; pass a decimal string instead"),
    ({"lattice": "bool2", "states": ["s", "t"],
      "programs": {"r": [["s", "t", "1", "0"], ["t", "s", " 1", "0"], ["s", "s", "1.0", "0"]]}},
     "program 'r': '1.0' is not one of 0, 1"),
    # the error names the first bad cell in document order, past good copies
    ({"lattice": "godel", "states": ["s", "t"],
      "programs": {"r": [["s", "t", "0.5", "0"]],
                   "q": [["s", "t", "0.5", "0"], ["t", "s", 0.5, "0"], ["s", "s", 0.25, "0"]]}},
     "program 'q': refusing inexact float 0.5; pass a decimal string instead"),
    ({"lattice": "godel", "states": ["s", "t"],
      "programs": {"r": [["s", "t", True, "0"], ["t", "s", "true", "0"]]}},
     "program 'r': 'true' is not a decimal or rational in [0, 1]"),
    # a value read fine in a program is still checked against the test carrier,
    # state by state in the order the states are declared
    ({"lattice": "godel", "states": ["s", "t"], "test_carrier": ["0", "1"],
      "programs": {"r": [["s", "t", "0.5", "0"]]},
      "tests": {"p": {"t": ["0.5", "0"], "s": ["0.50", "0"]}}},
     "test 'p': weight at 's' outside the declared test carrier"),
    ({"lattice": "lukasiewicz3", "states": ["s"],
      "tests": {"p": [["s", "s", "u", "bot"], ["s", "s", "u", "bot"]]}},
     "test 'p': duplicate entry for state 's'"),
])
def test_each_refusal_keeps_its_message(document, message):
    assert _load_both(json.dumps(document)) == f"ModelError: {message}"


_STATES = ("s", "t", "w")
_VALUES = {  # mostly valid spellings, then a few each lattice refuses
    "bool2": [0, 1, "0", "1", " 1", True, False] * 2 + [1.0, "2", "u", None, [1]],
    "lukasiewicz3": ["bot", "u", "top", "⊤", "⊥", " u", 0, 1, True] * 2 + ["0.5", 0.5, "x"],
    "godel": ["0", "1", "0.5", "0.50", "1/2", "1/3", "2/6", 1, 0, True, "1e-1"] * 2
             + [1.0, "1.5", "-0.1", "1/0", "nan"],
}
_ENDS = {"bool2": [0, 1], "lukasiewicz3": ["bot", "top"], "godel": ["0", "1"]}


@st.composite
def _documents(draw):
    lattice = draw(st.sampled_from(sorted(_VALUES)))
    value = st.sampled_from(_VALUES[lattice])
    states = draw(st.lists(st.sampled_from(_STATES), min_size=1, max_size=3, unique=True))
    state = st.sampled_from(states * 4 + ["zz"])
    pair = st.lists(value, min_size=2, max_size=2) | st.lists(value, max_size=3)
    def rarely(common, rare, one_in):  # ``rare`` about once in ``one_in`` draws
        return st.integers(1, one_in).flatmap(lambda i: rare if i == one_in else common)

    good = st.tuples(state, state, value, value).map(list)
    entry = rarely(good, st.just(["s", "s", "0"]), 20)
    diagonal = state.flatmap(lambda s: st.tuples(st.just(s), st.just(s), value, value).map(list))
    body = rarely(st.dictionaries(state, pair, max_size=3)
                  | st.lists(rarely(diagonal, entry, 4), max_size=3), st.just(5), 10)
    doc = {
        "lattice": lattice,
        "states": states,
        "programs": draw(st.dictionaries(st.sampled_from("rq"), st.lists(entry, max_size=4),
                                         max_size=2)),
        "tests": draw(st.dictionaries(st.sampled_from("pppaaq"), body, max_size=2)),
    }
    with_ends = st.lists(value, max_size=3).map(lambda xs: xs + _ENDS[lattice])
    carrier = draw(rarely(st.none() | with_ends, st.lists(value, min_size=1, max_size=2), 8))
    if carrier is not None:
        doc["test_carrier"] = carrier
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_the_loader_matches_the_weight_path_oracle(document):
    _load_both(document)


@pytest.mark.parametrize("fields, message", [
    ({"lattice": 2}, "'lattice' must be a string"),
    ({"programs": {"r": {}}}, "program 'r': expected an array of entries"),
    ({"states": ["s", ""]}, "state names must be nonempty strings, got ''"),
    ({"test_carrier": []}, "'test_carrier' must be a nonempty array"),
    ({"tests": []}, "'tests' must be an object of named entries"),
], ids=["lattice", "program", "state", "test-carrier", "tests"])
def test_each_shape_refusal_is_the_oracles_and_exits_three(fields, message, tmp_path, capsys):
    # Refusals the document strategy above reaches only by chance.
    document = json.dumps({"lattice": "bool2", "states": ["s"], **fields})
    assert _load_both(document) == f"ModelError: {message}"
    path = tmp_path / "model.json"
    path.write_text(document)
    assert main(["star", "--model", str(path), "--program", "r"]) == 3
    assert capsys.readouterr() == ("", f"model error: {message}\n")


def _one_table(m):
    """The value table every relation of ``m`` holds; None for a model with
    no relation."""
    tables = {rel.values for rel in (*m.programs.values(), *m.tests.values())}
    assert len(tables) <= 1
    return next(iter(tables), None)


def _assert_tests_are_subidentity_relations(m):
    """Each test of ``m`` is its subidentity relation, all of the model's
    relations hold one table object, and ``valuation`` reads the diagonal."""
    rels = [*m.programs.values(), *m.tests.values()]
    assert all(rel.values is rels[0].values for rel in rels)
    for name, rel in m.tests.items():
        assert type(rel) is PRel and is_test(rel)
        for s in m.states:
            assert valuation(m, name, s) == rel.entry(s, s)


@settings(max_examples=60, deadline=None)
@given(_documents(), st.sampled_from([L3, GD]), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_each_model_test_is_held_as_its_subidentity_relation(document, lattice, n, seed):
    try:
        loaded = load_model(document)
    except ModelError:
        pass
    else:
        _assert_tests_are_subidentity_relations(loaded)
    # a countermodel drawn by the checker holds its tests the same way
    verdict = equiv_random(parse("a;p + b"), parse("p;a + b"), lattice, n, 50, seed,
                           test_names="ab")
    assert verdict.status is Status.FAILS and list(verdict.witness.model.tests) == ["a", "b"]
    _assert_tests_are_subidentity_relations(verdict.witness.model)
