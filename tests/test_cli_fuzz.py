"""Drives ``pkat`` in-process on drawn command lines and model documents.

Whatever is drawn, ``main`` must return a documented exit code other than
70 (an internal error), print no traceback, and return 1 only when its
output carries a ``fails`` verdict.  Exit codes 74 and 141 need a failing
stdout, which an in-memory stream never is, so 0-3 are the codes expected.

Runs are drawn only where they finish fast or are refused: exhaustive
``axioms`` at one state of ``bool2`` or ``lukasiewicz3``, or where its
space is refused; random mode at up to three states, or at a state count
whose single instance the work guard refuses.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from pkat import engine
from pkat.cli import main
from pkat.errors import EngineError

DOCUMENTED = {0, 1, 2, 3}


def _first_refused_state_count() -> int:
    n = 1
    while True:
        try:
            engine._guard_steps(1, n)
        except EngineError:
            return n
        n += 1


_REFUSED_N = _first_refused_state_count()
# Up to 4300 digits, which argparse still reads; past about 2,150 the cell
# count of a refused space has more digits than str() converts.
STATES = st.one_of(st.integers(-2, 3), st.integers(_REFUSED_N, 300),
                   st.integers(10**2100, 10**4300 - 1)).map(str)
# Text, since str() refuses an int of more than 4300 digits; the last one
# has 4301, which argparse refuses.
HUGE = ["1000000000", str(2**63), "9" * 4300, "1" + "0" * 4300]
SAMPLES = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(HUGE))
SEEDS = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["-" + "9" * 100, *HUGE]))
LATTICES = st.sampled_from(["bool2", "lukasiewicz3", "godel", "fuzzy"])
GRIDS = st.one_of(
    st.sampled_from([
        "0.5", "0,1", "0, 1/3, 2/3, 1", "0,1e99999999", "1e-99999999", "0e99999999",
        "0,2", "-1", "1/0", ",", "", "nan", "inf", "bot,top", "1_0", "0." + "1" * 4400,
    ]),
    st.text("0123456789.,/e-+ ", max_size=10),
)


# --- terms: drawn from the grammar, then damaged ---------------------------------

ATOMS = st.sampled_from(["r", "s", "p", "q", "x", "1", "0"])
TERMS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds("{} + {}".format, inner, inner),
        st.builds("{};{}".format, inner, inner),
        st.builds("({})*".format, inner),
        st.builds("!({})".format, inner),
    ),
    max_leaves=5,
)


@st.composite
def damaged_terms(draw):
    term = draw(TERMS)
    damage = draw(st.sampled_from(["none"] * 5 + ["cut", "insert", "deep"]))
    if damage == "deep":
        return draw(st.sampled_from(["!", "("])) * 3000 + term
    if term and damage != "none":
        at = draw(st.integers(0, len(term)))
        if damage == "cut":
            return term[:at] + term[at + 1:]
        return term[:at] + draw(st.sampled_from(list("()!*;+|&x1 "))) + term[at:]
    return term


# --- model documents: a valid one, mutated field by field -----------------------

BASE = {
    "lukasiewicz3": {
        "lattice": "lukasiewicz3", "states": ["w1", "w2"],
        "programs": {"r": [["w1", "w2", "top", "bot"], ["w2", "w1", "top", "u"]]},
        "tests": {"p": {"w1": ["top", "bot"], "w2": ["u", "bot"]}},
    },
    "godel": {
        "lattice": "godel", "states": ["w1", "w2"],
        "programs": {"r": [["w1", "w2", "0.25", "1/3"]], "s": []},
        "tests": {"p": {"w1": ["1", "0"]}, "q": [["w2", "w2", "0.5", "0.5"]]},
    },
    "bool2": {
        "lattice": "bool2", "states": ["w1"],
        "programs": {"r": [["w1", "w1", 1, 1]]},
        "tests": {"p": {"w1": [0, 0]}}, "test_carrier": [0, 1],
    },
}
LONG_INTEGER = "1" * 5000  # written into the document text: json.dumps cannot print it
REPLACEMENTS = st.sampled_from([
    "1e99999999", "1e-99999999", "0e-99999999", "-0", "2", "0.5", "u", "x", "", "w9",
    0, 1, -1, 2, 0.5, True, None, [], {}, ["w1"], [[]], {"w1": None}, LONG_INTEGER,
])


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(BASE[draw(st.sampled_from(sorted(BASE)))]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(draw(REPLACEMENTS))  # later edits must not reach it
    text = json.dumps(doc).replace(f'"{LONG_INTEGER}"', LONG_INTEGER)
    if draw(st.integers(0, 5)) == 5 and text.startswith('{"lattice"'):
        text = text.replace('{"lattice"', '{"states": [], "lattice"', 1)  # a duplicate key
    return text


# --- command lines ----------------------------------------------------------------


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["eval", "star", "classify", "hoare", "equiv-model",
                                    "equiv-random", "axioms-random", "axioms-exhaustive"]))
    if command == "axioms-exhaustive":
        lattice, states = draw(st.one_of(
            st.tuples(st.sampled_from(["bool2", "lukasiewicz3"]), st.just("1")),
            st.tuples(st.just("lukasiewicz3"), STATES.filter(lambda n: int(n) >= 2 or int(n) < 1)),
            st.tuples(st.just("bool2"), STATES.filter(lambda n: int(n) >= 3 or int(n) < 1)),
            st.tuples(st.just("godel"), STATES.filter(lambda n: int(n) >= 2 or int(n) < 1)),
        ))
        argv = ["axioms", "--lattice", lattice, "--states", states]
        argv += draw(st.sampled_from([[], ["--exhaustive"], ["--exhaustive", "--samples", "3"]]))
    elif command == "axioms-random":
        argv = ["axioms", "--lattice", draw(LATTICES), "--states", draw(STATES),
                "--samples", draw(SAMPLES)]
    elif command == "equiv-random":
        argv = ["equiv", "--t1", draw(damaged_terms()), "--t2", draw(damaged_terms())]
        for flag, values in (("--lattice", LATTICES), ("--states", STATES),
                             ("--random", SAMPLES), ("--tests", st.sampled_from(["p,q", "", "p,,x"]))):
            if draw(st.integers(0, 4)):
                argv += [flag, draw(values)]
    else:
        argv = {
            "eval": lambda: ["eval", "--term", draw(damaged_terms())],
            "star": lambda: ["star", "--program", draw(st.sampled_from(["r", "s", "p", "zz"]))],
            "classify": lambda: ["classify", "--name", draw(st.sampled_from(["r", "p", "q", ""]))],
            "hoare": lambda: ["hoare", "--pre", draw(damaged_terms()),
                              "--prog", draw(damaged_terms()), "--post", draw(damaged_terms())],
            "equiv-model": lambda: ["equiv", "--t1", draw(damaged_terms()),
                                    "--t2", draw(damaged_terms())],
        }[command]()
        argv += ["--model", "MODEL"]
    if argv[0] in ("axioms", "equiv") and draw(st.integers(0, 3)) == 0:
        argv += ["--godel-grid", draw(GRIDS)]
    if argv[0] in ("axioms", "equiv") and "--model" not in argv and draw(st.booleans()):
        argv += ["--seed", draw(SEEDS)]
    argv += draw(st.sampled_from([[], ["--json"], ["--unicode"]]))
    return argv, draw(documents())


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_every_outcome_is_documented(model_path, drawn):
    argv, document = drawn
    model_path.write_text(document)
    argv = [str(model_path) if a == "MODEL" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    event(f"exit {code}")
    assert code in DOCUMENTED, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert "fails" in out.getvalue(), (argv, out.getvalue())
