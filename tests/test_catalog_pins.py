"""Pins every catalog law's verdict -- status, instance count and witness --
on fixed configurations, so a change to how laws are stored or evaluated
cannot move a verdict, a sample count or the first witness found."""

import pytest

from pkat import catalog, engine
from pkat.catalog import AxiomId, check_axiom, check_suite, find_boolean_witness
from pkat.engine import Status, verdict_to_dict
from pkat.syntax import Sort, atoms, parse, sort_of
from pkat.twist import weight_to_json

from helpers import B2, GD, L3

GRID9 = ("0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8", "1")

# name: (lattice, states, godel grid, samples); samples None is exhaustive.
# Random configs draw with seed = the axiom's number.
CONFIGS = {
    "bool2-1-exhaustive": (B2, 1, None, None),
    "luka3-1-exhaustive": (L3, 1, None, None),
    "luka3-3-random": (L3, 3, None, 20),
    "godel-2-random": (GD, 2, None, 20),
    "godel9-1-random": (GD, 1, GRID9, 20),
}

_EXHAUSTIVE_COUNTS = (3, 2, 1, 1, 3, 1, 3, 3, 1, 1, 1, 2, 2, 3, 2, 3, 1, 1, 1, 1, 1)

# One row per axiom in catalog order, then 219 and 220 again as
# find_boolean_witness reports them.
PINS = {
    "bool2-1-exhaustive": [f"holds {2 ** k}" for k in _EXHAUSTIVE_COUNTS]
    + ["holds 2", "holds 2"],
    "luka3-1-exhaustive": [f"holds {9 ** k}" for k in _EXHAUSTIVE_COUNTS[:19]]
    + [
        "fails 2 a=w1w1:(u,u) at w1w1 (u,u) (bot,top)",
        "fails 2 a=w1w1:(u,u) at w1w1 (u,u) (top,bot)",
    ] * 2,
    "luka3-3-random": ["holds 20"] * 19
    + [
        "fails 1 a=w1w1:(u,top),w1w2:(bot,top),w1w3:(bot,top),w2w1:(bot,top),"
        "w2w2:(top,top),w2w3:(bot,top),w3w1:(bot,top),w3w2:(bot,top),w3w3:(bot,top)"
        " at w1w1 (u,top) (bot,top)",
        "fails 1 a=w1w1:(bot,u),w1w2:(bot,top),w1w3:(bot,top),w2w1:(bot,top),"
        "w2w2:(bot,u),w2w3:(bot,top),w3w1:(bot,top),w3w2:(bot,top),w3w3:(bot,bot)"
        " at w1w1 (u,bot) (top,bot)",
        "fails 2 a=w1w1:(bot,top),w1w2:(bot,top),w1w3:(bot,top),w2w1:(bot,top),"
        "w2w2:(bot,top),w2w3:(bot,top),w3w1:(bot,top),w3w2:(bot,top),w3w3:(u,u)"
        " at w3w3 (u,u) (bot,top)",
        "fails 2 a=w1w1:(bot,top),w1w2:(bot,top),w1w3:(bot,top),w2w1:(bot,top),"
        "w2w2:(bot,top),w2w3:(bot,top),w3w1:(bot,top),w3w2:(bot,top),w3w3:(u,u)"
        " at w3w3 (u,u) (top,bot)",
    ],
    "godel-2-random": ["holds 20"] * 19
    + [
        "fails 1 a=w1w1:(1,0.75),w1w2:(0,1),w2w1:(0,1),w2w2:(0.25,0)"
        " at w1w1 (0.75,1) (0,1)",
        "fails 1 a=w1w1:(0,0),w1w2:(0,1),w2w1:(0,1),w2w2:(1,1) at w1w1 (0,0) (1,0)",
        "fails 2 a=w1w1:(0,1),w1w2:(0,1),w2w1:(0,1),w2w2:(0.25,0.75)"
        " at w2w2 (0.25,0.75) (0,1)",
        "fails 2 a=w1w1:(0,1),w1w2:(0,1),w2w1:(0,1),w2w2:(0.25,0.75)"
        " at w2w2 (0.75,0.25) (1,0)",
    ],
    "godel9-1-random": ["holds 20"] * 19
    + [
        "fails 1 a=w1w1:(0.375,1) at w1w1 (0.375,1) (0,1)",
        "fails 1 a=w1w1:(0.375,0.375) at w1w1 (0.375,0.375) (1,0)",
        "fails 2 a=w1w1:(0.125,0.875) at w1w1 (0.125,0.875) (0,1)",
        "fails 2 a=w1w1:(0.125,0.875) at w1w1 (0.875,0.125) (1,0)",
    ],
}

# The variables of each law in the order its witnesses list them:
# p, q, r range over programs and a, b, c over tests.
VARIABLES = {
    1: "pqr", 2: "pq", 3: "p", 4: "p", 5: "pqr", 6: "p", 7: "pqr", 8: "pqr",
    9: "p", 10: "p", 11: "p", 14: "pr", 15: "pr",
    213: "abc", 214: "ab", 215: "abc", 216: "a", 217: "a", 218: "a", 219: "a", 220: "a",
}


def _weight(w) -> str:
    return "(" + ",".join(weight_to_json(w)) + ")"


def _pin(verdict) -> str:
    text = f"{verdict.status.value} {verdict.samples}"
    w = verdict.witness
    if w is not None:
        for name, rel in w.assignment.items():
            text += f" {name}=" + ",".join(f"{u}{v}:{_weight(x)}" for (u, v), x in rel.pairs())
        text += f" at {w.entry[0]}{w.entry[1]} {_weight(w.lhs)} {_weight(w.rhs)}"
    return text


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_catalog_verdicts_are_pinned(config):
    lattice, n, grid, samples = CONFIGS[config]
    rows = []
    for ax in AxiomId:
        if samples is None:
            verdict = check_axiom(ax, lattice, n, "exhaustive", godel_grid=grid)
        else:
            verdict = check_axiom(ax, lattice, n, "random", samples=samples,
                                  seed=ax.value, godel_grid=grid)
        rows.append(_pin(verdict))
    found = find_boolean_witness(lattice, n, godel_grid=grid)
    rows += [_pin(found[ax]) for ax in catalog.BOOLEAN_AXIOMS]
    assert rows == PINS[config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_suite_gives_the_per_law_verdicts(config, monkeypatch):
    # Every instance checked is recorded, so draws show even where all hold.
    checked, real_break = [], engine._break

    def recording(law, env, zer):
        checked.append((law.formula, dict(env)))
        return real_break(law, env, zer)

    monkeypatch.setattr(engine, "_break", recording)
    lattice, n, grid, samples = CONFIGS[config]
    mode, extra = ("exhaustive", {}) if samples is None else (
        "random", {"samples": samples, "seed": 11})
    rows = [check_axiom(ax, lattice, n, mode, godel_grid=grid, **extra)
            for ax in catalog.CORE_AXIOMS]
    found = find_boolean_witness(lattice, n, godel_grid=grid)
    rows += [found[ax] for ax in catalog.BOOLEAN_AXIOMS]
    per_law = len(checked)
    suite = check_suite(lattice, n, mode, godel_grid=grid, **extra)
    assert [verdict_to_dict(v) for v in suite] == [verdict_to_dict(v) for v in rows]
    assert checked[per_law:] == checked[:per_law]


def _sides(formula: str) -> list[str]:
    """Every term of a law's printed text."""
    return [side for part in formula.split("->") for side in part.replace("<=", "=").split("=")]


def test_catalog_laws_parse_and_sort_check():
    for ax in AxiomId:
        names = VARIABLES[ax.value]
        tests = {x for x in names if x in "abc"}
        programs = set(names) - tests
        terms = [parse(side) for side in _sides(ax.formula)]
        assert sorted(set().union(*map(atoms, terms))) == list(names)
        wanted = Sort.TEST if tests else None
        for term in terms:
            sort = sort_of(term, programs, tests)
            assert wanted is None or sort is wanted
        law = catalog._AXIOMS[ax]
        assert law.code[0] == list(names)
        assert {x for x in names if x in law.tests} == tests
    verdict = check_axiom(219, L3, 1, "exhaustive")
    assert verdict.status is Status.FAILS and list(verdict.witness.assignment) == ["a"]
