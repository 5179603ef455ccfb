"""Seeded request lists for the three workloads.

Every workload is a fixed composition of request shapes; the seed only
fills in the random parts (model entries, term subterms, sampling seeds
and the order of the list), so the work per list stays comparable from
seed to seed.  A request is a dict: ``argv`` for ``pkat`` (always with
``--json``), the ``kind`` the verifier dispatches on, and whatever the
verifier needs to know about the input.  Model files are written into
the run's work directory and named in ``argv`` by path.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from . import reference as ref

WORKLOADS = ("axiom-suite", "big-model", "random-equiv")

GODEL9 = "0,0.125,0.25,0.375,0.5,0.625,0.75,0.875,1"


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "axiom-suite":
        requests = _axiom_suite(rng)
    elif workload == "big-model":
        requests = _big_model(rng, workdir)
    elif workload == "random-equiv":
        requests = _random_equiv(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    for i, req in enumerate(requests):
        req["id"] = i
    return requests


# ---------------------------------------------------------------------------
# axiom-suite: the checking loops over 1-3 state matrices.

# (lattice, godel grid, states, samples); samples None means exhaustive.
# Exhaustive only where the space is small enough to finish in well under
# a second (godel n=1 fits under the cap but takes ~5 s); the rest sample.
_AXIOM_CONFIGS = (
    ("bool2", None, 1, None),
    ("lukasiewicz3", None, 1, None),
    ("bool2", None, 2, 30),
    ("bool2", None, 3, 20),
    ("lukasiewicz3", None, 2, 30),
    ("lukasiewicz3", None, 3, 20),
    ("godel", None, 1, 30),
    ("godel", None, 2, 20),
    ("godel", None, 3, 12),
    ("godel", GODEL9, 1, 8),
    ("godel", GODEL9, 2, 8),
    ("godel", GODEL9, 3, 6),
)


def _axiom_suite(rng: random.Random) -> list[dict]:
    out = []
    for lattice, grid, n, samples in _AXIOM_CONFIGS:
        for _ in range(2 if samples is None else 4):
            argv = ["axioms", "--lattice", lattice, "--states", str(n)]
            if grid:
                argv += ["--godel-grid", grid]
            if samples is None:
                argv.append("--exhaustive")
                seed = None
            else:
                seed = rng.randrange(10**6)
                argv += ["--samples", str(samples), "--seed", str(seed)]
            out.append({
                "kind": "axioms", "argv": argv + ["--json"], "lattice": lattice,
                "grid": grid, "states": n, "samples": samples, "seed": seed,
            })
    return out


# ---------------------------------------------------------------------------
# big-model: the relation kernel on 16-32 state models.

# Requests on the models; p and q are tests, r and s programs.
_LOOP = ("eval", "(r + p;s)*;q")
_WHILE = ("eval", "(p;r)*;!p")                  # while p do r
_IF = ("eval", "(q;r + !q;s);!p")               # if q then r else s; !p
_STAR = ("star", "r")
_HOARE_HOLDS = ("hoare", ("p", "(p;r)*;!p", "!p"))
_HOARE = ("hoare", ("p", "(p;r)*;!p", "q"))
_CLASSIFY = ("classify", "s")

# (lattice, states, edge density, requests, draws); density sets how many
# star rounds run.  36 of the 48 requests fall on 18-state lukasiewicz3
# and 16-state godel models, which cost about the same per request, so p50
# and p75 sit inside one band of mixed request times (p75 six requests
# below its top); the six requests on 24- and 32-state models add the
# heaviest products and a third of the list's time.
_BIG_MODELS = (
    ("lukasiewicz3", 18, 0.08, (_LOOP, _WHILE, _STAR), 4),
    ("lukasiewicz3", 18, 0.5, (_LOOP, _IF, _STAR, _CLASSIFY), 2),
    ("godel", 16, 0.25, (_LOOP, _WHILE, _HOARE_HOLDS, _STAR), 3),
    ("godel", 16, 0.08, (_LOOP, _IF, _HOARE, _CLASSIFY), 2),
    ("lukasiewicz3", 24, 0.15, (_WHILE, _STAR), 1),
    ("godel", 32, 0.3, (_STAR, _IF, _CLASSIFY), 2),
)


def _chain_values(lattice: str, rng: random.Random) -> list[str]:
    if lattice == "lukasiewicz3":
        return ["bot", "u", "top"]
    # A model-specific set of two-decimal values, so value universes vary.
    inner = sorted(rng.sample(range(1, 100), 7))
    return ["0"] + [f"0.{k:02d}" for k in inner] + ["1"]


def _weight(rng, values, allow_bot=False):
    while True:
        tt, ff = rng.choice(values), rng.choice(values)
        if allow_bot or (tt, ff) != (values[0], values[-1]):
            return [tt, ff]


def big_model_doc(rng: random.Random, lattice: str, n: int, density: float) -> dict:
    values = _chain_values(lattice, rng)
    states = [f"s{i}" for i in range(n)]
    programs = {}
    for name in ("r", "s"):
        entries = []
        for u in states:
            for v in states:
                if rng.random() < density:
                    entries.append([u, v, *_weight(rng, values)])
        programs[name] = entries
    tests = {
        name: {u: _weight(rng, values, allow_bot=True) for u in states}
        for name in ("p", "q")
    }
    return {"lattice": lattice, "states": states, "programs": programs, "tests": tests}


def _big_model(rng: random.Random, workdir: str) -> list[dict]:
    out = []
    shapes = [shape[:4] for shape in _BIG_MODELS for _ in range(shape[4])]
    for k, (lattice, n, density, requests) in enumerate(shapes):
        doc = big_model_doc(rng, lattice, n, density)
        path = os.path.join(workdir, f"model{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command, arg in requests:
            if command == "eval":
                argv = ["eval", "--model", path, "--term", arg]
            elif command == "star":
                argv = ["star", "--model", path, "--program", arg]
            elif command == "hoare":
                argv = ["hoare", "--model", path, "--pre", arg[0], "--prog", arg[1],
                        "--post", arg[2]]
            else:
                argv = ["classify", "--model", path, "--name", arg]
            out.append({"kind": command, "argv": argv + ["--json"], "model": path,
                        "arg": arg, "states": n})
    return out


# ---------------------------------------------------------------------------
# random-equiv: thousands of tiny products, with full runs and early exits.

_PROGRAMS, _TESTS = ("x", "y"), ("a", "b")

# The catalog equations that hold on every model; law variables a, b, c
# are replaced by test subterms and p, q, r by program subterms.
_EQUATIONS = [
    f for ident, _, f in ref.CATALOG if ident in ref.CORE and "->" not in f
]

# (lattice, states, samples): each shape gets one law instance, which must
# hold and so runs every sample, and six mutants, which mostly fail early.
# With mutants at 6/7 of the list, p50 and p75 are both early exits, inside
# one band of request times (p75 six requests below its top), and the full
# runs carry most of the list's time.
_EQUIV_SHAPES = (
    ("lukasiewicz3", 2, 500),
    ("lukasiewicz3", 3, 350),
    ("lukasiewicz3", 4, 200),
    ("godel", 2, 400),
    ("godel", 3, 250),
    ("godel", 4, 150),
    ("lukasiewicz3", 3, 350),
    ("godel", 3, 250),
)
_EQUIV_SLOTS = (True, False, False, False, False, False, False)


# Every program variable becomes x;a + y* and every test variable !a + b;a,
# with the two program atoms and the test atoms placed by the seed, and the
# laws are taken in catalog order: the cost of a list then depends on the
# seed only through star rounds and early exits.
def _program_subterm(rng: random.Random):
    first, second = rng.sample(_PROGRAMS, 2)
    return ("+", (";", ("atom", first), ("atom", rng.choice(_TESTS))),
            ("*", ("atom", second)))


def _test_subterm(rng: random.Random):
    def leaf():
        return ("atom", rng.choice(_TESTS))
    return ("+", ("!", leaf()), (";", leaf(), leaf()))


def show(term) -> str:
    """Fully parenthesised term text in pkat's grammar."""
    kind = term[0]
    if kind == "atom":
        return term[1]
    if kind in ("0", "1"):
        return kind
    if kind == "*":
        inner = show(term[1])
        return f"{inner}*" if term[1][0] == "atom" else f"({inner})*"
    if kind == "!":
        inner = show(term[1])
        return f"!{inner}" if term[1][0] in ("atom", "!") else f"!({inner})"
    return f"({show(term[1])} {kind} {show(term[2])})"


def _substitute(term, env):
    if term[0] == "atom":
        return env[term[1]]
    return (term[0], *(_substitute(sub, env) for sub in term[1:]))


def _law_instance(rng: random.Random, formula: str):
    env = {
        var: _test_subterm(rng) if var in ref.TEST_VARS else _program_subterm(rng)
        for var in ref.law_vars(formula)
    }
    lhs, rhs = (ref.parse(s) for s in formula.split("=")[:2])
    return _substitute(lhs, env), _substitute(rhs, env)


def _positions(term, path=()):
    yield path, term
    if term[0] == "atom":
        return
    for k, sub in enumerate(term[1:], start=1):
        yield from _positions(sub, path + (k,))


def _replace(term, path, new):
    if not path:
        return new
    k = path[0]
    return term[:k] + (_replace(term[k], path[1:], new),) + term[k + 1:]


def _is_test(term) -> bool:
    kind = term[0]
    if kind == "atom":
        return term[1] in _TESTS
    if kind in ("0", "1", "!"):
        return True
    if kind == "*":
        return False
    return _is_test(term[1]) and _is_test(term[2])


def mutate(rng: random.Random, term):
    """One sort-preserving edit that is not a law of the algebra by itself:
    swap the operands of a program ';', change an operator, drop or add a
    star, rename an atom, or replace a subterm by 0."""
    sites = [(path, sub) for path, sub in _positions(term) if not _under_not(term, path)]
    while True:
        path, sub = rng.choice(sites)
        kind = sub[0]
        edit = rng.choice(("swap", "op", "star", "atom", "const"))
        if edit == "swap" and kind == ";" and not (_is_test(sub[1]) and _is_test(sub[2])):
            new = (kind, sub[2], sub[1])
        elif edit == "op" and kind in ("+", ";"):
            new = ("+" if kind == ";" else ";", sub[1], sub[2])
        elif edit == "star" and kind == "*":
            new = sub[1]
        elif edit == "star":
            new = ("*", sub)
        elif edit == "atom" and kind == "atom":
            pool = _TESTS if sub[1] in _TESTS else _PROGRAMS
            new = ("atom", next(a for a in pool if a != sub[1]))
        elif edit == "const" and kind != "0":
            new = ("0",)
        else:
            continue
        mutant = _replace(term, path, new)
        if mutant != term:
            return mutant


def refutable(t1, t2, rng: random.Random, tries: int = 40) -> bool:
    """Whether the reference separates two terms on some small random model."""
    values = ["bot", "u", "top"]
    states = ["w1", "w2"]
    for _ in range(tries):
        doc = {
            "lattice": "lukasiewicz3",
            "states": states,
            "programs": {x: [[u, v, rng.choice(values), rng.choice(values)]
                             for u in states for v in states] for x in _PROGRAMS},
            "tests": {a: {u: [rng.choice(values), rng.choice(values)] for u in states}
                      for a in _TESTS},
        }
        model = ref.Model(doc)
        if model.evaluate(t1) != model.evaluate(t2):
            return True
    return False


def _under_not(term, path) -> bool:
    """Whether the position is inside a '!' (only tests may stand there)."""
    node = term
    for k in path:
        if node[0] == "!":
            return True
        node = node[k]
    return False


def _random_equiv(rng: random.Random) -> list[dict]:
    out = []
    for k, (lattice, n, samples) in enumerate(_EQUIV_SHAPES):
        for j, law in enumerate(_EQUIV_SLOTS):
            formula = _EQUATIONS[(len(_EQUIV_SLOTS) * k + j) % len(_EQUATIONS)]
            lhs, rhs = _law_instance(rng, formula)
            if not law:
                # Mutants that are equivalences after all are drawn again.
                original = rhs
                rhs = mutate(rng, original)
                while not refutable(lhs, rhs, rng):
                    rhs = mutate(rng, original)
            t1, t2 = show(lhs), show(rhs)
            seed = rng.randrange(10**6)
            argv = ["equiv", "--t1", t1, "--t2", t2, "--lattice", lattice,
                    "--states", str(n), "--random", str(samples), "--seed", str(seed),
                    "--tests", ",".join(_TESTS), "--json"]
            out.append({"kind": "equiv", "argv": argv, "law": law, "formula": formula,
                        "t1": t1, "t2": t2, "samples": samples, "seed": seed,
                        "states": n})
    return out


def space_size(lattice: str, grid: str | None) -> int:
    values = [Fraction(v) for v in grid.split(",")] if grid else None
    return len(ref.weight_space(lattice, values))
