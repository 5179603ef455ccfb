"""The axiom catalog and its suite, checked by ``bitslice._check``, and the
handler of the ``axioms`` command that runs it, ``_cmd_axioms``.

Each axiom is stored once, on its ``AxiomId``, as the formula it prints,
and ``_law`` compiles it on each lookup.  Of the commands only ``axioms``
imports this module; neither ``engine`` nor ``bitslice`` does.
"""

from __future__ import annotations

import re
from enum import Enum

from .bitslice import _check, _parse_grid
from .engine import (Status, Verdict, _break, _equation, _Law, _triple, verdict_to_dict,
                     witness_parts)
from .errors import EngineError
from .lattice import LatticeId
from .plts import _json
from .relp import zero
from .syntax import _compile, parse


class AxiomId(Enum):
    """The axiom catalog: a Kleene algebra whose tests form a
    distributive complemented-lattice fragment; 219/220 are the two
    Boolean principles the paraconsistent reading drops.  Each member is
    its number and its law as printed: ``t0 = t1 = ... = tk`` is the
    equations ti = tk, ``l <= r  ->  l' <= r'`` a Horn law.  Variables a, b,
    c range over tests, all others over programs; a witness lists them in
    alphabetical order."""

    def __new__(cls, number: int, formula: str):
        member = object.__new__(cls)
        member._value_, member.formula = number, formula
        return member

    PLUS_ASSOC = 1, "p + (q + r) = (p + q) + r"
    PLUS_COMM = 2, "p + q = q + p"
    PLUS_ZERO = 3, "p + 0 = p"
    PLUS_IDEM = 4, "p + p = p"
    DOT_ASSOC = 5, "p;(q;r) = (p;q);r"
    DOT_ONE = 6, "1;p = p;1 = p"
    DOT_DIST_L = 7, "p;(q + r) = p;q + p;r"
    DOT_DIST_R = 8, "(p + q);r = p;r + q;r"
    DOT_ZERO = 9, "0;p = p;0 = 0"
    STAR_UNFOLD_L = 10, "1 + p;p* = p*"
    STAR_UNFOLD_R = 11, "1 + p*;p = p*"
    STAR_IND_L = 14, "p;r <= r  ->  p*;r <= r"
    STAR_IND_R = 15, "r;p <= r  ->  r;p* <= r"
    TEST_PLUS_OVER_DOT = 213, "a + b;c = (a + b);(a + c)"
    TEST_DOT_COMM = 214, "a;b = b;a"
    TEST_DOT_OVER_PLUS = 215, "a;b + c = (a + c);(b + c)"
    TEST_DOT_IDEM = 216, "a;a = a"
    TEST_DOUBLE_NEG = 217, "!!a = a"
    TEST_PLUS_ONE = 218, "a + 1 = 1"
    TEST_NON_CONTRA = 219, "a;!a = 0"
    TEST_EXCL_MIDDLE = 220, "a + !a = 1"

    @property
    def slug(self) -> str:
        return self.name.lower().replace("_", "-")


CORE_AXIOMS = tuple(a for a in AxiomId if a.value < 219)
BOOLEAN_AXIOMS = (AxiomId.TEST_NON_CONTRA, AxiomId.TEST_EXCL_MIDDLE)


_TEST_VARS = frozenset("abc")


def _law(ident: AxiomId) -> _Law:
    """The law ``ident`` prints, compiled afresh with its tests as ``_equation``
    compiles one: its names are the programs, then the tests, each alphabetical."""
    sides = [parse(side) for side in re.split("<=|->|=", ident.formula)]
    horn = "->" in ident.formula  # four sides, else t0 = ... = tk as each ti = tk
    goals = sides if horn else [t for ti in sides[:-1] for t in (ti, sides[-1])]
    return _Law(ident.formula, _compile(goals, _TEST_VARS), horn, _TEST_VARS)


def _run(lattice, n_states, godel_grid, mode, samples, seed, core, search) -> list[Verdict]:
    """Each law of ``core`` checked in ``mode``, then each law of ``search``
    searched exhaustively for a witness, by ``bitslice._check``."""
    if mode not in ("exhaustive", "random"):
        raise EngineError(f"unknown mode {mode!r}")
    plan = [(_law(i), mode, i) for i in core] + [(_law(i), "search", i) for i in search]
    return _check(plan, lattice, n_states, godel_grid, samples, seed)


def check_axiom(
    axiom: AxiomId | int,
    lattice: LatticeId,
    n_states: int,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int = 0,
    godel_grid=None,
) -> Verdict:
    """Check one axiom by instantiating its variables over relations.

    Exhaustive mode walks the whole finite instantiation space (refused
    above ``MAX_EXHAUSTIVE``); random mode draws samples at ``seed``, 0 unless
    given, as ``pkat axioms --seed`` defaults.  A failing
    verdict carries the first counterexample in enumeration order.
    """
    return _run(lattice, n_states, godel_grid, mode, samples, seed, (AxiomId(axiom),), ())[0]


def find_boolean_witness(
    lattice: LatticeId,
    n_states: int,
    godel_grid=None,
) -> dict[AxiomId, Verdict]:
    """Search tests refuting non-contradiction and excluded middle.

    Each verdict is the exhaustive walk's (nearest classical consistency
    first): the first violating test, or holds over all k^n tests.  Both
    laws act state by state, so k of the tests decide it (``bitslice`` docstring).
    """
    verdicts = _run(lattice, n_states, godel_grid, "exhaustive", None, None, (), BOOLEAN_AXIOMS)
    return dict(zip(BOOLEAN_AXIOMS, verdicts))


def check_suite(
    lattice: LatticeId,
    n_states: int,
    mode: str = "exhaustive",
    *,
    samples: int | None = None,
    seed: int = 0,
    godel_grid=None,
) -> list[Verdict]:
    """The whole axiom suite on one candidate space: ``check_axiom`` of
    each core axiom in catalog order, then ``find_boolean_witness``'s
    verdicts for 219 and 220."""
    return _run(lattice, n_states, godel_grid, mode, samples, seed, CORE_AXIOMS, BOOLEAN_AXIOMS)


def recheck(verdict: Verdict) -> bool:
    """Re-run a failing verdict's law on its witness assignment; True iff
    it breaks at the same entry with the same weights."""
    if verdict.status is not Status.FAILS or verdict.witness is None:
        raise EngineError("only failing verdicts carry a witness to recheck")
    w = verdict.witness
    if verdict.axiom is not None:
        law = _law(verdict.axiom)
    elif w.terms is not None and len(w.terms) in (2, 3):
        law = (_equation if len(w.terms) == 2 else _triple)(*map(parse, w.terms))
    else:
        raise EngineError("verdict carries no recheckable witness")
    basis = next(iter(w.assignment.values()), w.model)
    if basis is None:
        raise EngineError("verdict carries no recheckable witness")
    zer = zero(basis.lattice, basis.states)
    return _break(law, w.assignment, zer) == (w.entry, w.lhs, w.rhs)


def axiom_row(verdict: Verdict, unicode: bool) -> str:
    """A verdict's line in the text table of ``pkat axioms``."""
    ax = verdict.axiom
    row = (
        f"({ax.value:>3}) {ax.slug:<20} {ax.formula:<28} "
        f"{verdict.status.value:<5} checked={verdict.samples}"
    )
    if verdict.status is Status.FAILS:
        row += "  witness " + " ".join(witness_parts(verdict, unicode, "="))
    return row


def _cmd_axioms(args) -> int:
    lattice = LatticeId.from_name(args.lattice)
    grid = _parse_grid(args.godel_grid)
    mode = "exhaustive" if args.samples is None else "random"
    verdicts = check_suite(lattice, args.states, mode, samples=args.samples, seed=args.seed,
                           godel_grid=grid)
    core_ok = all(v.status is Status.HOLDS for v in verdicts[:len(CORE_AXIOMS)])
    if args.json:
        return _json({
            "lattice": lattice.value,
            "states": args.states,
            "mode": mode,
            "axioms": [verdict_to_dict(v) for v in verdicts],
        }, 0 if core_ok else 1)
    print(f"axiom suite: lattice={lattice.value} states={args.states} mode={mode}")
    for verdict in verdicts:
        print(axiom_row(verdict, args.unicode))
    refuted = [str(v.axiom.value) for v in verdicts[len(CORE_AXIOMS):] if v.status is Status.FAILS]
    print(
        "core axioms: "
        + ("all hold" if core_ok else "FAILURES above")
        + "; boolean axioms refuted: "
        + (",".join(refuted) if refuted else "none")
    )
    return 0 if core_ok else 1
