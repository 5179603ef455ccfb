"""Laws over the meaning of terms, their verdicts, and the check of one
instance.  ``catalog`` and ``bitslice``, the checking loops, import this
module and it imports neither, so ``equiv --model`` and ``hoare`` compile
neither and never import ``random``.

Terms evaluate compositionally to weight matrices in ``syntax``, whose
``evaluate`` is imported here, so ``engine.evaluate`` is the same
function.  Every law is term text: a catalog axiom is the formula it
prints, and an equivalence t1 = t2 or a triple {b} p {c} (the equation
b;p = b;p;c) a ``_Law`` of the same shape, compiled once per run by
``syntax._compile`` to straight-line kernel calls, one per distinct
subterm.  ``_break`` runs a law on one instance's relations and reports
the first entry where it breaks, and ``_verdict`` makes that a verdict on
a model: the user's, for ``equiv`` and ``hoare_check``, or a chunk's first
failing instance, for ``bitslice``.  ``catalog.recheck`` runs ``_break``
on a verdict's witness.  ``equiv_random``, ``states_for`` and the caps
moved to ``bitslice`` and still resolve from here.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum

from . import _moved
from .errors import SortError
from .plts import Model, model_to_dict
from .record import Record
from .relp import PRel, align, prel_to_entries, r_leq, zero
from .syntax import (Dot, Sort, Term, _atom_assignment, _compile, _fill, evaluate, pretty,
                     sort_check)
from .twist import format_weight, weight_to_json


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"


class Witness(Record):
    """Enough data to reproduce a failure independently: where the law
    breaks under ``assignment`` (name to ``PRel``), and both sides there."""

    __slots__ = ("assignment", "entry", "lhs", "rhs", "formula", "model", "terms")
    _defaults = {"model": None, "terms": None}


class Verdict(Record):
    __slots__ = ("status", "lattice", "n_states", "mode", "axiom", "witness", "samples", "seed")
    _defaults = {"axiom": None, "witness": None, "samples": None, "seed": None}


class _Law(Record):
    """Goals ``lhs = rhs``, or if ``horn`` the goal ``lhs <= rhs`` required
    only where the premise ``lhs <= rhs`` holds: ``code`` compiles their
    sides, the premise's first; its names, in instance order, range over
    tests if in ``tests``, else over programs.  ``formula`` and ``terms``
    are what a witness prints, with its model when the law has ``terms``."""

    __slots__ = ("formula", "code", "horn", "tests", "terms")
    _defaults = {"horn": False, "tests": frozenset(), "terms": None}


def _equation(t1: Term, t2: Term, tests: Iterable[str] = ()) -> _Law:
    """t1 = t2, its atoms named in ``tests`` ranging over tests; its compiled
    names are the programs, then the tests, each alphabetical."""
    terms, tests = (pretty(t1), pretty(t2)), frozenset(tests)
    return _Law(" = ".join(terms), _compile((t1, t2), tests), terms=terms, tests=tests)


def _triple(pre: Term, prog: Term, post: Term) -> _Law:
    """{pre} prog {post}: pre;prog = pre;prog;post.  As post <= 1 and ``;`` is
    monotone, the right side never exceeds the left (pre;prog;post <= pre;prog),
    so the equation holds exactly where the triple's inclusion
    pre;prog <= pre;prog;post does."""
    terms = (pretty(pre), pretty(prog), pretty(post))
    lhs = Dot(pre, prog)
    return _Law("{%s} %s {%s}" % terms, _compile((lhs, Dot(lhs, post))), terms=terms)


# ---------------------------------------------------------------------------
# Law checking


def _first_break(lhs: PRel, rhs: PRel, require_leq: bool):
    """The first entry where lhs = rhs (lhs <= rhs) fails, decoded; else None."""
    lhs, rhs = align(lhs, rhs)
    for k, (a, b) in enumerate(zip(lhs.bits, rhs.bits)):
        if a & ~b if require_leq else a != b:
            n = len(lhs.states)
            return (lhs.states[k // n], lhs.states[k % n]), lhs.cell(k), rhs.cell(k)


def _break(law: _Law, env: Mapping[str, PRel], zer: PRel):
    """None when the instance ``env``, with ``zer`` its ``0``, satisfies the
    law, else its first break: the entry and the two sides' weights there.
    A pair of sides runs only when the pairs before it held."""
    names, steps, roots = law.code
    slots = [zer, *map(env.__getitem__, names)]
    sides = (_fill(slots, steps, root) for root in roots)
    if law.horn and not r_leq(next(sides), next(sides)):
        return None
    for left, right in zip(sides, sides):
        found = _first_break(left, right, law.horn)
        if found is not None:
            return found


def _verdict(law: _Law, model: Model, mode: str, **fields) -> Verdict:
    """The law checked on the relations of ``model``: holds, or fails with
    their first break as the witness, which carries the model if the law
    has user ``terms``."""
    env = _atom_assignment(model, law.code[0])
    found = _break(law, env, zero(model.lattice, model.states))
    if found is not None:
        shown = model if law.terms is not None else None
        fields["witness"] = Witness(env, *found, law.formula, shown, law.terms)
    status = Status.HOLDS if found is None else Status.FAILS
    return Verdict(status, model.lattice, len(model.states), mode, **fields)


# ---------------------------------------------------------------------------
# Term equivalence and triples


def equiv(t1: Term, t2: Term, model: Model) -> Verdict:
    """Exact equality of the two interpretations on one model."""
    sort_check(t1, model)
    sort_check(t2, model)
    return _verdict(_equation(t1, t2, model.tests), model, "model")


def hoare_check(pre: Term, prog: Term, post: Term, model: Model) -> Verdict:
    """Triple {pre} prog {post}: require pre;prog = pre;prog;post (see ``_triple``)."""
    if sort_check(pre, model) is not Sort.TEST:
        raise SortError("the precondition must be a test")
    if sort_check(post, model) is not Sort.TEST:
        raise SortError("the postcondition must be a test")
    sort_check(prog, model)
    return _verdict(_triple(pre, prog, post), model, "model")


# ---------------------------------------------------------------------------
# Verdict plumbing


def witness_parts(verdict: Verdict, unicode: bool, eq: str) -> list[str]:
    """A witness as text: each assigned relation as ``name{eq}{(u,v): w, ...}``,
    then the entry where the law breaks."""
    w = verdict.witness
    parts = [
        f"{name}{eq}{{"
        + ", ".join(f"({u},{v}): {x}" for (u, v), x in
                    rel.pairs(lambda x: format_weight(x, unicode)))
        + "}"
        for name, rel in w.assignment.items()
    ]
    u, v = w.entry
    lhs, rhs = format_weight(w.lhs, unicode), format_weight(w.rhs, unicode)
    return parts + [f"at ({u},{v}): lhs={lhs} rhs={rhs}"]


def _witness_to_dict(w: Witness) -> dict:
    out = {
        "assignment": {name: prel_to_entries(rel) for name, rel in w.assignment.items()},
        "entry": list(w.entry),
        "lhs": weight_to_json(w.lhs),
        "rhs": weight_to_json(w.rhs),
        "formula": w.formula,
    }
    if w.terms is not None:
        out["terms"] = list(w.terms)
    if w.model is not None:
        out["model"] = model_to_dict(w.model)
    return out


def verdict_to_dict(v: Verdict) -> dict:
    out = {
        "axiom": v.axiom.value if v.axiom is not None else None,
        "lattice": v.lattice.value,
        "states": v.n_states,
        "mode": v.mode,
        "status": v.status.value,
    }
    if v.witness is not None:
        out["witness"] = _witness_to_dict(v.witness)
    out["samples"] = v.samples
    out["seed"] = v.seed
    return out


__getattr__ = _moved(__name__,
                     bitslice="DEFAULT_GODEL_GRID MAX_EXHAUSTIVE MAX_STEPS equiv_random states_for")
