"""Transition models over a truth-value lattice, and their file format.

A model fixes a lattice, an ordered nonempty set of states, named
program relations (total weight matrices) and named tests (one weight
per state).  A test is stored once, as its subidentity ``relp.PRel``:
the matrix carrying its per-state weights on the diagonal, which is what
the test's name denotes inside a term.  Programs and tests share one
value table (see ``relp``), built at load.  This module holds ``Model``,
its accessors and the writers ``model_to_dict``, ``model_to_text`` and
``diagonal_to_json`` (which ``setp.pset_to_json`` calls).  The reader is
``modelfile``, which ``load_model`` imports when it is called, so
``axioms`` and ``equiv --random`` never compile it.  The document format::

    {"lattice": "lukasiewicz3",
     "states": ["w1", "w2"],
     "programs": {"r": [["w1", "w2", "top", "bot"],
                        ["w2", "w1", "top", "u"]]},
     "tests": {"p": {"w1": ["top", "bot"], "w2": ["u", "bot"]}}}

Unlisted program entries and unlisted test states default to the least
weight (0, 1).  A test may also be written in the program entry form
``[u, v, tt, ff]`` provided u = v.  Interval-lattice weights are
decimal strings ("0.25").  Unknown fields and duplicate keys are
rejected.  An optional ``"test_carrier"`` field lists the values test
weights may draw from (it must include bot and top).

A ``bool2`` model is four-valued: a weight may be any pair over {0, 1},
including (1, 1) and (0, 0), and such weights evaluate like any other.
The ``bool2`` checks in ``engine`` draw only the classical corners
(1, 0) and (0, 1), so their verdicts speak about ordinary relations, not
about every model this loader accepts.
"""

from __future__ import annotations

import json
from types import MappingProxyType

from .errors import ModelError, quoted
from .lattice import elem_to_json
from .record import Record
from .relp import PRel, prel_to_entries
from .twist import Weight, weight_to_json


class Model(Record):
    """A lattice, its ordered ``states``, ``programs`` (name to ``PRel``),
    ``tests`` (name to its subidentity ``PRel``), the ``test_carrier``
    elements or None, and ``values``: the table the programs and tests
    share (see ``relp``), which equality and ``repr`` leave out."""

    __slots__ = ("lattice", "states", "programs", "tests", "test_carrier", "values")
    _defaults = {"programs": MappingProxyType({}), "tests": MappingProxyType({}),
                 "test_carrier": None, "values": ()}
    _compared = __slots__[:-1]


def valuation(m: Model, prop: str, state: str) -> Weight:
    """The stored (for, against) pair of a test at a state."""
    if prop not in m.tests:
        raise ModelError(f"unknown proposition {prop!r}")
    if state not in m.states:
        raise ModelError(f"unknown state {state!r}")
    return m.tests[prop].entry(state, state)


def program_relation(m: Model, name: str) -> PRel:
    if name not in m.programs:
        raise ModelError(f"unknown program {quoted(name)}")
    return m.programs[name]


def diagonal_relation(m: Model, name: str) -> PRel:
    """The subidentity matrix of a test."""
    if name not in m.tests:
        raise ModelError(f"unknown test {quoted(name)}")
    return m.tests[name]


def _named_relation(m: Model, name: str) -> PRel:
    """A program's relation, else a test's subidentity matrix."""
    rel = m.programs.get(name) or m.tests.get(name)
    if rel is None:
        raise ModelError(f"unknown relation {quoted(name)}")
    return rel


def load_model(document: str | bytes) -> Model:
    """The model a document describes, read by ``modelfile``."""
    from .modelfile import _checked_pairs, model_from_dict

    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        raw = json.loads(document, object_pairs_hook=_checked_pairs)
    except UnicodeDecodeError as exc:
        raise ModelError(f"not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer too long to convert
        raise ModelError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelError("invalid JSON: document nests too deeply") from exc
    return model_from_dict(raw)


def model_to_dict(m: Model) -> dict:
    """Canonical document form with all defaults made explicit."""
    out = {
        "lattice": m.lattice.value,
        "states": list(m.states),
        "programs": {name: prel_to_entries(rel) for name, rel in m.programs.items()},
        "tests": {name: diagonal_to_json(test) for name, test in m.tests.items()},
    }
    if m.test_carrier is not None:
        out["test_carrier"] = [elem_to_json(e) for e in m.test_carrier]
    return out


def diagonal_to_json(test: PRel) -> dict:
    """A test's weights as the model file format writes them: state to [tt, ff]."""
    return {u: pair for (u, v), pair in test.pairs(weight_to_json) if u == v}


def model_to_text(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2)
