"""Transition models over a truth-value lattice, and their file format.

A model fixes a lattice, an ordered nonempty set of states, named
program relations (total weight matrices) and named tests (one weight
per state).  A test is stored once, as its subidentity ``relp.PRel``:
the matrix carrying its per-state weights on the diagonal, which is what
the test's name denotes inside a term.  Programs and tests share one
value table (see ``relp``), built at load and carried by the relations
alone: a term's constants are built on {0, 1} and lifted onto it.  This
module holds ``Model``, the accessors ``program_relation`` and
``_named_relation``, the writers ``model_to_dict``, ``model_to_text`` and
``diagonal_to_json`` (which ``setp.pset_to_json`` calls), and ``_json``,
which prints every command's ``--json`` output.  The reader, with
``load_model`` and ``_read_model``, is ``modelfile``, which only the
commands given ``--model`` import, so ``axioms`` and ``equiv --random``
never compile it; ``valuation`` and ``diagonal_relation``, which no
command runs, are in ``algebra``.  This module resolves the three from
there (``__getattr__``).  The document format::

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
The ``bool2`` checks in ``bitslice`` draw only the classical corners
(1, 0) and (0, 1), so their verdicts speak about ordinary relations, not
about every model this loader accepts.
"""

from __future__ import annotations

import json
from types import MappingProxyType

from . import _moved
from .errors import ModelError, quoted
from .lattice import elem_to_json
from .record import Record
from .relp import PRel, prel_to_entries
from .twist import weight_to_json


class Model(Record):
    """A lattice, its ordered ``states``, ``programs`` (name to ``PRel``),
    ``tests`` (name to its subidentity ``PRel``) and the ``test_carrier``
    elements or None.  A loaded model's relations share one value table."""

    __slots__ = ("lattice", "states", "programs", "tests", "test_carrier")
    _defaults = {"programs": MappingProxyType({}), "tests": MappingProxyType({}),
                 "test_carrier": None}


def program_relation(m: Model, name: str) -> PRel:
    if name not in m.programs:
        raise ModelError(f"unknown program {quoted(name)}")
    return m.programs[name]


def _named_relation(m: Model, name: str) -> PRel:
    """A program's relation, else a test's subidentity matrix."""
    rel = m.programs.get(name) or m.tests.get(name)
    if rel is None:
        raise ModelError(f"unknown relation {quoted(name)}")
    return rel


def _json(payload, code: int = 0) -> int:
    """Print ``payload`` as ``--json`` output; return the exit ``code``."""
    print(json.dumps(payload, indent=2))
    return code


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

__getattr__ = _moved(__name__, modelfile="load_model",
                     algebra="valuation diagonal_relation")
