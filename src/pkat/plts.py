"""Transition models over a truth-value lattice, and their file format.

A model fixes a lattice, an ordered nonempty set of states, named
program relations (total weight matrices) and named tests (one weight
per state).  A test is stored once, as a ``setp.PSet``: the subidentity
matrix carrying its per-state weights on the diagonal, which is what
the test's name denotes inside a term.  Programs and tests share one
value table (see ``relp``), built at load.  The document format::

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
import re
from types import MappingProxyType

from .errors import CarrierError, LatticeMismatchError, ModelError, quoted
from .lattice import LatticeId, bottom, elem, elem_to_json, top
from .record import Record
from .relp import PRel, from_entries, prel_to_entries, value_table
from .setp import PSet, pset_to_json
from .twist import Weight, wbot, weight_from_json

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Model(Record):
    """A lattice, its ordered ``states``, ``programs`` (name to ``PRel``),
    ``tests`` (name to ``PSet``), the ``test_carrier`` elements or None,
    and ``values``: the table the programs and tests share (see ``relp``),
    which equality and ``repr`` leave out."""

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
    return m.tests[prop][state]


def program_relation(m: Model, name: str) -> PRel:
    if name not in m.programs:
        raise ModelError(f"unknown program {quoted(name)}")
    return m.programs[name]


def diagonal_relation(m: Model, name: str) -> PRel:
    """The subidentity matrix of a test."""
    if name not in m.tests:
        raise ModelError(f"unknown test {quoted(name)}")
    return m.tests[name].relation


def load_model(document: str | bytes) -> Model:
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


def _checked_pairs(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ModelError(f"duplicate key {key!r}")
        out[key] = value
    return out


def model_from_dict(raw) -> Model:
    if not isinstance(raw, dict):
        raise ModelError("a model document must be a JSON object")
    unknown = set(raw) - {"lattice", "states", "programs", "tests", "test_carrier"}
    if unknown:
        raise ModelError(f"unknown field {sorted(unknown)[0]!r}")
    if "lattice" not in raw:
        raise ModelError("missing field 'lattice'")
    if not isinstance(raw["lattice"], str):
        raise ModelError("'lattice' must be a string")
    try:
        lattice = LatticeId.from_name(raw["lattice"])
    except CarrierError as exc:
        raise ModelError(str(exc)) from exc

    states = _read_states(raw.get("states"))
    carrier = _read_test_carrier(lattice, raw.get("test_carrier"))

    entries: dict[str, dict[tuple[str, str], Weight]] = {}
    for name, items in _named_section(raw.get("programs"), "programs").items():
        _check_name(name, entries, {})
        entries[name] = _read_program(lattice, states, name, items)

    diagonals: dict[str, dict[str, Weight]] = {}
    for name, body in _named_section(raw.get("tests"), "tests").items():
        _check_name(name, entries, diagonals)
        diagonals[name] = _read_test(lattice, states, name, body, carrier)

    weights = [w for table in (*entries.values(), *diagonals.values()) for w in table.values()]
    values = value_table({x.value for w in weights for x in (w.tt, w.ff)})
    programs = {
        name: from_entries(lattice, states, table, values) for name, table in entries.items()
    }
    tests = {
        name: PSet(lattice, states, tuple(diagonal.values()), values)
        for name, diagonal in diagonals.items()
    }
    return Model(lattice, states, programs, tests, carrier, values)


def _read_states(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise ModelError("'states' must be a nonempty array")
    seen = set()
    for s in value:
        if not isinstance(s, str) or not s:
            raise ModelError(f"state names must be nonempty strings, got {s!r}")
        if s in seen:
            raise ModelError(f"duplicate state {s!r}")
        seen.add(s)
    return tuple(value)


def _read_test_carrier(lattice, value):
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ModelError("'test_carrier' must be a nonempty array")
    out = []
    for item in value:
        try:
            out.append(elem(lattice, item))
        except (CarrierError, LatticeMismatchError) as exc:
            raise ModelError(f"test_carrier: {exc}") from exc
    if bottom(lattice) not in out or top(lattice) not in out:
        raise ModelError("'test_carrier' must contain bot and top")
    return tuple(out)


def _named_section(value, label) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ModelError(f"'{label}' must be an object of named entries")
    return value


def _check_name(name, programs, tests) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ModelError(f"{name!r} is not a valid atom name")
    if name in programs or name in tests:
        raise ModelError(f"name {name!r} declared twice")


def _read_quad(lattice, states, owner, item) -> tuple[str, str, Weight]:
    if not isinstance(item, list) or len(item) != 4:
        raise ModelError(f"{owner}: entries are [from, to, tt, ff], got {item!r}")
    u, v = item[0], item[1]
    for s in (u, v):
        if s not in states:
            raise ModelError(f"{owner}: unknown state {s!r}")
    try:
        w = weight_from_json(lattice, item[2:])
    except (CarrierError, LatticeMismatchError) as exc:
        raise ModelError(f"{owner}: {exc}") from exc
    return u, v, w


def _read_program(lattice, states, name, entries) -> dict[tuple[str, str], Weight]:
    if not isinstance(entries, list):
        raise ModelError(f"program {name!r}: expected an array of entries")
    table: dict[tuple[str, str], Weight] = {}
    for item in entries:
        u, v, w = _read_quad(lattice, states, f"program {name!r}", item)
        if (u, v) in table:
            raise ModelError(f"program {name!r}: duplicate entry ({u!r}, {v!r})")
        table[(u, v)] = w
    return table


def _read_test(lattice, states, name, body, carrier) -> dict[str, Weight]:
    owner = f"test {name!r}"
    table: dict[str, Weight] = {}
    if isinstance(body, dict):
        for state, pair in body.items():
            if state not in states:
                raise ModelError(f"{owner}: unknown state {state!r}")
            try:
                table[state] = weight_from_json(lattice, pair)
            except (CarrierError, LatticeMismatchError) as exc:
                raise ModelError(f"{owner}: {exc}") from exc
    elif isinstance(body, list):
        for item in body:
            u, v, w = _read_quad(lattice, states, owner, item)
            if u != v:
                raise ModelError(
                    f"{owner}: entry ({u!r}, {v!r}) is off the diagonal"
                )
            if u in table:
                raise ModelError(f"{owner}: duplicate entry for state {u!r}")
            table[u] = w
    else:
        raise ModelError(f"{owner}: expected a state map or an entry array")
    default = wbot(lattice)
    full = {s: table.get(s, default) for s in states}
    if carrier is not None:
        for state, w in full.items():
            if w.tt not in carrier or w.ff not in carrier:
                raise ModelError(
                    f"{owner}: weight at {state!r} outside the declared test carrier"
                )
    return full


def model_to_dict(m: Model) -> dict:
    """Canonical document form with all defaults made explicit."""
    out = {
        "lattice": m.lattice.value,
        "states": list(m.states),
        "programs": {name: prel_to_entries(rel) for name, rel in m.programs.items()},
        "tests": {name: pset_to_json(test) for name, test in m.tests.items()},
    }
    if m.test_carrier is not None:
        out["test_carrier"] = [elem_to_json(e) for e in m.test_carrier]
    return out


def model_to_text(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2)
