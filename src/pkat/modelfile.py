"""The model-file reader: a document (format in ``plts``) to a
``plts.Model`` of ``relp.PRel``s on one table, each distinct value read
once.  ``load_model`` reads a document's text and ``_read_model`` a file.
Of the commands only those given ``--model`` import this module:
``views`` always, ``checks`` in its ``--model`` branches.
"""

from __future__ import annotations

import json
import re

from .errors import CarrierError, LatticeMismatchError, ModelError, quoted
from .lattice import LatticeId, bottom, elem, top
from .plts import Model
from .relp import from_cells, value_table

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def load_model(document: str | bytes) -> Model:
    """The model a document describes."""
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


def _read_model(path: str) -> Model:
    """The model in the file at ``path``; a file that cannot be read is a ``ModelError``."""
    try:
        with open(path, "rb") as handle:
            document = handle.read()
    except OSError as exc:
        if exc.filename is None:
            raise ModelError(str(exc)) from exc
        raise ModelError(f"[Errno {exc.errno}] {exc.strerror}: {quoted(path)}") from exc
    return load_model(document)


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

    read = _Reader(lattice, states)
    programs: dict[str, dict[int, tuple[int, int]]] = {}
    for name, items in _named_section(raw.get("programs"), "programs").items():
        _check_name(name, programs, {})
        if not isinstance(items, list):
            raise ModelError(f"program {name!r}: expected an array of entries")
        programs[name] = read.cells(f"program {name!r}", _quads(f"program {name!r}", items))

    tests: dict[str, dict[int, tuple[int, int]]] = {}
    for name, body in _named_section(raw.get("tests"), "tests").items():
        _check_name(name, programs, tests)
        tests[name] = read.test(f"test {name!r}", body, carrier)

    values = value_table(read.values)
    rank = {v: i for i, v in enumerate(values)}
    ranks = [rank[v] for v in read.values]  # by slot
    relations = [{name: from_cells(lattice, states, values, c, ranks) for name, c in part.items()}
                 for part in (programs, tests)]
    return Model(lattice, states, *relations, carrier)


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


def _quads(owner, items):
    """Each entry [from, to, tt, ff] of ``items`` as (from, to, [tt, ff])."""
    for item in items:
        if not isinstance(item, list) or len(item) != 4:
            raise ModelError(f"{owner}: entries are [from, to, tt, ff], got {item!r}")
        yield item[0], item[1], item[2:]


class _Reader:
    """Reads the cells of one document: a cell is its row-major index and
    the slots of its two values in ``values``.  Each distinct ``(type(x), x)``
    goes through ``lattice.elem`` once, so ``1``, ``"1"``, ``true`` and
    ``1.0`` are each read, and refused, as they would be alone."""

    def __init__(self, lattice, states):
        self.lattice, self.states, self.memo, self.values = lattice, states, {}, []
        self.index = {s: i for i, s in enumerate(states)}

    def value(self, x) -> int:
        key = type(x), x
        try:
            return self.memo[key]
        except (KeyError, TypeError):  # new, or unhashable (which elem refuses)
            self.values.append(elem(self.lattice, x).value)
            self.memo[key] = slot = len(self.values) - 1
            return slot

    def cells(self, owner, entries, test=False) -> dict[int, tuple[int, int]]:
        """The cells of (from, to, [tt, ff]) ``entries``, by row-major index."""
        cells, index, n = {}, self.index, len(self.states)
        for u, v, pair in entries:
            try:
                i, j = index[u], index[v]
            except (KeyError, TypeError):  # undeclared, or unhashable (never a name)
                s = v if u in self.states else u
                raise ModelError(f"{owner}: unknown state {s!r}") from None
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ModelError(f"{owner}: a weight is a two-element [tt, ff] array, got {pair!r}")
            try:
                slots = self.value(pair[0]), self.value(pair[1])
            except (CarrierError, LatticeMismatchError) as exc:
                raise ModelError(f"{owner}: {exc}") from exc
            if test and i != j:
                raise ModelError(f"{owner}: entry ({u!r}, {v!r}) is off the diagonal")
            k = i * n + j
            if k in cells:
                what = f"for state {u!r}" if test else f"({u!r}, {v!r})"
                raise ModelError(f"{owner}: duplicate entry {what}")
            cells[k] = slots
        return cells

    def test(self, owner, body, carrier) -> dict[int, tuple[int, int]]:
        """The diagonal cells of a test, as a state map or an entry array."""
        if not isinstance(body, (dict, list)):
            raise ModelError(f"{owner}: expected a state map or an entry array")
        entries = _quads(owner, body) if isinstance(body, list) else (
            (s, s, pair) for s, pair in body.items())
        cells = self.cells(owner, entries, test=True)
        if carrier is not None:  # checked state by state, once every entry is read
            allowed = {e.value for e in carrier}
            for k in sorted(cells):
                if not {self.values[slot] for slot in cells[k]} <= allowed:
                    state = self.states[k // (len(self.states) + 1)]
                    raise ModelError(
                        f"{owner}: weight at {state!r} outside the declared test carrier")
        return cells
