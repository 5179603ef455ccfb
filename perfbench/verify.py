"""Classify each request's outcome and check its output against the reference.

A request fails on a timeout, a traceback (whatever the exit code), an
exit code outside {0, 1}, output that is not JSON, or a verdict or
matrix the reference semantics rejects.  A failing exit code 1 is a
verdict only when the output says ``fails``.
"""

from __future__ import annotations

import json

from . import reference as ref
from .workloads import space_size

TRACEBACK = "Traceback (most recent call last)"


def outcome_error(returncode, stdout: str, stderr: str, timed_out: bool):
    """The failure class of a finished request, and its parsed output.

    Returns ``(error, payload)``: ``error`` is None when the process ended
    like a verdict and printed JSON, else a short reason.
    """
    if timed_out:
        return "timeout", None
    if TRACEBACK in stderr:
        return "traceback", None
    if returncode not in (0, 1):
        return f"exit code {returncode}", None
    try:
        return None, json.loads(stdout)
    except ValueError:
        return "output is not JSON", None


class Verifier:
    """Checks outputs; caches one reference model per model file."""

    def __init__(self):
        self._models: dict[str, ref.Model] = {}
        self.missed = 0

    def check(self, req: dict, payload, returncode: int) -> str | None:
        """None when the output is right, else the reason it is not."""
        try:
            getattr(self, "_" + req["kind"])(req, payload, returncode)
        except ref.Mismatch as exc:
            return str(exc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    def _model(self, path: str) -> ref.Model:
        if path not in self._models:
            with open(path, encoding="utf-8") as handle:
                self._models[path] = ref.Model(json.load(handle))
        return self._models[path]

    # -- matrices ----------------------------------------------------------

    def _eval(self, req, payload, code):
        model = self._model(req["model"])
        rel = model.evaluate(ref.parse(req["arg"]))
        _expect(code == 0, f"eval exited {code}")
        _same_entries(model, rel, payload["entries"])
        _same_classes(model, rel, payload["classification"])

    def _star(self, req, payload, code):
        model = self._model(req["model"])
        rel, rounds = ref.star(model.programs[req["arg"]], model.top)
        _expect(code == 0, f"star exited {code}")
        _same_entries(model, rel, payload["entries"])
        _expect(payload["iterations"] == rounds,
                f"star took {payload['iterations']} rounds, power-join stops at {rounds}")

    def _classify(self, req, payload, code):
        model = self._model(req["model"])
        name = req["arg"]
        rel = model.programs.get(name) or model.tests[name]
        _expect(code == 0, f"classify exited {code}")
        _same_classes(model, rel, payload["classification"])

    def _hoare(self, req, payload, code):
        model = self._model(req["model"])
        pre, prog, post = (model.evaluate(ref.parse(t)) for t in req["arg"])
        lhs = ref.dot(pre, prog)
        rhs = ref.dot(lhs, post)
        holds = ref.leq(lhs, rhs)
        _expect_status(payload, code, holds)
        if not holds:
            i, j = _entry_at(model, payload["witness"]["entry"])
            lw, rw = model.pair(lhs, i, j), model.pair(rhs, i, j)
            _same_pair(payload["witness"]["lhs"], lw, "triple lhs")
            _same_pair(payload["witness"]["rhs"], rw, "triple rhs")
            _expect(not (lw[0] <= rw[0] and lw[1] >= rw[1]),
                    "witness entry of a failing triple satisfies the triple")

    # -- verdicts ----------------------------------------------------------

    def _equiv(self, req, payload, code):
        status = payload["status"]
        if status == "holds":
            _expect(code == 0, f"holds verdict exited {code}")
            _expect(payload["samples"] == req["samples"],
                    f"holds after {payload['samples']} of {req['samples']} samples")
            _expect(payload["seed"] == req["seed"], "verdict reports another seed")
            if not req["law"]:
                self.missed += 1
            return
        _expect(status == "fails" and code == 1, f"status {status!r} with exit {code}")
        _expect(1 <= payload["samples"] <= req["samples"], "sample count out of range")
        witness = payload["witness"]
        model = ref.Model(witness["model"])
        i, j = _entry_at(model, witness["entry"])
        lw = model.pair(model.evaluate(ref.parse(req["t1"])), i, j)
        rw = model.pair(model.evaluate(ref.parse(req["t2"])), i, j)
        _same_pair(witness["lhs"], lw, "countermodel lhs")
        _same_pair(witness["rhs"], rw, "countermodel rhs")
        _expect(lw != rw, "countermodel does not separate the terms")
        _expect(req["law"] is False, "a catalog law instance was refuted")

    def _axioms(self, req, payload, code):
        n, lattice = req["states"], req["lattice"]
        exhaustive = req["samples"] is None
        _expect(payload["mode"] == ("exhaustive" if exhaustive else "random"),
                f"mode {payload['mode']!r}")
        rows = {row["axiom"]: row for row in payload["axioms"]}
        _expect(sorted(rows) == sorted(ref.CORE + ref.BOOLEAN), "axiom list differs")
        size = space_size(lattice, req["grid"])
        for ident, _, formula in ref.CATALOG:
            row = rows[ident]
            if ident in ref.BOOLEAN:
                self._boolean_row(row, ident, formula, lattice, n, size)
                continue
            _expect(row["status"] == "holds", f"core axiom {ident} {row['status']}")
            want = ref.exhaustive_count(formula, size, n) if exhaustive else req["samples"]
            _expect(row["samples"] == want,
                    f"axiom {ident} checked {row['samples']} instances, expected {want}")
            _expect(row["seed"] == req["seed"], f"axiom {ident} reports another seed")
        _expect(code == 0, f"all core axioms hold but exit code is {code}")

    @staticmethod
    def _boolean_row(row, ident, formula, lattice, n, size):
        if lattice == "bool2":
            _expect(row["status"] == "holds", f"axiom {ident} refuted on bool2")
            _expect(row["samples"] == size**n, f"axiom {ident} searched {row['samples']}")
            return
        _expect(row["status"] == "fails", f"axiom {ident} not refuted off bool2")
        witness = row["witness"]
        entries = witness["assignment"]["a"]
        states = list(dict.fromkeys(u for u, _, _, _ in entries))
        model = ref.Model({"lattice": lattice, "states": states, "programs": {"a": entries}})
        lhs_text, rhs_text = formula.split("=")
        i, j = _entry_at(model, witness["entry"])
        lw = model.pair(model.evaluate(ref.parse(lhs_text)), i, j)
        rw = model.pair(model.evaluate(ref.parse(rhs_text)), i, j)
        _same_pair(witness["lhs"], lw, f"axiom {ident} lhs")
        _same_pair(witness["rhs"], rw, f"axiom {ident} rhs")
        _expect(lw != rw, f"axiom {ident} witness does not refute it")


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise ref.Mismatch(message)


def _expect_status(payload, code, holds: bool) -> None:
    want = "holds" if holds else "fails"
    _expect(payload["status"] == want, f"status {payload['status']!r}, reference {want!r}")
    _expect(code == (0 if holds else 1), f"{want} verdict exited {code}")


def _entry_at(model: ref.Model, entry) -> tuple[int, int]:
    u, v = entry
    return model.index[u], model.index[v]


def _same_pair(printed, pair, what: str) -> None:
    got = (ref.value(printed[0]), ref.value(printed[1]))
    _expect(got == pair, f"{what} is {got}, reference {pair}")


def _same_entries(model: ref.Model, rel: ref.Rel, entries) -> None:
    n = model.n
    _expect(len(entries) == n * n, f"{len(entries)} entries for {n} states")
    for k, (u, v, tt, ff) in enumerate(entries):
        i, j = divmod(k, n)
        _expect((u, v) == (model.states[i], model.states[j]), f"entry {k} is ({u}, {v})")
        _same_pair((tt, ff), model.pair(rel, i, j), f"entry ({u}, {v})")


def _same_classes(model: ref.Model, rel: ref.Rel, rows) -> None:
    n = model.n
    _expect(len(rows) == n * n, f"{len(rows)} classes for {n} states")
    for k, (u, v, label) in enumerate(rows):
        i, j = divmod(k, n)
        _expect((u, v) == (model.states[i], model.states[j]), f"class {k} is ({u}, {v})")
        want = ref.classify(*model.pair(rel, i, j))
        _expect(label == want, f"({u}, {v}) classified {label}, reference {want}")
