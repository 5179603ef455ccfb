"""Tests of the benchmark itself: inputs, reference, failure classes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import calib, procs, reference as ref, run, trace, verify, workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
DATA = ROOT / "tests" / "data"


def _pkat(argv):
    from pkat.cli import main

    _, code, out, err = trace.call_main(main, argv)
    return code, out, err


# ---------------------------------------------------------------------------
# Input generation


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    a = workloads.build(workload, 7, str(first))
    b = workloads.build(workload, 7, str(second))
    c = workloads.build(workload, 8, str(other))

    def strip(reqs, d):
        return json.loads(json.dumps(reqs).replace(str(d), "<dir>"))

    assert strip(a, first) == strip(b, second)
    assert strip(a, first) != strip(c, other)
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert len(a) == len(c)  # the composition does not depend on the seed


def test_mutants_keep_terms_well_sorted(tmp_path):
    reqs = workloads.build("random-equiv", 3, str(tmp_path))
    for req in reqs:
        for text in (req["t1"], req["t2"]):
            assert workloads.show(ref.parse(text)) == text
    assert {r["law"] for r in reqs} == {True, False}


# ---------------------------------------------------------------------------
# The reference semantics against the golden files


def _grid(states, cells):
    n = len(states)
    widths = [max(len(states[j]), *(len(cells[i * n + j]) for i in range(n))) for j in range(n)]
    label = max(map(len, states))
    lines = [" " * label + "  " + "  ".join(s.ljust(w) for s, w in zip(states, widths))]
    for i, u in enumerate(states):
        lines.append(u.ljust(label) + "  " + "  ".join(
            cells[i * n + j].ljust(widths[j]) for j in range(n)))
    return "\n".join(line.rstrip() for line in lines)


def test_reference_reproduces_eval_golden():
    model = ref.Model(json.loads((DATA / "two_state.json").read_text()))
    rel = model.evaluate(ref.parse("r;r"))
    pairs = [model.pair(rel, i, j) for i in range(model.n) for j in range(model.n)]
    text = "\n".join([
        "term: r;r",
        "lattice: lukasiewicz3",
        _grid(model.states, [f"({ref.chain_text(t)},{ref.chain_text(f)})" for t, f in pairs]),
        "classification:",
        _grid(model.states, [ref.classify(t, f) for t, f in pairs]),
    ]) + "\n"
    assert text == (GOLDEN / "eval_rr.txt").read_text()


def _instance(assignment):
    """A one-state model in which each law variable is a relation."""
    doc = {"lattice": "lukasiewicz3", "states": ["w1"], "programs": {}, "tests": {}}
    for var, (t, f) in assignment.items():
        t, f = ref.chain_text(t), ref.chain_text(f)
        if var in ref.TEST_VARS:
            doc["tests"][var] = {"w1": [t, f]}
        else:
            doc["programs"][var] = [["w1", "w1", t, f]]
    return ref.Model(doc)


def test_reference_reproduces_axiom_golden():
    space = ref.weight_space("lukasiewicz3")
    lines = ["axiom suite: lattice=lukasiewicz3 states=1 mode=exhaustive"]
    failing = []
    for ident, slug, formula in ref.CATALOG:
        names = ref.law_vars(formula)
        checked, witness = 0, None
        for values in product(space, repeat=len(names)):
            checked += 1
            assignment = dict(zip(names, values))
            ok, found = ref.law_holds(formula, _instance(assignment))
            if not ok:
                witness = assignment, found
                break
        status = "holds" if witness is None else "fails"
        if witness is not None:
            failing.append(ident)
        row = f"({ident:>3}) {slug:<20} {formula:<28} {status:<5} checked={checked}"
        if witness is not None:
            assignment, (i, j, lhs, rhs) = witness
            model = _instance(assignment)

            def show(pair):
                return f"({ref.chain_text(pair[0])},{ref.chain_text(pair[1])})"

            parts = " ".join(f"{v}={{(w1,w1): {show(w)}}}" for v, w in assignment.items())
            row += (f"  witness {parts} at (w1,w1): lhs={show(model.pair(lhs, i, j))} "
                    f"rhs={show(model.pair(rhs, i, j))}")
        lines.append(row)
    core_ok = not set(failing) & set(ref.CORE)
    refuted = ",".join(str(i) for i in failing if i in ref.BOOLEAN) or "none"
    lines.append("core axioms: " + ("all hold" if core_ok else "FAILURES above")
                 + "; boolean axioms refuted: " + refuted)
    assert "\n".join(lines) + "\n" == (GOLDEN / "axioms_luka3_exhaustive.txt").read_text()


def test_star_is_the_power_join():
    model = ref.Model(json.loads((DATA / "two_state.json").read_text()))
    r = model.programs["r"]
    acc, rounds = ref.star(r, model.top)
    manual = ref.one(2, model.top)
    power = manual
    for _ in range(4):
        power = ref.dot(power, r)
        manual = ref.plus(manual, power)
    assert acc == manual and 1 <= rounds <= 3


# ---------------------------------------------------------------------------
# Failure classes


@pytest.mark.parametrize("code, stderr, timed_out, error", [
    (1, "Traceback (most recent call last):\n  ...\nRecursionError", False, "traceback"),
    (0, "Traceback (most recent call last):\n", False, "traceback"),
    (2, "term error: 1:1: expected a term", False, "exit code 2"),
    (3, "model error: invalid JSON", False, "exit code 3"),
    (-9, "", True, "timeout"),
    (0, "", False, "output is not JSON"),
])
def test_failure_classes(code, stderr, timed_out, error):
    assert verify.outcome_error(code, "not json", stderr, timed_out)[0] == error


def test_verdict_exit_codes_are_not_failures():
    assert verify.outcome_error(1, '{"status": "fails"}', "", False) == (None, {"status": "fails"})
    assert verify.outcome_error(0, "{}", "", False) == (None, {})


def test_timeout_kills_and_reaps(tmp_path):
    out = procs.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                      dict(os.environ), str(tmp_path), timeout=0.3)
    assert out.timed_out and out.seconds < 10
    error, _ = verify.outcome_error(out.returncode, out.stdout, out.stderr, out.timed_out)
    assert error == "timeout"


def test_traceback_with_exit_1_counts_as_failed():
    checker = run.Checker()
    req = {"id": 0, "kind": "eval", "argv": ["eval"]}
    checker.add(req, 1, "", "Traceback (most recent call last):\nValueError", False, "x")
    assert checker.attempted == 1 and len(checker.failures) == 1


# ---------------------------------------------------------------------------
# The verifier rejects wrong outputs


def _request(tmp_path, workload, kind, seed=5):
    reqs = workloads.build(workload, seed, str(tmp_path))
    return next(r for r in reqs if r["kind"] == kind)


@pytest.mark.parametrize("kind", ["eval", "star", "classify", "hoare"])
def test_verifier_accepts_pkat_and_rejects_a_changed_entry(kind, tmp_path):
    req = _request(tmp_path, "big-model", kind)
    code, out, _ = _pkat(req["argv"])
    payload = json.loads(out)
    verifier = verify.Verifier()
    assert verifier.check(req, payload, code) is None
    if kind == "star":
        payload["iterations"] += 1
    elif kind == "classify":
        row = payload["classification"][0]
        row[2] = "vague" if row[2] != "vague" else "consistent"
    elif kind == "hoare":
        payload["status"] = "holds" if payload["status"] == "fails" else "fails"
    else:
        entry = payload["entries"][0]
        entry[2] = "top" if entry[2] != "top" else "bot"
    assert verifier.check(req, payload, code) is not None


def test_verifier_checks_countermodels_and_laws(tmp_path):
    reqs = workloads.build("random-equiv", 5, str(tmp_path))
    verifier = verify.Verifier()
    law = next(r for r in reqs if r["law"])
    code, out, _ = _pkat(law["argv"])
    payload = json.loads(out)
    assert verifier.check(law, payload, code) is None
    payload["samples"] -= 1
    assert "samples" in verifier.check(law, payload, code)

    for req in reqs:
        code, out, _ = _pkat(req["argv"])
        payload = json.loads(out)
        if payload["status"] == "fails":
            break
    assert verifier.check(req, payload, code) is None
    payload["witness"]["lhs"] = payload["witness"]["rhs"]
    assert verifier.check(req, payload, code) is not None


def test_verifier_checks_axiom_counts_and_witnesses(tmp_path):
    req = next(r for r in workloads.build("axiom-suite", 5, str(tmp_path))
               if r["lattice"] == "lukasiewicz3" and r["samples"] is None)
    code, out, _ = _pkat(req["argv"])
    payload = json.loads(out)
    verifier = verify.Verifier()
    assert verifier.check(req, payload, code) is None
    wrong = json.loads(out)
    wrong["axioms"][0]["samples"] = 728
    assert "expected 729" in verifier.check(req, wrong, code)
    wrong = json.loads(out)
    wrong["axioms"][-1]["witness"]["lhs"] = ["top", "bot"]
    assert verifier.check(req, wrong, code) is not None


# ---------------------------------------------------------------------------
# Contract with BENCHMARK.json


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-model", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_layer_metrics_cover_every_per_layer_name():
    names = set(trace.layer_metrics({}, 0, 0)) | {"trace.overhead_ratio"}
    names |= {f"{op}.{lat}" for op in ("lattice.meet_ns", "twist.wjoin_ns",
                                       "twist.wmeet_ns", "twist.classify_ns")
              for lat in ("luk3", "godel")}
    assert names == set(run.PER_LAYER)


def test_reference_reads_every_value_spelling():
    assert [ref.value(v) for v in (0, 1, "bot", "u", "top", "0.25", "3/8")] == [
        0, 1, 0, Fraction(1, 2), 1, Fraction(1, 4), Fraction(3, 8)]
    with pytest.raises(ref.Mismatch):
        ref.value(True)


def test_reference_process_runs_without_pkat(tmp_path):
    assert "pkat" not in calib.REF_SCRIPT
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = procs.spawn([sys.executable, "-c", calib.REF_SCRIPT], env, str(tmp_path), 60)
    assert out.returncode == 0 and out.stderr == ""
    assert calib.sample() > 0
