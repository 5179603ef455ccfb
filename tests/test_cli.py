import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import pkat
import pkat.cli
from pkat.cli import main
from pkat.lattice import bottom, elem, elem_to_json, top
from pkat.plts import Model, load_model, model_to_dict
from pkat.relp import PRel, format_grid, format_prel, prel_to_entries
from pkat.setp import PSet, pset_to_json
from pkat.twist import Weight, classify, format_weight, weight_to_json

from helpers import B2, GD, L3, oracle_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODEL = str(pathlib.Path(__file__).parent / "data" / "two_state.json")
GODEL_MODEL = str(pathlib.Path(__file__).parent / "data" / "godel_three_state.json")


def test_eval_ok(capsys):
    code, out, err = run(capsys, "eval", "--model", MODEL, "--term", "r;r")
    assert code == 0 and err == ""
    assert "(top,u)" in out and "inconsistent" in out


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--model", MODEL, "--term", "r;r", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["term"] == "r;r"
    assert ["w1", "w1", "top", "u"] in payload["entries"]
    assert ["w1", "w1", "inconsistent"] in payload["classification"]


def test_eval_unicode(capsys):
    code, out, _ = run(capsys, "eval", "--model", MODEL, "--term", "r", "--unicode")
    assert code == 0 and "⊤" in out


def test_star_reports_iterations(capsys):
    code, out, _ = run(capsys, "star", "--model", MODEL, "--program", "r")
    assert code == 0
    assert "iterations:" in out
    code, out, _ = run(capsys, "star", "--model", MODEL, "--program", "r", "--json")
    payload = json.loads(out)
    assert payload["iterations"] >= 1


def test_equiv_holds_exit_zero(capsys):
    code, out, _ = run(
        capsys, "equiv", "--model", MODEL, "--t1", "1 + r;r*", "--t2", "r*"
    )
    assert code == 0 and "status: holds" in out


def test_equiv_fails_exit_one(capsys):
    code, out, _ = run(capsys, "equiv", "--model", MODEL, "--t1", "r", "--t2", "r;r")
    assert code == 1 and "status: fails" in out and "lhs=" in out


def test_equiv_random_mode(capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "--lattice",
        "lukasiewicz3",
        "--states",
        "2",
        "--random",
        "50",
        "--seed",
        "0",
        "--t1",
        "p;q",
        "--t2",
        "q;p",
    )
    assert code == 1 and "countermodel" in out


def test_equiv_random_holds_message(capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "--lattice",
        "lukasiewicz3",
        "--states",
        "1",
        "--random",
        "20",
        "--seed",
        "1",
        "--t1",
        "p + p",
        "--t2",
        "p",
    )
    assert code == 0 and "no countermodel found in 20 samples" in out


def test_equiv_random_needs_flags(capsys):
    code, _, err = run(capsys, "equiv", "--t1", "p", "--t2", "p")
    assert code == 2 and "random mode" in err


def test_equiv_with_an_empty_model_path_reads_it(capsys):
    code, out, err = run(capsys, "equiv", "--model", "", "--t1", "p", "--t2", "p")
    assert (code, out) == (3, "")
    assert err == "model error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("option, value", [("--lattice", "bool2"), ("--states", "1"),
                                           ("--random", "3"), ("--seed", "0"), ("--tests", ""),
                                           ("--godel-grid", "0.5")])
def test_equiv_refuses_a_random_mode_option_with_a_model(capsys, option, value):
    # Refused before the model is read: the path names no file.
    code, out, err = run(capsys, "equiv", "--model", "missing.json", "--t1", "r", "--t2", "r",
                         option, value)
    assert (code, out) == (2, "")
    assert err == f"engine error: {option} applies to random mode, not --model\n"


def test_axioms_table_exit_zero(capsys):
    code, out, _ = run(
        capsys, "axioms", "--lattice", "lukasiewicz3", "--states", "1", "--exhaustive"
    )
    assert code == 0
    assert out.count("holds") == 19
    assert out.count("fails") == 2
    assert "witness a={(w1,w1): (u,u)}" in out


def test_axioms_random_mode(capsys):
    code, out, _ = run(
        capsys,
        "axioms",
        "--lattice",
        "godel",
        "--states",
        "2",
        "--samples",
        "20",
        "--seed",
        "4",
    )
    assert code == 0 and "mode=random" in out


def test_axioms_json(capsys):
    code, out, _ = run(
        capsys,
        "axioms",
        "--lattice",
        "bool2",
        "--states",
        "1",
        "--exhaustive",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["axioms"]) == 21
    assert all(v["status"] == "holds" for v in payload["axioms"])


def test_axioms_space_guard_is_usage_error(capsys):
    code, _, err = run(
        capsys, "axioms", "--lattice", "lukasiewicz3", "--states", "3", "--exhaustive"
    )
    assert code == 2 and "exceeds" in err


@pytest.mark.parametrize("argv, message", [
    (("--lattice", "lukasiewicz3", "--states", "39"),
     "exhaustive space of 9^4563 instantiations exceeds 1000000"),
    (("--lattice", "lukasiewicz3", "--states", "100"),
     "exhaustive space of 9^30000 instantiations exceeds 1000000"),
    (("--lattice", "bool2", "--states", "47", "--samples", "1"),
     "work of 2 x 47-state instances exceeds 10000000 kernel steps"),
], ids=["luka3-39", "luka3-100", "bool2-47-search"])
def test_a_huge_space_is_refused_in_one_line(capsys, argv, message):
    code, out, err = run(capsys, "axioms", *argv)
    assert (code, out, err) == (2, "", f"engine error: {message}\n")


def test_the_witness_search_has_no_space_of_its_own_to_refuse(capsys):
    # 25^7 candidate tests, of which the search checks at most 25.  The walk
    # fails at its second test: (0,1) on the diagonal but (1/4,3/4) at w7.
    code, out, err = run(capsys, "axioms", "--lattice", "godel", "--states", "7",
                         "--samples", "1")
    assert (code, err) == (0, "")
    for number in (219, 220):
        assert any(row.startswith(f"({number})") and " fails checked=2  witness " in row
                   and "(w7,w7): (0.25,0.75)" in row and " at (w7,w7): " in row
                   for row in out.splitlines())


def test_bool2_searches_its_tests_without_the_walk(capsys):
    code, out, err = run(capsys, "axioms", "--lattice", "bool2", "--states", "14",
                         "--samples", "1")
    assert (code, err) == (0, "")
    for number in (219, 220):
        assert any(row.startswith(f"({number})") and " holds checked=16384" in row
                   for row in out.splitlines())


@pytest.mark.parametrize("digits", [300, 4300])
@pytest.mark.parametrize("argv", [
    ("axioms", "--lattice", "bool2", "--states", "{N}"),
    ("axioms", "--lattice", "bool2", "--states", "{N}", "--samples", "1"),
    ("axioms", "--lattice", "bool2", "--states", "1", "--samples", "{N}"),
    ("equiv", "--t1", "p", "--t2", "p", "--lattice", "bool2", "--states", "{N}", "--random", "1"),
    ("equiv", "--t1", "p", "--t2", "p", "--lattice", "bool2", "--states", "1", "--random", "{N}"),
], ids=["axioms-states", "axioms-random-states", "axioms-samples", "equiv-states",
        "equiv-samples"])
def test_a_huge_count_is_refused_in_one_short_line(capsys, argv, digits):
    code, out, err = run(capsys, *(a.replace("{N}", "9" * digits) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("engine error: ") and err.count("\n") == 1 and len(err) < 120
    assert "e+" in err  # the count is printed as %.2e, not in full


@pytest.mark.parametrize("argv", [
    ("axioms", "--lattice", "bool2", "--states", "{N}"),
    ("axioms", "--lattice", "bool2", "--states", "1", "--samples", "{N}"),
    ("axioms", "--lattice", "bool2", "--states", "1", "--seed", "{N}"),
    ("equiv", "--t1", "p", "--t2", "p", "--lattice", "bool2", "--states", "{N}", "--random", "1"),
    ("equiv", "--t1", "p", "--t2", "p", "--lattice", "bool2", "--states", "1", "--random", "{N}"),
    ("equiv", "--t1", "p", "--t2", "p", "--random", "1", "--seed", "{N}"),
], ids=["axioms-states", "axioms-samples", "axioms-seed", "equiv-states", "equiv-random",
        "equiv-seed"])
@pytest.mark.parametrize("text, quoted", [
    ("1" * 4301, "'" + "1" * 40 + "'..."),  # more digits than int() reads
    ("x" * 41, "'" + "x" * 40 + "'..."),
    ("x" * 40, "'" + "x" * 40 + "'"),  # quoted in full, as type=int quotes it
    ("1x", "'1x'"),
], ids=["4301-digits", "41-chars", "40-chars", "short"])
def test_a_count_that_is_no_integer_is_quoted_at_most_40_characters(capsys, argv, text, quoted):
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{N}", text) for a in argv])
    last = capsys.readouterr().err.splitlines()[-1]
    option = argv[argv.index("{N}") - 1]
    assert exc.value.code == 2 and len(last) < 120
    assert last.endswith(f": error: argument {option}: invalid int value: {quoted}")


def _argparse_choice_error(text: str) -> str:
    """What argparse itself says of a ``--lattice`` that is no choice."""
    reference = argparse.ArgumentParser(exit_on_error=False)
    reference.add_argument("--lattice", choices=[l.value for l in pkat.LatticeId])
    with pytest.raises(argparse.ArgumentError) as exc:
        reference.parse_args(["--lattice", text])
    return str(exc.value)


@pytest.mark.parametrize("argv, code, message", [
    (("axioms", "--lattice", "{T}", "--states", "1"), 2, None),
    (("equiv", "--t1", "p", "--t2", "p", "--lattice", "{T}", "--states", "1", "--random", "1"),
     2, None),
    (("eval", "--model", MODEL, "--term", "r;{T}"), 2, "sort error: undeclared atom {q}"),
    (("classify", "--model", MODEL, "--name", "{T}"), 3, "model error: unknown relation {q}"),
    (("star", "--model", MODEL, "--program", "{T}"), 3, "model error: unknown program {q}"),
    (("eval", "--model", "{T}", "--term", "r"), 3,
     "model error: [Errno 2] No such file or directory: {q}"),
], ids=["axioms-lattice", "equiv-lattice", "undeclared-atom", "classify-name", "star-program",
        "model-path"])
@pytest.mark.parametrize("text", ["nosuch", "n" * 5000], ids=["short", "5000-chars"])
def test_an_error_quotes_the_users_text_at_most_40_characters(capsys, argv, code, message, text):
    try:
        got = main([a.replace("{T}", text) for a in argv])
    except SystemExit as exc:
        got = exc.code
    last = capsys.readouterr().err.splitlines()[-1]
    assert got == code
    if len(text) > 40:
        assert len(last) < 120 and repr(text[:40]) + "..." in last
    elif message is None:  # argparse's own message
        assert last == f"pkat {argv[0]}: error: {_argparse_choice_error(text)}"
    else:
        assert last == message.format(q=repr(text))


@pytest.mark.parametrize("argv, loaded", [
    ((), []),
    (("star", "--model", MODEL, "--program", "r"), []),
    (("classify", "--model", MODEL, "--name", "p"), []),
    (("eval", "--model", MODEL, "--term", "p;r*"), ["pkat.syntax"]),
    (("hoare", "--model", MODEL, "--pre", "p", "--prog", "r", "--post", "1"),
     ["pkat.engine", "pkat.syntax"]),
    (("equiv", "--model", MODEL, "--t1", "r + r", "--t2", "r"), ["pkat.engine", "pkat.syntax"]),
    (("equiv", "--t1", "r*;r* + r*", "--t2", "r*", "--lattice", "lukasiewicz3", "--states", "2",
      "--random", "20", "--seed", "1"), ["pkat.bitslice", "pkat.engine", "pkat.syntax"]),
], ids=["import", "star", "classify", "eval", "hoare", "equiv-model", "equiv-random"])
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pkat.__file__).parents[1]))
    probe = ("import sys, pkat.cli\n"
             "if sys.argv[1:]: pkat.cli.main(sys.argv[1:])\n"
             "print(sorted({'pkat.syntax', 'pkat.engine', 'pkat.bitslice'} & set(sys.modules)),"
             " file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stderr == f"{loaded}\n" and (done.stdout != "") == bool(argv)


@pytest.mark.parametrize("argv, loaded", [
    ((), []),
    (("star", "--model", MODEL, "--program", "r"), ["pkat.modelfile"]),
    (("classify", "--model", MODEL, "--name", "p"), ["pkat.modelfile"]),
    (("eval", "--model", MODEL, "--term", "p;r*"), ["pkat.modelfile"]),
    (("hoare", "--model", MODEL, "--pre", "p", "--prog", "r", "--post", "1"),
     ["pkat.modelfile"]),
    (("equiv", "--model", MODEL, "--t1", "r + r", "--t2", "r"), ["pkat.modelfile"]),
    (("equiv", "--t1", "r*;r* + r*", "--t2", "r*", "--lattice", "lukasiewicz3", "--states", "2",
      "--random", "20", "--seed", "1"), []),
    (("axioms", "--lattice", "bool2", "--states", "1"), ["pkat.catalog"]),
], ids=["import", "star", "classify", "eval", "hoare", "equiv-model", "equiv-random", "axioms"])
def test_only_model_files_load_the_reader_and_only_axioms_the_catalog(argv, loaded):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pkat.__file__).parents[1]))
    probe = ("import sys, pkat.cli\n"
             "if sys.argv[1:]: pkat.cli.main(sys.argv[1:])\n"
             "print(sorted({'pkat.catalog', 'pkat.modelfile', 'pkat.setp'} & set(sys.modules)),"
             " file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stderr == f"{loaded}\n" and (done.stdout != "") == bool(argv)


# Each command's options, each with valid and invalid values ("--exhaustive" takes none).
_OPTIONS = {
    "eval": ["--model", "--term"],
    "star": ["--model", "--program"],
    "equiv": ["--model", "--t1", "--t2", "--lattice", "--states", "--random", "--seed", "--tests",
              "--godel-grid"],
    "axioms": ["--lattice", "--states", "--exhaustive", "--samples", "--seed", "--godel-grid"],
    "classify": ["--model", "--name"],
    "hoare": ["--model", "--pre", "--prog", "--post"],
}
_VALUES = {"--lattice": ["bool2", "godel", "nope", "x" * 50], "--states": ["2", "x", "-1"],
           "--random": ["3", "x"], "--seed": ["0", "1e3"], "--samples": ["5", ""],
           "--godel-grid": ["0,1/2,1"], "--tests": ["a,b"], "--exhaustive": []}
_EXTRA = ["-h", "--help", "--he", "--lat", "--sta", "--json", "--unicode", "--nope", "extra", "p"]


@st.composite
def _argvs(draw):
    """A command, or an unknown or no name, with some of its options in any
    order, then a few tokens of any kind."""
    command = draw(st.sampled_from([*_OPTIONS, "nope", None]))
    argv = [] if command is None else [command]
    for option in draw(st.permutations(_OPTIONS.get(command, []))):
        if draw(st.integers(0, 3)):  # most options are given
            values = _VALUES.get(option, ["p", "r;r*"])
            argv += [option] + ([draw(st.sampled_from(values))] if values else [])
    extra = draw(st.lists(st.sampled_from([*_EXTRA, *_OPTIONS]), max_size=2))
    return argv + extra if draw(st.booleans()) else argv


def _outcome(call):
    """What ``call()`` printed, and its result or its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
    return out.getvalue(), err.getvalue(), result


@settings(max_examples=150, deadline=None)
@example([])
@example(["--json"])
@example(["axioms", "--lat", "bool2", "--sta", "1"])
@example(["--json", "equiv", "--t1", "p", "--t2", "p"])  # an option before the command
@example(["equiv", "--t1", "star", "--t2", "eval", "--lattice", "bool2", "--states", "1",
          "--random", "2"])  # command names as option values
@example(["eval", "star", "--help"])  # two command names, and help
@given(_argvs())
def test_parsing_one_command_matches_the_full_tree(argv):
    ran = []
    handlers = {f"_cmd_{name}": lambda args: ran.append(args) or 0 for name in _OPTIONS}
    with patch.dict(pkat.cli.__dict__, handlers):
        got = _outcome(lambda: main(argv))
        want = _outcome(lambda: pkat.cli._build_parser().parse_args(argv))
    if ran:  # parsed: main ran the handler on the full tree's namespace
        assert got == ("", "", 0) and want[:2] == ("", "") and ran == [want[2]]
    else:
        assert got == want and want[2][0] == "exit"


def test_bitslice_loads_without_engine():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pkat.__file__).parents[1]))
    probe = "import sys, pkat.bitslice; print('pkat.engine' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout == "False\n"


def test_a_state_count_past_the_digit_limit_is_refused_in_one_line(capsys):
    # 3 * N^2 cells has more digits than str() converts, so the exponent is rounded.
    code, out, err = run(capsys, "axioms", "--lattice", "bool2", "--states", "1" * 2200)
    message = "exhaustive space of 2^3.70e+4398 instantiations exceeds 1000000"
    assert (code, out, err) == (2, "", f"engine error: {message}\n")


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--model", MODEL, "--name", "r")
    assert code == 0 and "inconsistent" in out
    code, out, _ = run(capsys, "classify", "--model", MODEL, "--name", "p", "--json")
    payload = json.loads(out)
    assert ["w1", "w1", "consistent"] in payload["classification"]
    code, _, err = run(capsys, "classify", "--model", MODEL, "--name", "zz")
    assert code == 3 and "unknown relation" in err


def test_hoare_command(capsys):
    code, out, _ = run(
        capsys,
        "hoare",
        "--model",
        MODEL,
        "--pre",
        "p",
        "--prog",
        "r",
        "--post",
        "1",
    )
    assert code == 0 and "status: holds" in out
    code, out, _ = run(
        capsys,
        "hoare",
        "--model",
        MODEL,
        "--pre",
        "p",
        "--prog",
        "r",
        "--post",
        "p",
    )
    assert code == 1 and "at (w1,w2)" in out


def test_term_error_exit_two(capsys):
    code, _, err = run(capsys, "eval", "--model", MODEL, "--term", "r +")
    assert code == 2 and "term error" in err


@pytest.mark.parametrize("option, argv", [
    ("term", ["eval", "--model", MODEL, "--term", "r;"]),
    ("t1", ["equiv", "--model", MODEL, "--t1", "r;", "--t2", "r;"]),
    ("t2", ["equiv", "--model", MODEL, "--t1", "r", "--t2", "r;"]),
    ("pre", ["hoare", "--model", MODEL, "--pre", "r;", "--prog", "r", "--post", "p"]),
    ("prog", ["hoare", "--model", MODEL, "--pre", "p", "--prog", "r;", "--post", "p"]),
    ("post", ["hoare", "--model", MODEL, "--pre", "p", "--prog", "r", "--post", "r;"]),
])
def test_term_error_names_its_option(capsys, option, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"term error: --{option}: 1:3: expected a term, found end of input\n"


def test_sort_error_exit_two(capsys):
    code, _, err = run(capsys, "eval", "--model", MODEL, "--term", "!r")
    assert code == 2 and "sort error" in err


def test_deep_terms_are_term_errors(capsys):
    depth = 3000
    for term in (
        "!" * depth + "p",
        "(" * depth + "r" + ")" * depth,
        ";".join(["r"] * depth),
    ):
        code, out, err = run(capsys, "eval", "--model", MODEL, "--term", term)
        assert code == 2 and out == ""
        assert err == "term error: term nests too deeply\n"


def test_godel_grid_outside_unit_interval_is_usage_error(capsys):
    grid = ("--godel-grid", "0,2")
    code, _, err = run(capsys, "axioms", "--lattice", "godel", "--states", "1",
                       "--samples", "5", *grid)
    assert code == 2 and "engine error" in err and "outside [0, 1]" in err
    code, _, err = run(capsys, "equiv", "--t1", "p;q", "--t2", "q;p", "--lattice",
                       "godel", "--states", "2", "--random", "5", *grid)
    assert code == 2 and "engine error" in err and "outside [0, 1]" in err


def test_huge_godel_grid_value_is_quoted(capsys):
    for value in ("1e999999", "1e99999999"):  # the second was never refused: 10**e was built
        grid = ("--godel-grid", f"0, {value}")
        message = f"engine error: bad --godel-grid value: '{value}' lies outside [0, 1]\n"
        for argv in (("axioms", "--lattice", "godel", "--states", "1"),
                     ("equiv", "--t1", "x", "--t2", "x", "--lattice", "godel", "--states", "1",
                      "--random", "2")):
            assert run(capsys, *argv, *grid) == (2, "", message)


@pytest.mark.parametrize("argv, work", [
    (("axioms", "--lattice", "godel", "--godel-grid", "0.5", "--states", "400", "--samples", "1"),
     "1 x 400-state"),
    (("axioms", "--lattice", "godel", "--godel-grid", "0.5", "--states", "400"), "1 x 400-state"),
    (("equiv", "--t1", "p;q", "--t2", "q;p", "--lattice", "godel", "--states", "400",
      "--random", "1"), "1 x 400-state"),
    (("axioms", "--lattice", "bool2", "--states", "1", "--samples", "1000000000"),
     "1000000000 x 1-state"),
    (("equiv", "--t1", "p", "--t2", "p", "--lattice", "bool2", "--states", "3",
      "--random", "1000000000"), "1000000000 x 3-state"),
], ids=["axioms-random-400", "axioms-exhaustive-400", "equiv-400", "axioms-1e9", "equiv-1e9"])
def test_unbounded_work_is_refused_in_one_line(capsys, argv, work):
    message = f"engine error: work of {work} instances exceeds 10000000 kernel steps\n"
    assert run(capsys, *argv) == (2, "", message)


def test_a_malformed_equation_is_named_before_its_work(capsys):
    # Both the terms and the 400 states are refused; the terms are named first.
    argv = ("equiv", "--t1", "!r", "--t2", "r", "--lattice", "bool2", "--states", "400",
            "--random", "1")
    assert run(capsys, *argv) == (2, "", "sort error: '!' applies only to tests\n")


@pytest.mark.parametrize("lattice", ["bool2", "lukasiewicz3"])
def test_godel_grid_off_the_godel_lattice_is_usage_error(capsys, lattice):
    message = f"engine error: a godel grid applies only to the godel lattice, not {lattice}\n"
    for argv in (("axioms", "--lattice", lattice, "--states", "1"),
                 ("equiv", "--t1", "x", "--t2", "x", "--lattice", lattice, "--states", "1",
                  "--random", "2")):
        assert run(capsys, *argv, "--godel-grid", "0.5") == (2, "", message)


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("no such luck")

    monkeypatch.setattr(pkat.cli, "_cmd_eval", broken)
    code, out, err = run(capsys, "eval", "--model", MODEL, "--term", "r")
    assert (code, out, err) == (70, "", "internal error: RuntimeError: no such luck\n")
    assert "Traceback" not in err


def test_model_errors_exit_three(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--model", "no_such.json", "--term", "r")
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"lattice": "nope", "states": ["s"]}')
    code, _, err = run(capsys, "eval", "--model", str(bad), "--term", "r")
    assert code == 3 and "unknown lattice" in err


def test_deeply_nested_model_is_model_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"lattice": "godel", "states": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = run(capsys, "eval", "--model", str(deep), "--term", "r")
    assert code == 3 and out == ""
    assert err == "model error: invalid JSON: document nests too deeply\n"


@pytest.mark.parametrize("weight, message", [
    ('"1e99999999"', "program 'r': '1e99999999' lies outside [0, 1]"),
    ('"1e-99999999"', "program 'r': '1e-99999999' has more than 4300 digits"),
    ("1" * 5000, "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["huge-exponent", "huge-negative-exponent", "5000-digit-integer"])
def test_unprintable_model_values_are_model_errors(capsys, tmp_path, weight, message):
    doc = tmp_path / "doc.json"
    doc.write_text('{"lattice": "godel", "states": ["w1"], "programs": {"r": [["w1", "w1", '
                   + weight + ', "0"]]}}')
    code, out, err = run(capsys, "eval", "--model", str(doc), "--term", "r")
    assert (code, out) == (3, "")
    assert err.startswith(f"model error: {message}") and err.count("\n") == 1


def test_model_that_is_not_utf8_is_model_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"lattice": "lukasiewicz3", "states": ["w1"]}\xff')
    code, out, err = run(capsys, "eval", "--model", str(bad), "--term", "1")
    assert code == 3 and out == ""
    assert err.startswith("model error: not UTF-8 text: ")


def test_non_scalar_weight_component_is_model_error(capsys, tmp_path):
    for component in (["top"], None, {}):
        for section in (
            {"programs": {"r": [["w1", "w1", "top", component]]}},
            {"tests": {"p": {"w1": [component, "bot"]}}},
        ):
            doc = tmp_path / "doc.json"
            doc.write_text(json.dumps({"lattice": "lukasiewicz3", "states": ["w1"], **section}))
            code, out, err = run(capsys, "eval", "--model", str(doc), "--term", "1")
            assert code == 3 and out == ""
            assert err.startswith("model error: ") and "is not a lattice value" in err


def test_json_output_stable(capsys):
    first = run(capsys, "axioms", "--lattice", "lukasiewicz3", "--states", "1",
                "--exhaustive", "--json")
    second = run(capsys, "axioms", "--lattice", "lukasiewicz3", "--states", "1",
                 "--exhaustive", "--json")
    assert first == second


def test_axioms_without_a_mode_flag_is_exhaustive(capsys):
    code, out, _ = run(capsys, "axioms", "--lattice", "bool2", "--states", "1")
    assert code == 0 and "mode=exhaustive" in out


def test_axioms_sample_count_must_be_positive(capsys):
    for count in ("0", "-5"):
        code, out, err = run(capsys, "axioms", "--lattice", "bool2", "--states", "1",
                             "--samples", count)
        assert code == 2 and out == ""
        assert err == "engine error: random mode needs a positive sample count\n"


def test_equiv_zero_counts_are_given_not_missing(capsys):
    equiv = ("equiv", "--t1", "r", "--t2", "r", "--lattice", "bool2")
    for states, samples, message in (("0", "1", "need at least one state"),
                                     ("-1", "1", "need at least one state"),
                                     ("-100", "1", "need at least one state"),
                                     ("1", "0", "need a positive sample count"),
                                     ("1", "-5", "need a positive sample count")):
        code, out, err = run(capsys, *equiv, "--states", states, "--random", samples)
        assert code == 2 and out == ""
        assert err == f"engine error: {message}\n"
    code, out, err = run(capsys, *equiv, "--states", "1")
    assert code == 2 and out == ""
    assert err == "engine error: random mode needs --lattice, --states and --random\n"


def test_axioms_exhaustive_and_samples_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--lattice", "bool2", "--states", "1", "--exhaustive",
              "--samples", "3"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_closed_stdout_is_not_an_error():
    # The read end is closed before the child writes, so the write always
    # fails with EPIPE.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pkat.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "pkat.cli", "eval", "--model", MODEL, "--term", "r;p"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("buffered", [False, True])
def test_failed_output_write_is_an_output_error(buffered):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pkat.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "pkat.cli", "eval", "--model", MODEL, "--term", "p;p"],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert child.returncode == 74
    # No traceback: one line naming the failure (ENOSPC on /dev/full).
    assert child.stderr.startswith(b"output error: [Errno 28]")
    assert child.stderr.count(b"\n") == 1


def test_eval_json_on_a_godel_model_matches_its_golden(capsys, golden_dir):
    # decimal and n/d values, defaulted entries, a list-form test, a test carrier
    argv = ["eval", "--model", GODEL_MODEL, "--term", "r + p;r* + s;!q", "--json"]
    for _ in range(2):
        assert run(capsys, *argv) == (0, (golden_dir / "eval_godel_json.txt").read_text(), "")


# --- renderers against their per-cell Weight forms ---------------------------

_RENDER_POOLS = {
    B2: [Fraction(0), Fraction(1)],
    L3: [Fraction(0), Fraction(1, 2), Fraction(1)],
    GD: [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
         Fraction(1, 10), Fraction(1)],
}


@st.composite
def _rendered(draw):
    """A relation, a set on its diagonal and a model holding both, all on a
    table with values the relation may not use."""
    lattice = draw(st.sampled_from(sorted(_RENDER_POOLS, key=lambda l: l.value)))
    value = st.sampled_from(_RENDER_POOLS[lattice])
    n = draw(st.integers(1, 3))
    states = ("a", "bb", "c")[:n]
    cells = draw(st.lists(st.tuples(value, value), min_size=n * n, max_size=n * n))
    weights = [Weight(elem(lattice, t), elem(lattice, f)) for t, f in cells]
    unused = draw(st.lists(value, max_size=3))
    rel = PRel(lattice, states, weights, values=unused)
    test = PSet(lattice, states, weights[::n + 1], rel.values)
    carrier = draw(st.none() | st.just((bottom(lattice), top(lattice))))
    model = Model(lattice, states, {"r": rel}, {"p": test.relation}, carrier, rel.values)
    return rel, test, model


def _oracle_entries(rel):
    return [[u, v, *weight_to_json(w)]
            for (u, v), w in zip(product(rel.states, repeat=2), oracle_weights(rel))]


@settings(max_examples=150, deadline=None)
@given(_rendered(), st.booleans())
def test_renderers_match_their_per_cell_weight_forms(case, unicode):
    rel, test, model = case
    weights, labels = oracle_weights(rel), list(product(rel.states, repeat=2))
    assert prel_to_entries(rel) == _oracle_entries(rel)
    assert format_prel(rel, unicode) == format_grid(
        rel.states, [format_weight(w, unicode) for w in weights])
    assert pkat.cli._classification(rel) == [
        [u, v, classify(w).value] for (u, v), w in zip(labels, weights)]
    assert pkat.cli._class_grid(rel) == format_grid(
        rel.states, [classify(w).value for w in weights])
    diagonal = oracle_weights(test.relation)[::len(rel.states) + 1]
    assert pset_to_json(test) == {s: weight_to_json(w) for s, w in zip(rel.states, diagonal)}
    assert test.weights == tuple(diagonal) == tuple(map(test.value, rel.states))
    assert [test[s] for s in rel.states] == list(diagonal)
    expected = {
        "lattice": rel.lattice.value,
        "states": list(rel.states),
        "programs": {"r": _oracle_entries(rel)},
        "tests": {"p": {s: weight_to_json(w) for s, w in zip(rel.states, diagonal)}},
    }
    if model.test_carrier is not None:
        expected["test_carrier"] = [elem_to_json(e) for e in model.test_carrier]
    assert model_to_dict(model) == expected


def test_renderers_print_godel_values_as_fractions_and_bool2_as_ints():
    godel = load_model(json.dumps({
        "lattice": "godel", "states": ["a", "b"],
        "programs": {"r": [["a", "b", "1/3", "0.5"]], "q": [["b", "a", "0.25", "2/3"]]},
    }))
    r = godel.programs["r"]  # its table also holds q's 1/4 and 2/3
    assert r.values == tuple(map(Fraction, ("0", "1/4", "1/3", "1/2", "2/3", "1")))
    assert prel_to_entries(r)[1] == ["a", "b", "1/3", "0.5"]
    assert format_prel(r).splitlines()[1] == "a  (0,1)  (1/3,0.5)"
    assert pkat.cli._classification(r)[1] == ["a", "b", "vague"]
    bool2 = load_model(json.dumps({"lattice": "bool2", "states": ["a"],
                                   "programs": {"r": [["a", "a", 1, 1]]}}))
    assert prel_to_entries(bool2.programs["r"]) == [["a", "a", 1, 1]]
    assert pkat.cli._class_grid(bool2.programs["r"]).splitlines()[1] == "a  inconsistent"
