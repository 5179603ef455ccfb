"""Command-line front end: evaluate terms, check axioms, compare programs.

Exit codes: 0 success / property holds, 1 a checked property fails
(witness printed), 2 usage or term error, 3 model or validation error,
70 an internal error (``internal error: <type>: <message>`` on stderr;
a defect in pkat, never a verdict), 74 the output could not be written
(``output error: ...`` on stderr), 141 stdout was closed before the
output was written (as a process killed by SIGPIPE reports it; nothing
is printed).

Each command imports only the modules it runs.  ``star`` and
``classify`` need the model and its relations; ``eval`` also loads
``syntax``, which parses and evaluates terms; ``equiv``, ``axioms`` and
``hoare`` also load ``engine``, the checking half, and ``axioms`` the
axiom ``catalog``.  Only commands that read a ``--model`` file load its
reader, ``modelfile``.  A request's parser gives options only to the
commands its arguments name; argparse runs no other, so the request
parses and prints as with the full tree (``_build_parser``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    CarrierError,
    EngineError,
    LatticeMismatchError,
    ModelError,
    ParseError,
    ShapeError,
    SortError,
    quoted,
)
from .lattice import LatticeId, elem
from .plts import _named_relation, load_model, model_to_dict, program_relation
from .relp import PRel, cell_forms, format_grid, format_prel, prel_to_entries, r_star_steps
from .twist import classify

if TYPE_CHECKING:
    from .engine import Verdict


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Writing stdout failed: the reader went away (``pkat ... | head``)
        # or the device refused it (``> /dev/full``).  Point stdout at
        # devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        return _fail(f"output error: {exc}", 74)
    except ParseError as exc:
        return _fail(f"term error: {exc}", 2)
    except SortError as exc:
        return _fail(f"sort error: {exc}", 2)
    except EngineError as exc:
        return _fail(f"engine error: {exc}", 2)
    except (ModelError, CarrierError, ShapeError, LatticeMismatchError) as exc:
        return _fail(f"model error: {exc}", 3)
    except RecursionError:
        return _fail("term error: term nests too deeply", 2)
    except Exception as exc:
        return _fail(f"internal error: {type(exc).__name__}: {exc}", 70)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _json(payload, code: int = 0) -> int:
    """Print ``payload`` as ``--json`` output; return the exit ``code``."""
    print(json.dumps(payload, indent=2))
    return code


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The six commands' parser.  argparse runs a command's subparser only
    when its name is an element of ``argv``, so only such a command gets
    its options and handler; the others stay bare, without even ``-h``.
    Every text printed is the full tree's, which ``argv=None`` builds."""
    parser = argparse.ArgumentParser(
        prog="pkat",
        description="Evaluate and verify guarded programs weighted by "
        "evidence pairs over a truth-value lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options) in _COMMANDS.items():
        named = argv is None or name in argv
        p = sub.add_parser(name, help=text, add_help=named)
        if named:
            options(p)
            p.add_argument("--json", action="store_true", help="machine-readable output")
            p.add_argument("--unicode", action="store_true", help="print top/bot as symbols")
            p.set_defaults(handler=globals()[f"_cmd_{name}"])
    return parser


def _required(*options):
    """Adds each of ``options``, all required."""
    def add(p):
        for option in options:
            p.add_argument(option, required=True)
    return add


def _equiv_options(p) -> None:
    p.add_argument("--model")
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--lattice", type=_lattice, choices=_LATTICES)
    p.add_argument("--states", type=_int)
    p.add_argument("--random", type=_int, metavar="SAMPLES")
    p.add_argument("--seed", type=_int)  # random mode; 0 when not given
    p.add_argument("--tests", metavar="NAMES",
                   help="comma-separated atoms to treat as tests (random mode)")
    p.add_argument("--godel-grid", metavar="VALUES")


def _axioms_options(p) -> None:
    p.add_argument("--lattice", required=True, type=_lattice, choices=_LATTICES)
    p.add_argument("--states", type=_int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="the default")
    mode.add_argument("--samples", type=_int, help="random mode: instances per axiom")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--godel-grid", metavar="VALUES")


def _int(text: str) -> int:
    """``type=int``, but the error quotes at most 40 characters of the text."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


_LATTICES = [l.value for l in LatticeId]


def _lattice(text: str) -> str:
    """The text, for argparse's own choice check; a text too long to be a
    choice is refused here, quoted at most 40 characters (the usage line
    above the message lists the choices)."""
    if len(text) <= 40:
        return text
    raise argparse.ArgumentTypeError(f"invalid choice: {quoted(text)}")


def _read_model(path: str):
    try:
        with open(path, "rb") as handle:
            document = handle.read()
    except OSError as exc:
        if exc.filename is None:
            raise ModelError(str(exc)) from exc
        raise ModelError(f"[Errno {exc.errno}] {exc.strerror}: {quoted(path)}") from exc
    return load_model(document)


def _term(args, option: str):
    """Parse the term given as ``--option``; a parse error names the option."""
    from .syntax import parse

    try:
        return parse(getattr(args, option))
    except ParseError as exc:
        exc.args = (f"--{option}: {exc}",)
        raise


def _parse_grid(text: str | None):
    try:
        return None if text is None else tuple(elem(LatticeId.GODEL, p) for p in text.split(","))
    except CarrierError as exc:
        raise EngineError(f"bad --godel-grid value: {exc}") from exc


def _class_name(w) -> str:
    return classify(w).value


def _class_grid(rel: PRel) -> str:
    return format_grid(rel.states, cell_forms(rel, _class_name))


def _classification(rel: PRel) -> list[list[str]]:
    return [[u, v, c] for (u, v), c in rel.pairs(_class_name)]


def _cmd_eval(args) -> int:
    from .syntax import evaluate, pretty

    model = _read_model(args.model)
    term = _term(args, "term")
    rel = evaluate(term, model)
    if args.json:
        return _json({
            "term": pretty(term),
            "lattice": model.lattice.value,
            "states": list(model.states),
            "entries": prel_to_entries(rel),
            "classification": _classification(rel),
        })
    print(f"term: {pretty(term)}")
    print(f"lattice: {model.lattice.value}")
    print(format_prel(rel, args.unicode))
    print("classification:")
    print(_class_grid(rel))
    return 0


def _cmd_star(args) -> int:
    model = _read_model(args.model)
    rel, steps = r_star_steps(program_relation(model, args.program))
    if args.json:
        return _json({
            "program": args.program,
            "lattice": model.lattice.value,
            "states": list(model.states),
            "entries": prel_to_entries(rel),
            "iterations": steps,
        })
    print(f"star of {args.program}:")
    print(format_prel(rel, args.unicode))
    print(f"iterations: {steps}")
    return 0


def _print_verdict(verdict: Verdict, args, lead: list[str]) -> int:
    from .engine import Status, verdict_to_dict, witness_parts

    if args.json:
        return _json(verdict_to_dict(verdict), 0 if verdict.status is Status.HOLDS else 1)
    for line in lead:
        print(line)
    if verdict.status is Status.HOLDS:
        if verdict.mode == "random":
            print(f"status: holds (no countermodel found in {verdict.samples} samples)")
        else:
            print("status: holds")
        return 0
    print("status: fails")
    for part in witness_parts(verdict, args.unicode, " = "):
        print("  " + part)
    if verdict.witness.model is not None and verdict.mode == "random":
        print("countermodel: " + json.dumps(model_to_dict(verdict.witness.model)))
    return 1


def _cmd_equiv(args) -> int:
    from .engine import equiv, equiv_random
    from .syntax import pretty

    given = [name for name in ("lattice", "states", "random", "seed", "tests", "godel_grid")
             if getattr(args, name) is not None]  # random mode's options, which --model excludes
    if args.model is not None and given:
        raise EngineError(f"--{given[0].replace('_', '-')} applies to random mode, not --model")
    t1, t2 = _term(args, "t1"), _term(args, "t2")
    lead = [f"t1: {pretty(t1)}", f"t2: {pretty(t2)}"]
    if args.model is not None:
        verdict = equiv(t1, t2, _read_model(args.model))
    else:
        if args.lattice is None or args.states is None or args.random is None:
            raise EngineError("random mode needs --lattice, --states and --random")
        tests = {name.strip() for name in (args.tests or "").split(",") if name.strip()}
        verdict = equiv_random(t1, t2, LatticeId.from_name(args.lattice), args.states,
                               args.random, args.seed or 0, test_names=tests,
                               godel_grid=_parse_grid(args.godel_grid))
    return _print_verdict(verdict, args, lead)


def _cmd_axioms(args) -> int:
    from .catalog import CORE_AXIOMS, axiom_row, check_suite
    from .engine import Status, verdict_to_dict

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


def _cmd_classify(args) -> int:
    model = _read_model(args.model)
    rel = _named_relation(model, args.name)
    if args.json:
        return _json({
            "name": args.name,
            "lattice": model.lattice.value,
            "states": list(model.states),
            "classification": _classification(rel),
        })
    print(f"classification of {args.name}:")
    print(_class_grid(rel))
    return 0


def _cmd_hoare(args) -> int:
    from .engine import hoare_check
    from .syntax import pretty

    model = _read_model(args.model)
    pre, prog, post = (_term(args, option) for option in ("pre", "prog", "post"))
    verdict = hoare_check(pre, prog, post, model)
    lead = [f"triple: {{{pretty(pre)}}} {pretty(prog)} {{{pretty(post)}}}"]
    return _print_verdict(verdict, args, lead)


# Each command's help line and its options before --json and --unicode; its
# handler is ``_cmd_<name>``.
_COMMANDS = {
    "eval": ("interpret a term over a model", _required("--model", "--term")),
    "star": ("star of a named program relation", _required("--model", "--program")),
    "equiv": ("compare two terms", _equiv_options),
    "axioms": ("run the axiom suite over a lattice", _axioms_options),
    "classify": ("consistency class of each entry", _required("--model", "--name")),
    "hoare": ("check a triple {pre} prog {post}",
              _required("--model", "--pre", "--prog", "--post")),
}


if __name__ == "__main__":
    sys.exit(main())
