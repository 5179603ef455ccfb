"""Command-line front end: evaluate terms, check axioms, compare programs.

Exit codes: 0 success / property holds, 1 a checked property fails
(witness printed), 2 usage or term error, 3 model or validation error,
70 an internal error (``internal error: <type>: <message>`` on stderr;
a defect in pkat, never a verdict), 74 the output could not be written
(``output error: ...`` on stderr), 141 stdout was closed before the
output was written (as a process killed by SIGPIPE reports it; nothing
is printed).

This module is the parser and the dispatcher: of pkat it loads only
``errors`` and ``lattice`` (for the ``--lattice`` choices), so ``--help``
and a usage error compile nothing else.  Each ``_COMMANDS`` row names the
module holding the command's handler ``_cmd_<name>``, imported when the
handler runs: ``views`` for ``eval``, ``star`` and ``classify``, ``checks``
for ``equiv``, ``hoare`` and ``axioms``.  A handler loads only the modules
it runs.  ``star`` and ``classify`` need the model and its relations;
``eval`` also loads ``syntax``, which parses and evaluates terms; the
checks also load ``engine``, the checking half, and ``axioms`` the axiom
``catalog``.  Only commands that read a ``--model`` file load its reader,
``modelfile``.  A request's parser gives options only to the commands its
arguments name; argparse runs no other, so the request parses and prints
as with the full tree (``_build_parser``).
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

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
from .lattice import LatticeId


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit:  # after help or a usage error: a failed write is an output error
            sys.stdout.flush()
            raise
        home = import_module(f"{__package__}.{_COMMANDS[args.command][2]}")
        code = getattr(home, f"_cmd_{args.command}")(args)
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


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The six commands' parser.  argparse runs a command's subparser only
    when its name is an element of ``argv``, so only such a command gets
    its options; the others stay bare, without even ``-h``.
    Every text printed is the full tree's, which ``argv=None`` builds."""
    parser = argparse.ArgumentParser(
        prog="pkat",
        description="Evaluate and verify guarded programs weighted by "
        "evidence pairs over a truth-value lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, _) in _COMMANDS.items():
        named = argv is None or name in argv
        p = sub.add_parser(name, help=text, add_help=named)
        if named:
            options(p)
            p.add_argument("--json", action="store_true", help="machine-readable output")
            p.add_argument("--unicode", action="store_true", help="print top/bot as symbols")
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


# Each command's help line, its options before --json and --unicode, and the
# module holding its handler ``_cmd_<name>``.
_COMMANDS = {
    "eval": ("interpret a term over a model", _required("--model", "--term"), "views"),
    "star": ("star of a named program relation", _required("--model", "--program"), "views"),
    "equiv": ("compare two terms", _equiv_options, "checks"),
    "axioms": ("run the axiom suite over a lattice", _axioms_options, "checks"),
    "classify": ("consistency class of each entry", _required("--model", "--name"), "views"),
    "hoare": ("check a triple {pre} prog {post}",
              _required("--model", "--pre", "--prog", "--post"), "checks"),
}


if __name__ == "__main__":
    sys.exit(main())
