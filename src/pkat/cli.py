"""Command-line front end: evaluate terms, check axioms, compare programs.

Exit codes: 0 success / property holds, 1 a checked property fails
(witness printed), 2 usage or term error, 3 model or validation error,
70 an internal error (``internal error: <type>: <message>`` on stderr;
a defect in pkat, never a verdict), 74 the output could not be written
(``output error: ...`` on stderr), 141 stdout was closed before the
output was written (as a process killed by SIGPIPE reports it; nothing
is printed).

This module is the parser and the dispatcher: of pkat it loads only
``errors``, ``lattice`` (for the ``--lattice`` choices) and ``record``.
``_COMMANDS`` holds each command's options as ``add_argument`` keyword
arguments.  A well-formed request is read from that table alone
(``_parse``); ``usage``, which builds argparse's parser from the same
table, is imported only for any other command line: help, a usage
error, or what the table does not read (an abbreviated option,
``--opt=value``, a value starting with ``-``).  So ``--help`` and a
usage error compile ``usage`` and nothing else of pkat.  Each
``_COMMANDS`` row names the module holding the command's handler
``_cmd_<name>``, imported when the handler runs: ``views`` for ``eval``,
``star`` and ``classify``, ``checks`` for ``equiv`` and ``hoare``, and
``catalog`` for ``axioms``.  A handler loads only the modules it runs.
``star`` and ``classify`` need the model and its relations; ``eval``
also loads ``syntax``, which parses and evaluates terms; the checks
also load ``engine``, which holds laws and checks one instance;
``equiv --random`` and ``axioms`` also the checking loops, ``bitslice``,
and ``axioms`` the axiom ``catalog`` alone, not ``checks``.  Only
commands that read a ``--model`` file load its reader, ``modelfile``.

The process entry is ``cli`` (``python -m pkat.cli`` and the ``pkat``
script): it runs ``main`` and then freezes the heap with ``gc.freeze()``,
so the interpreter's collections at exit traverse none of what the
request left behind, which would otherwise cost about as much as a light
request's own work.  ``main`` itself leaves the collector alone, for
callers that run requests in their own process.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

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
        args = _parse(argv) or import_module(f"{__package__}.usage")._argparse(
            argv, _COMMANDS, _options)
        home = import_module(f"{__package__}.{_COMMANDS[args.command][1]}")
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


def cli() -> int:
    """``main`` for a process about to exit: its exit code, with the heap frozen."""
    code = main()
    gc.freeze()
    return code


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _parse(argv):
    """The namespace argparse gives ``argv``, read from ``_options`` alone when
    ``argv`` is a command and then only its options, each named in full (a
    repeated one keeps its last value), each value not starting with ``-``
    and passing the option's ``type`` and ``choices``, the required ones
    present and at most one ``either`` option; None for any other ``argv``,
    which ``usage._argparse`` reads."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options, given = _options(argv[0]), {}
    words = iter(argv[1:])
    for word in words:
        spec = options.get(word)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[word] = True
            continue
        text = next(words, "-")
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # argparse calls the type again and reports what it raises
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[word] = value
    if any(spec.get("required") and option not in given for option, spec in options.items()):
        return None
    if sum(option in given for option, spec in options.items() if spec.get("either")) > 1:
        return None
    args = SimpleNamespace(command=argv[0])
    for option, spec in options.items():
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, option[2:].replace("-", "_"), given.get(option, default))
    return args


def _options(command: str) -> dict:
    """Each option of ``command`` with its ``add_argument`` keyword arguments."""
    return {**_COMMANDS[command][2], **_FLAGS}


def _int(text: str) -> int:
    """``type=int``, but the error quotes at most 40 characters of the text."""
    try:
        return int(text)
    except ValueError:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


_LATTICES = [l.value for l in LatticeId]


def _lattice(text: str) -> str:
    """The text, for argparse's own choice check; a text too long to be a
    choice is refused here, quoted at most 40 characters (the usage line
    above the message lists the choices)."""
    if len(text) <= 40:
        return text
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(f"invalid choice: {quoted(text)}")


_REQUIRED = {"required": True}
_COUNT = {"type": _int}
_LATTICE = {"type": _lattice, "choices": _LATTICES}
_FLAGS = {"--json": {"action": "store_true", "help": "machine-readable output"},
          "--unicode": {"action": "store_true", "help": "print top/bot as symbols"}}

# Each command's help line, the module holding its handler ``_cmd_<name>``, and
# its options before --json and --unicode, each with its ``add_argument``
# keyword arguments; ``either`` marks the options of one mutually exclusive group.
_COMMANDS = {
    "eval": ("interpret a term over a model", "views",
             {"--model": _REQUIRED, "--term": _REQUIRED}),
    "star": ("star of a named program relation", "views",
             {"--model": _REQUIRED, "--program": _REQUIRED}),
    "equiv": ("compare two terms", "checks", {
        "--model": {},
        "--t1": _REQUIRED,
        "--t2": _REQUIRED,
        "--lattice": _LATTICE,
        "--states": _COUNT,
        "--random": {"type": _int, "metavar": "SAMPLES"},
        "--seed": _COUNT,  # random mode; 0 when not given
        "--tests": {"metavar": "NAMES",
                    "help": "comma-separated atoms to treat as tests (random mode)"},
        "--godel-grid": {"metavar": "VALUES"},
    }),
    "axioms": ("run the axiom suite over a lattice", "catalog", {
        "--lattice": {**_LATTICE, "required": True},
        "--states": {**_COUNT, "required": True},
        "--exhaustive": {"action": "store_true", "help": "the default", "either": True},
        "--samples": {**_COUNT, "help": "random mode: instances per axiom", "either": True},
        "--seed": {**_COUNT, "default": 0},
        "--godel-grid": {"metavar": "VALUES"},
    }),
    "classify": ("consistency class of each entry", "views",
                 {"--model": _REQUIRED, "--name": _REQUIRED}),
    "hoare": ("check a triple {pre} prog {post}", "checks",
              {"--model": _REQUIRED, "--pre": _REQUIRED, "--prog": _REQUIRED,
               "--post": _REQUIRED}),
}


if __name__ == "__main__":
    sys.exit(cli())
