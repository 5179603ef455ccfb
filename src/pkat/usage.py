"""argparse for the command lines ``cli._parse`` does not read: help, a
usage error, or what the option table leaves to argparse (an abbreviated
option, ``--opt=value``, a value starting with ``-``).

``cli`` imports this module only for such a command line and passes it
the option table; this module never imports ``cli``, which under
``python -m pkat.cli`` runs as ``__main__`` and would be compiled again.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys


def _argparse(argv, commands, options):
    """argparse's namespace for ``argv``, or its help or usage error and its
    exit.  Help is written here: argparse would swallow a failed write, which
    must reach ``cli.main``'s output error handling."""
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            return _build_parser(commands, options).parse_args(argv)
    except SystemExit:
        sys.stdout.write(help_text.getvalue())
        sys.stdout.flush()
        raise


def _build_parser(commands, options):
    """The parser of ``commands`` (name to its help line first), each with
    ``options(name)``, its options' ``add_argument`` keyword arguments, and
    ``-h``; ``either`` marks the options of one mutually exclusive group."""
    parser = argparse.ArgumentParser(
        prog="pkat",
        description="Evaluate and verify guarded programs weighted by "
        "evidence pairs over a truth-value lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, *_) in commands.items():
        p = sub.add_parser(name, help=text)
        group = None
        for option, spec in options(name).items():
            spec = dict(spec)
            if spec.pop("either", False):
                group = group or p.add_mutually_exclusive_group()
                group.add_argument(option, **spec)
            else:
                p.add_argument(option, **spec)
    return parser
