"""Handlers of the commands that check a given law: ``equiv`` and
``hoare``.  ``cli`` imports this module when one of them runs; only
their ``--model`` branches load the model-file reader, ``modelfile``,
and only ``equiv``'s random branch the checking loops, ``bitslice``.
The ``axioms`` handler lives in ``catalog``.
"""

from __future__ import annotations

import json

from .engine import Status, Verdict, equiv, hoare_check, verdict_to_dict, witness_parts
from .errors import EngineError
from .lattice import LatticeId
from .plts import _json, model_to_dict
from .syntax import _term, pretty


def _print_verdict(verdict: Verdict, args, lead: list[str]) -> int:
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
    given = [name for name in ("lattice", "states", "random", "seed", "tests", "godel_grid")
             if getattr(args, name) is not None]  # random mode's options, which --model excludes
    if args.model is not None and given:
        raise EngineError(f"--{given[0].replace('_', '-')} applies to random mode, not --model")
    t1, t2 = _term(args, "t1"), _term(args, "t2")
    lead = [f"t1: {pretty(t1)}", f"t2: {pretty(t2)}"]
    if args.model is not None:
        from .modelfile import _read_model

        verdict = equiv(t1, t2, _read_model(args.model))
    else:
        from .bitslice import _parse_grid, equiv_random

        if args.lattice is None or args.states is None or args.random is None:
            raise EngineError("random mode needs --lattice, --states and --random")
        tests = {name.strip() for name in (args.tests or "").split(",") if name.strip()}
        verdict = equiv_random(t1, t2, LatticeId.from_name(args.lattice), args.states,
                               args.random, args.seed or 0, test_names=tests,
                               godel_grid=_parse_grid(args.godel_grid))
    return _print_verdict(verdict, args, lead)


def _cmd_hoare(args) -> int:
    from .modelfile import _read_model

    model = _read_model(args.model)
    pre, prog, post = (_term(args, option) for option in ("pre", "prog", "post"))
    verdict = hoare_check(pre, prog, post, model)
    lead = [f"triple: {{{pretty(pre)}}} {pretty(prog)} {{{pretty(post)}}}"]
    return _print_verdict(verdict, args, lead)
