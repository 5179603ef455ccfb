"""Handlers of the commands that show a model: ``eval``, ``star`` and
``classify``, and the relation text they print (``format_prel``,
``format_grid``).  ``cli`` imports this module when one of them runs;
each reads its model with ``modelfile``, and only ``eval`` loads
``syntax``.
"""

from __future__ import annotations

from .modelfile import _read_model
from .plts import _json, _named_relation, program_relation
from .relp import PRel, cell_forms, prel_to_entries, r_star_steps
from .twist import classify, format_weight


def format_prel(r: PRel, unicode: bool = False) -> str:
    """Aligned matrix with one weight pair per entry."""
    return format_grid(r.states, cell_forms(r, lambda w: format_weight(w, unicode)))


def format_grid(states, cells: list[str]) -> str:
    """Row-major cell strings as a matrix labelled by ``states``."""
    n = len(states)
    widths = [max(len(states[j]), *(len(cells[i * n + j]) for i in range(n))) for j in range(n)]
    label = max(len(s) for s in states)
    lines = [" " * label + "  " + "  ".join(s.ljust(w) for s, w in zip(states, widths))]
    for i, u in enumerate(states):
        row = "  ".join(cells[i * n + j].ljust(widths[j]) for j in range(n))
        lines.append(u.ljust(label) + "  " + row)
    return "\n".join(line.rstrip() for line in lines)


def _class_name(w) -> str:
    return classify(w).value


def _class_grid(rel: PRel) -> str:
    return format_grid(rel.states, cell_forms(rel, _class_name))


def _classification(rel: PRel) -> list[list[str]]:
    return [[u, v, c] for (u, v), c in rel.pairs(_class_name)]


def _cmd_eval(args) -> int:
    from .syntax import _term, evaluate, pretty

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
