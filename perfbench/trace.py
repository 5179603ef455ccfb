"""In-process traced run: spans recorded from outside pkat.

Each public function below is replaced, in every ``pkat`` module
namespace that holds it, by a wrapper that records a span (name, start,
end, parent span, request id, and one number about the call).  Spans are
kept in memory and reduced at the end of the pass: a span's self time is
its duration minus the time its child spans cover.

Layers, as the ROADMAP numbers them: 1 ``lattice`` + ``twist`` (measured
by the micro-benchmark, since per-operation spans would swamp them);
2 ``relp``; 3 ``engine.evaluate`` + ``syntax``; 4 the ``engine`` checking
loops; 5 ``cli`` + ``plts``.  ``setp`` has no caller on any CLI or
``engine`` path, so no workload reaches it and it has no metric.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import statistics
import sys
import time
import traceback
from fractions import Fraction

from . import calib

# Span name -> (module, attribute, what to note about a call).
SPANS = {
    "relp.r_dot": ("pkat.relp", "r_dot", lambda args, out: len(args[0].states)),
    "relp.r_plus": ("pkat.relp", "r_plus", lambda args, out: len(args[0].states)),
    # r_star is a thin shell over r_star_steps, which the star command calls.
    "relp.r_star": ("pkat.relp", "r_star_steps",
                    lambda args, out: (len(args[0].states), out[1])),
    "relp.t_complement": ("pkat.relp", "t_complement", None),
    "syntax.parse": ("pkat.syntax", "parse", lambda args, out: _term_nodes(out)),
    "syntax.sort_of": ("pkat.syntax", "sort_of", None),
    "syntax.pretty": ("pkat.syntax", "pretty", None),
    "plts.load_model": ("pkat.plts", "load_model", lambda args, out: len(args[0])),
    "plts.model_to_dict": ("pkat.plts", "model_to_dict", None),
    "engine.evaluate": ("pkat.engine", "evaluate", None),
    "engine.hoare_check": ("pkat.engine", "hoare_check", None),
    "engine.check_axiom": ("pkat.engine", "check_axiom", lambda args, out: out.samples),
    "engine.find_boolean_witness": ("pkat.engine", "find_boolean_witness", None),
    "engine.weight_space": ("pkat.engine", "weight_space", None),
    "engine.random_model": ("pkat.engine", "random_model", None),
    "engine.equiv_random": ("pkat.engine", "equiv_random", None),
}
RELP = ("relp.r_dot", "relp.r_plus", "relp.r_star", "relp.t_complement")


def _term_nodes(term) -> int:
    count, stack = 0, [term]
    while stack:
        node = stack.pop()
        count += 1
        for name in getattr(node, "__dataclass_fields__", ()):
            child = getattr(node, name)
            if hasattr(child, "__dataclass_fields__"):
                stack.append(child)
    return count


class Recorder:
    """Collects spans as tuples (name, start, end, parent, request, note)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.request = None

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                info = note(args, out) if note is not None and out is not None else None
                spans[idx] = (name, start, end, parent, self.request, info)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Swap the wrappers into every pkat namespace holding the originals."""
        saved = []
        modules = [m for k, m in sys.modules.items() if k == "pkat" or k.startswith("pkat.")]
        try:
            for name, (module, attr, note) in SPANS.items():
                original = getattr(sys.modules[module], attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original, note)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def reduce(self, scale: dict) -> dict:
        """Per-name calls, self and inclusive time, and the notes; each
        span's times are multiplied by ``scale[request id]``."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _, request, info) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "self": 0.0, "incl": 0.0, "notes": []})
            factor = scale[request]
            agg["calls"] += 1
            agg["incl"] += (end - start) * factor
            agg["self"] += (end - start - covered[idx]) * factor
            if info is not None:
                agg["notes"].append(info)
        return out


def layer_metrics(agg: dict, stdout_bytes: int, missed: int) -> dict[str, float]:
    """The per-layer table from one traced pass."""
    def get(name):
        return agg.get(name, {"calls": 0, "self": 0.0, "incl": 0.0, "notes": []})

    dot, plus, star = get("relp.r_dot"), get("relp.r_plus"), get("relp.r_star")
    rounds = sum(r for _, r in star["notes"])
    bound = sum(n + 1 for n, _ in star["notes"])
    instances = sum(get("engine.check_axiom")["notes"])
    axiom_time = get("engine.check_axiom")["incl"]
    request_time = get("cli.main")["incl"]
    return {
        "twist.ops": sum(2 * n**3 for n in dot["notes"]) + sum(n * n for n in plus["notes"]),
        "relp.r_dot.calls": dot["calls"],
        "relp.r_dot.self_s": dot["self"],
        "relp.r_dot.n_max": max(dot["notes"], default=0),
        "relp.r_plus.calls": plus["calls"],
        "relp.r_plus.self_s": plus["self"],
        "relp.t_complement.calls": get("relp.t_complement")["calls"],
        "relp.r_star.calls": star["calls"],
        "relp.r_star.self_s": star["self"],
        "relp.r_star.rounds": rounds,
        "relp.r_star.rounds_ratio": rounds / bound if bound else 0.0,
        "relp.share": sum(get(n)["self"] for n in RELP) / request_time if request_time else 0.0,
        "syntax.parse.self_s": get("syntax.parse")["self"],
        "syntax.sort_of.self_s": get("syntax.sort_of")["self"],
        "syntax.pretty.self_s": get("syntax.pretty")["self"],
        "syntax.term_nodes": sum(get("syntax.parse")["notes"]),
        "plts.load_model.self_s": get("plts.load_model")["self"],
        "plts.model_bytes": sum(get("plts.load_model")["notes"]),
        "plts.model_to_dict.self_s": get("plts.model_to_dict")["self"],
        "engine.evaluate.self_s": get("engine.evaluate")["self"],
        "engine.hoare_check.self_s": get("engine.hoare_check")["self"],
        "engine.check_axiom.self_s": get("engine.check_axiom")["self"],
        "engine.find_boolean_witness.self_s": get("engine.find_boolean_witness")["self"],
        "engine.instances": instances,
        "engine.instances_per_s": instances / axiom_time if axiom_time else 0.0,
        "engine.weight_space.calls": get("engine.weight_space")["calls"],
        "engine.weight_space.self_s": get("engine.weight_space")["self"],
        "engine.weight_space.calls_per_instance":
            get("engine.weight_space")["calls"] / instances if instances else 0.0,
        "engine.random_model.self_s": get("engine.random_model")["self"],
        "engine.equiv_random.self_s": get("engine.equiv_random")["self"],
        "engine.equiv_missed": missed,
        "cli.main.self_s": get("cli.main")["self"],
        "cli.stdout_bytes": stdout_bytes,
    }


def call_main(main, argv):
    """Run ``main(argv)`` in this process; (seconds, code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a crash is a measured outcome, not a benchmark error
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Layer 1 micro-benchmark

MICRO_OPS = 2000
MICRO_ROUNDS = 10
MICRO_REPEATS = 7


def microbench(seed: int) -> dict[str, float]:
    """Calibrated ns per call of meet, wjoin, wmeet and classify on seeded
    operands, for the three-valued chain and the interval lattice."""
    from pkat.lattice import LatticeId, elem, meet
    from pkat.twist import Weight, classify, wjoin, wmeet

    rng = random.Random(f"micro:{seed}")
    cases = []
    grids = (
        ("luk3", LatticeId.LUKASIEWICZ3, ["bot", "u", "top"]),
        ("godel", LatticeId.GODEL, [Fraction(k, 100) for k in range(0, 101, 5)]),
    )
    for label, lattice, values in grids:
        xs = [elem(lattice, rng.choice(values)) for _ in range(MICRO_OPS)]
        ys = [elem(lattice, rng.choice(values)) for _ in range(MICRO_OPS)]
        ws = [Weight(a, b) for a, b in zip(xs, ys)]
        vs = ws[1:] + ws[:1]
        cases += [
            (f"lattice.meet_ns.{label}", meet, (xs, ys)),
            (f"twist.wjoin_ns.{label}", wjoin, (ws, vs)),
            (f"twist.wmeet_ns.{label}", wmeet, (ws, vs)),
            (f"twist.classify_ns.{label}", classify, (ws,)),
        ]
    scaled: dict[str, list[float]] = {}
    for _ in range(MICRO_REPEATS):
        for name, fn, operands in cases:
            factor = calib.REF_SECONDS / calib.sample()
            scaled.setdefault(name, []).append(_ns_per_call(fn, *operands) * factor)
    return {name: statistics.median(v) for name, v in scaled.items()}


def _ns_per_call(fn, *operands) -> float:
    calls = MICRO_ROUNDS * len(operands[0])
    start = time.perf_counter()
    for _ in range(MICRO_ROUNDS):
        for _ in map(fn, *operands):
            pass
    return (time.perf_counter() - start) / calls * 1e9
