"""Independent reference semantics used to verify pkat's outputs.

Standard library only, and nothing from pkat: it parses the term
grammar, reads model documents, and evaluates terms over the evidence
pairs itself.  Values on a chain are encoded as ranks into the sorted
set of values that occur (plus 0 and 1), so both components of a
relation are integer matrices:

* ``+`` joins support (max) and meets opposition (min) entrywise;
* ``;`` is a (max, min) product on the support side and a (min, max)
  product on the opposition side;
* ``r*`` is the power-join ``1 + r + r;r + ... + r^n``;
* ``!t`` swaps the two components on the diagonal of a test.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)

_WORDS = {"bot": ZERO, "top": ONE, "⊥": ZERO, "⊤": ONE, "u": HALF}


class Mismatch(Exception):
    """pkat printed something the reference semantics rejects."""


def value(text) -> Fraction:
    """Read one JSON component: 0/1 numbers, bot/u/top, or a decimal."""
    if isinstance(text, bool):
        raise Mismatch(f"boolean {text!r} is not a lattice value")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        text = text.strip()
        if text in _WORDS:
            return _WORDS[text]
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise Mismatch(f"{text!r} is not a lattice value")


def chain_text(v: Fraction) -> str:
    """Plain-text spelling of a three-valued chain value."""
    return {ZERO: "bot", HALF: "u", ONE: "top"}[v]


# ---------------------------------------------------------------------------
# Terms


_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|(.))")


def parse(src: str):
    """Parse term text into nested tuples: ('atom', name), ('0',), ('1',),
    ('+', l, r), (';', l, r), ('*', t), ('!', t)."""
    tokens = []
    for ident, sym in _TOKEN.findall(src.strip()):
        tokens.append(ident or sym)
    tokens.append("")
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def sum_():
        node = seq()
        while peek() == "+":
            take()
            node = ("+", node, seq())
        return node

    def seq():
        node = unary()
        while peek() in (";", "."):
            take()
            node = (";", node, unary())
        return node

    def unary():
        if peek() == "!":
            take()
            return ("!", unary())
        node = atom()
        while peek() == "*":
            take()
            node = ("*", node)
        return node

    def atom():
        tok = take()
        if tok in ("0", "1"):
            return (tok,)
        if tok == "(":
            node = sum_()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {src!r}")
            return node
        if tok and (tok[0].isalpha()):
            return ("atom", tok)
        raise ValueError(f"unexpected token {tok!r} in {src!r}")

    node = sum_()
    if peek() != "":
        raise ValueError(f"trailing input in {src!r}")
    return node


# ---------------------------------------------------------------------------
# Relations as pairs of rank matrices


class Rel:
    """Support and opposition matrices, each a tuple of row tuples of ranks."""

    __slots__ = ("tt", "ff")

    def __init__(self, tt, ff):
        self.tt = tuple(map(tuple, tt))
        self.ff = tuple(map(tuple, ff))

    def __eq__(self, other):
        return self.tt == other.tt and self.ff == other.ff

    def __hash__(self):
        return hash((self.tt, self.ff))

    def __repr__(self):
        return f"Rel(tt={self.tt}, ff={self.ff})"

    @property
    def n(self) -> int:
        return len(self.tt)


def zero(n: int, top: int) -> Rel:
    return Rel([[0] * n for _ in range(n)], [[top] * n for _ in range(n)])


def one(n: int, top: int) -> Rel:
    return Rel(
        [[top if i == j else 0 for j in range(n)] for i in range(n)],
        [[0 if i == j else top for j in range(n)] for i in range(n)],
    )


def plus(a: Rel, b: Rel) -> Rel:
    return Rel(
        [tuple(map(max, x, y)) for x, y in zip(a.tt, b.tt)],
        [tuple(map(min, x, y)) for x, y in zip(a.ff, b.ff)],
    )


def dot(a: Rel, b: Rel) -> Rel:
    tcols = list(zip(*b.tt))
    fcols = list(zip(*b.ff))
    return Rel(
        [[max(map(min, row, col)) for col in tcols] for row in a.tt],
        [[min(map(max, row, col)) for col in fcols] for row in a.ff],
    )


def star(a: Rel, top: int) -> tuple[Rel, int]:
    """Power-join 1 + a + ... + a^n, and the round at which it stopped
    growing (the first k >= 1 whose partial join equals the previous one)."""
    power = acc = one(a.n, top)
    rounds = None
    for k in range(1, a.n + 2):
        power = dot(power, a)
        grown = plus(acc, power)
        if rounds is None and grown == acc:
            rounds = k
        acc = grown
    if rounds is None:
        raise Mismatch("power-join did not stabilise within n + 1 terms")
    return acc, rounds


def complement(a: Rel, top: int) -> Rel:
    n = a.n
    for i in range(n):
        for j in range(n):
            if i != j and (a.tt[i][j] != 0 or a.ff[i][j] != top):
                raise Mismatch("'!' applied to a relation that is not a test")
    tt = [list(r) for r in a.tt]
    ff = [list(r) for r in a.ff]
    for i in range(n):
        tt[i][i], ff[i][i] = a.ff[i][i], a.tt[i][i]
    return Rel(tt, ff)


def leq(a: Rel, b: Rel) -> bool:
    return all(
        x <= y for ra, rb in zip(a.tt, b.tt) for x, y in zip(ra, rb)
    ) and all(x >= y for ra, rb in zip(a.ff, b.ff) for x, y in zip(ra, rb))


# ---------------------------------------------------------------------------
# Models


class Model:
    """A model document read into rank form over its own value universe."""

    def __init__(self, doc: dict):
        self.lattice = doc["lattice"]
        self.states = list(doc["states"])
        self.index = {s: i for i, s in enumerate(self.states)}
        n = len(self.states)
        raw_programs = {
            name: [(u, v, value(t), value(f)) for u, v, t, f in entries]
            for name, entries in doc.get("programs", {}).items()
        }
        raw_tests = {}
        for name, body in doc.get("tests", {}).items():
            if isinstance(body, dict):
                raw_tests[name] = {s: (value(t), value(f)) for s, (t, f) in body.items()}
            else:
                raw_tests[name] = {u: (value(t), value(f)) for u, _, t, f in body}
        seen = {ZERO, ONE}
        if self.lattice == "lukasiewicz3":
            seen.add(HALF)
        for entries in raw_programs.values():
            for _, _, t, f in entries:
                seen.update((t, f))
        for diag in raw_tests.values():
            for t, f in diag.values():
                seen.update((t, f))
        self.universe = sorted(seen)
        self.rank = {v: i for i, v in enumerate(self.universe)}
        self.top = self.rank[ONE]
        self.programs = {}
        for name, entries in raw_programs.items():
            tt = [[0] * n for _ in range(n)]
            ff = [[self.top] * n for _ in range(n)]
            for u, v, t, f in entries:
                i, j = self.index[u], self.index[v]
                tt[i][j], ff[i][j] = self.rank[t], self.rank[f]
            self.programs[name] = Rel(tt, ff)
        self.tests = {}
        for name, diag in raw_tests.items():
            tt = [[0] * n for _ in range(n)]
            ff = [[self.top] * n for _ in range(n)]
            for s, (t, f) in diag.items():
                i = self.index[s]
                tt[i][i], ff[i][i] = self.rank[t], self.rank[f]
            self.tests[name] = Rel(tt, ff)

    @property
    def n(self) -> int:
        return len(self.states)

    def pair(self, rel: Rel, i: int, j: int) -> tuple[Fraction, Fraction]:
        return self.universe[rel.tt[i][j]], self.universe[rel.ff[i][j]]

    def evaluate(self, term) -> Rel:
        kind = term[0]
        if kind == "atom":
            name = term[1]
            if name in self.programs:
                return self.programs[name]
            return self.tests[name]
        if kind == "0":
            return zero(self.n, self.top)
        if kind == "1":
            return one(self.n, self.top)
        if kind == "+":
            return plus(self.evaluate(term[1]), self.evaluate(term[2]))
        if kind == ";":
            return dot(self.evaluate(term[1]), self.evaluate(term[2]))
        if kind == "*":
            return star(self.evaluate(term[1]), self.top)[0]
        if kind == "!":
            return complement(self.evaluate(term[1]), self.top)
        raise ValueError(f"unknown term node {term!r}")


def classify(tt: Fraction, ff: Fraction) -> str:
    total = tt + ff
    if total > 1:
        return "inconsistent"
    if total < 1:
        return "vague"
    return "consistent"


# ---------------------------------------------------------------------------
# The axiom catalog, written as term text


CATALOG = (
    (1, "plus-assoc", "p + (q + r) = (p + q) + r"),
    (2, "plus-comm", "p + q = q + p"),
    (3, "plus-zero", "p + 0 = p"),
    (4, "plus-idem", "p + p = p"),
    (5, "dot-assoc", "p;(q;r) = (p;q);r"),
    (6, "dot-one", "1;p = p;1 = p"),
    (7, "dot-dist-l", "p;(q + r) = p;q + p;r"),
    (8, "dot-dist-r", "(p + q);r = p;r + q;r"),
    (9, "dot-zero", "0;p = p;0 = 0"),
    (10, "star-unfold-l", "1 + p;p* = p*"),
    (11, "star-unfold-r", "1 + p*;p = p*"),
    (14, "star-ind-l", "p;r <= r  ->  p*;r <= r"),
    (15, "star-ind-r", "r;p <= r  ->  r;p* <= r"),
    (213, "test-plus-over-dot", "a + b;c = (a + b);(a + c)"),
    (214, "test-dot-comm", "a;b = b;a"),
    (215, "test-dot-over-plus", "a;b + c = (a + c);(b + c)"),
    (216, "test-dot-idem", "a;a = a"),
    (217, "test-double-neg", "!!a = a"),
    (218, "test-plus-one", "a + 1 = 1"),
    (219, "test-non-contra", "a;!a = 0"),
    (220, "test-excl-middle", "a + !a = 1"),
)
CORE = tuple(ident for ident, _, _ in CATALOG if ident < 219)
BOOLEAN = (219, 220)
TEST_VARS = frozenset("abc")


def law_vars(formula: str) -> list[str]:
    """Variables of a law in order of first appearance in the text."""
    return list(dict.fromkeys(re.findall(r"[a-z]", formula)))


def law_holds(formula: str, model: Model) -> tuple[bool, tuple | None]:
    """Whether an instance satisfies a law, else the first break as
    (i, j, lhs relation, rhs relation) in row-major order."""
    if "->" in formula:
        hyp, concl = (part.strip() for part in formula.split("->"))
        h_l, h_r = (model.evaluate(parse(s)) for s in hyp.split("<="))
        if not leq(h_l, h_r):
            return True, None
        c_l, c_r = (model.evaluate(parse(s)) for s in concl.split("<="))
        return _first_break(c_l, c_r, require_leq=True)
    sides = [model.evaluate(parse(s)) for s in formula.split("=")]
    for lhs, rhs in zip(sides, sides[1:]):
        ok, found = _first_break(lhs, rhs, require_leq=False)
        if not ok:
            return ok, found
    return True, None


def _first_break(lhs: Rel, rhs: Rel, require_leq: bool):
    n = lhs.n
    for i in range(n):
        for j in range(n):
            lt, lf, rt, rf = lhs.tt[i][j], lhs.ff[i][j], rhs.tt[i][j], rhs.ff[i][j]
            bad = not (lt <= rt and lf >= rf) if require_leq else (lt, lf) != (rt, rf)
            if bad:
                return False, (i, j, lhs, rhs)
    return True, None


def weight_space(lattice: str, grid=None) -> list[tuple[Fraction, Fraction]]:
    """Candidate weights, nearest classical consistency first."""
    if lattice == "bool2":
        values = [ZERO, ONE]
    elif lattice == "lukasiewicz3":
        values = [ZERO, HALF, ONE]
    else:
        values = list(dict.fromkeys(grid or (ZERO, Fraction(1, 4), HALF, Fraction(3, 4), ONE)))
    pairs = [(t, f) for t in values for f in values]
    if lattice == "bool2":
        pairs = [(t, f) for t, f in pairs if t + f == 1]
    pairs.sort(key=lambda w: (abs(w[0] + w[1] - 1), w[0], w[1]))
    return pairs


def exhaustive_count(formula: str, space_size: int, n: int) -> int:
    total = 1
    for var in law_vars(formula):
        total *= space_size ** (n if var in TEST_VARS else n * n)
    return total
