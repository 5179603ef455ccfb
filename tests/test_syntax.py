import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pkat.errors import ParseError, SortError
from pkat.syntax import (
    Atom,
    Dot,
    Not,
    One,
    Plus,
    Sort,
    Star,
    Zero,
    _compile,
    atoms,
    desugar_if,
    desugar_while,
    parse,
    pretty,
    sort_check,
    sort_of,
)

from helpers import random_any_term


def test_precedence_example():
    assert parse("p + q ; r*") == Plus(Atom("p"), Dot(Atom("q"), Star(Atom("r"))))


def test_constants():
    assert parse("0") == Zero()
    assert parse("1") == One()


def test_1_compiles_as_not_0_into_one_slot():
    names, steps, (one, not_zero) = _compile((One(), Not(Zero())))
    assert names == [] and one == not_zero and steps[one] == (Not, 0, None)


def test_negated_group():
    assert parse("!(a + b)") == Not(Plus(Atom("a"), Atom("b")))


def test_dot_alias():
    assert parse("a.b") == parse("a;b") == Dot(Atom("a"), Atom("b"))


def test_left_associativity():
    assert parse("a + b + c") == Plus(Plus(Atom("a"), Atom("b")), Atom("c"))
    assert parse("a;b;c") == Dot(Dot(Atom("a"), Atom("b")), Atom("c"))


def test_star_and_bang_binding():
    assert parse("!a*") == Not(Star(Atom("a")))
    assert parse("a**") == Star(Star(Atom("a")))
    assert parse("!!a") == Not(Not(Atom("a")))
    assert parse("(!a)*") == Star(Not(Atom("a")))
    assert parse("a;!b") == Dot(Atom("a"), Not(Atom("b")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("a + %")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse("(a + b")
    assert "')'" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("a b")
    with pytest.raises(ParseError):
        parse("a +")
    with pytest.raises(ParseError) as err:
        parse("a +\n* b")
    assert err.value.line == 2


# --- the character-walking parser, kept as an oracle --------------------------------

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SYMBOLS = {
    "+": "PLUS",
    ";": "SEQ",
    ".": "SEQ",
    "*": "STAR",
    "!": "BANG",
    "(": "LPAREN",
    ")": "RPAREN",
    "0": "ZERO",
    "1": "ONE",
}


def _tokenize(src):
    tokens = []
    i, line, col = 0, 1, 1
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch.isspace():
            i, col = i + 1, col + 1
            continue
        m = _IDENT_RE.match(src, i)
        if m:
            text = m.group()
            tokens.append(("IDENT", text, line, col))
            i, col = m.end(), col + len(text)
            continue
        kind = _SYMBOLS.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, ch, line, col))
        i, col = i + 1, col + 1
    tokens.append(("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {_show(tok)}", tok[2], tok[3])
        return tok

    def sum_(self):
        node = self.seq()
        while self.peek()[0] == "PLUS":
            self.take()
            node = Plus(node, self.seq())
        return node

    def seq(self):
        node = self.unary()
        while self.peek()[0] == "SEQ":
            self.take()
            node = Dot(node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "BANG":
            self.take()
            return Not(self.unary())
        node = self.atom()
        while self.peek()[0] == "STAR":
            self.take()
            node = Star(node)
        return node

    def atom(self):
        tok = self.take()
        kind = tok[0]
        if kind == "IDENT":
            return Atom(tok[1])
        if kind == "ZERO":
            return Zero()
        if kind == "ONE":
            return One()
        if kind == "LPAREN":
            node = self.sum_()
            self.expect("RPAREN", "')'")
            return node
        raise ParseError(f"expected a term, found {_show(tok)}", tok[2], tok[3])


def _show(tok):
    return "end of input" if tok[0] == "EOF" else repr(tok[1])


def _oracle_parse(src):
    parser = _Parser(_tokenize(src))
    term = parser.sum_()
    parser.expect("EOF", "end of input")
    return term


def _outcome(parser, src):
    """The term, or the error's message, line and column."""
    try:
        return parser(src)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


# Term pieces (twice as likely), whitespace, and characters that start no
# token ("2" and "_" may only continue an identifier).
_PIECES = 2 * ["p", "q", "ab_1", "Z9", "0", "1", "+", ";", ".", "*", "!", "(", ")"]
_PIECES += [" ", "\n", "\t", "\r", "\xa0", "\x0b", "\u2028", "-", "%", "2", "_", "é", "<", "="]
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_TEXT)
def test_parse_matches_the_character_walking_parser(src):
    assert _outcome(parse, src) == _outcome(_oracle_parse, src)


@pytest.mark.parametrize("src", ["", "  \n\t", "a +\n  ", "(a;\r\nb", "x\xa0é", "!(", "a.b)"])
def test_parse_matches_the_oracle_at_the_edges(src):
    assert _outcome(parse, src) == _outcome(_oracle_parse, src)


def test_sort_rules(two_state_model):
    m = two_state_model  # programs: r, tests: p
    assert sort_check(parse("p ; p"), m) is Sort.TEST
    assert sort_check(parse("p + 1"), m) is Sort.TEST
    assert sort_check(parse("r"), m) is Sort.PROGRAM
    assert sort_check(parse("p;r"), m) is Sort.PROGRAM
    assert sort_check(parse("p*"), m) is Sort.PROGRAM
    assert sort_check(parse("0"), m) is Sort.TEST
    assert sort_check(parse("!p"), m) is Sort.TEST
    with pytest.raises(SortError):
        sort_check(parse("!r"), m)
    with pytest.raises(SortError):
        sort_check(parse("!(p;r)"), m)
    with pytest.raises(SortError):
        sort_check(parse("!p*"), m)  # star yields a program under !
    with pytest.raises(SortError):
        sort_check(parse("missing"), m)


def test_sort_of_with_explicit_names():
    assert sort_of(parse("a;b"), (), ("a", "b")) is Sort.TEST
    assert sort_of(parse("a;b"), ("a", "b"), ()) is Sort.PROGRAM


def test_desugar_if():
    a, p, q = Atom("a"), Atom("p"), Atom("q")
    assert desugar_if(a, p, q) == Plus(Dot(a, p), Dot(Not(a), q))
    assert desugar_if(One(), p, q) == Plus(Dot(One(), p), Dot(Not(One()), q))


def test_desugar_while():
    a, p = Atom("a"), Atom("p")
    assert desugar_while(a, p) == Dot(Star(Dot(a, p)), Not(a))


def test_desugared_terms_sort_check(two_state_model):
    m = two_state_model
    cond, body = parse("p"), parse("r")
    assert sort_check(desugar_while(cond, body), m) is Sort.PROGRAM
    assert sort_check(desugar_if(cond, body, body), m) is Sort.PROGRAM
    with pytest.raises(SortError):
        sort_check(desugar_if(parse("r"), body, body), m)


def test_pretty_examples():
    assert pretty(Plus(Atom("p"), Dot(Atom("q"), Star(Atom("r"))))) == "p + q;r*"
    assert pretty(Zero()) == "0"
    assert pretty(Not(Plus(Atom("a"), Atom("b")))) == "!(a + b)"
    assert pretty(Star(Not(Atom("a")))) == "(!a)*"
    assert pretty(Star(Star(Atom("a")))) == "a**"
    assert pretty(Dot(Atom("a"), Dot(Atom("b"), Atom("c")))) == "a;(b;c)"
    assert pretty(Plus(Atom("a"), Plus(Atom("b"), Atom("c")))) == "a + (b + c)"
    assert pretty(Dot(Plus(Atom("a"), Atom("b")), Atom("c"))) == "(a + b);c"


def test_round_trip_seeded():
    rng = random.Random(123)
    for _ in range(500):
        term = random_any_term(rng, rng.randint(0, 8))
        assert parse(pretty(term)) == term


@st.composite
def term_trees(draw, depth=5):
    if depth == 0:
        return draw(
            st.sampled_from([Zero(), One(), Atom("p"), Atom("q"), Atom("ab_1")])
        )
    kind = draw(st.integers(0, 5))
    if kind <= 1:
        return draw(term_trees(depth=0))
    child = term_trees(depth=depth - 1)
    if kind == 2:
        return Plus(draw(child), draw(child))
    if kind == 3:
        return Dot(draw(child), draw(child))
    if kind == 4:
        return Star(draw(child))
    return Not(draw(child))


@given(term_trees())
def test_round_trip_property(term):
    assert parse(pretty(term)) == term


def test_atoms_collection():
    assert atoms(parse("p + q;(r* + !p)")) == frozenset({"p", "q", "r"})
    assert atoms(parse("0 + 1")) == frozenset()


def test_sort_depends_only_on_declarations():
    # Two models, same declarations, different weights: same sorts.
    import json

    from pkat.plts import load_model

    def model(tt):
        return load_model(
            json.dumps(
                {
                    "lattice": "lukasiewicz3",
                    "states": ["s"],
                    "programs": {"r": [["s", "s", tt, "bot"]]},
                    "tests": {"p": {"s": [tt, "u"]}},
                }
            )
        )

    term = parse("p;r + !p")
    assert sort_check(term, model("top")) is sort_check(term, model("bot"))
