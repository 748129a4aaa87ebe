"""Lexer, parser, pretty-printer, and the canonical-text program id."""
import inspect
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basm.errors import BasmError, ParseError
from basm.geometry import Point
from basm.literals import MAX_INT_DIGITS, load_state, parse_location, parse_value
from basm.oracles import BuiltinPolicy, OracleSession, UniformRandomPolicy
from basm.semantics import StepRecord, eval_term, run, step
from basm.state import (
    BOOLEAN,
    DYNAMIC,
    INTEGER,
    POINT,
    UNDEF,
    Location,
    UpdateSet,
    Vocabulary,
    apply_updates,
    changes_nothing,
    value_conforms,
)
from basm.syntax import (
    KEYWORDS,
    MAX_NESTING,
    App,
    Assign,
    Cond,
    DO_UNTIL,
    ITERATE,
    Lit,
    Par,
    Program,
    Skip,
    Var,
    parse_program,
    parse_term_in,
    pretty,
    term_text,
    tokenize,
)

EUCLID = """\
vocab {
  var a, b, d : Integer
}
do until d = a {
  if b = 0 then
    d := a
  else par {
    a := b;
    b := a mod b
  }
}
"""


def test_tokenize_positions_and_two_char_ops():
    toks = tokenize("x := 1\ny <= 2")
    texts = [(t.kind, t.text) for t in toks]
    assert texts == [
        ("ident", "x"), ("punct", ":="), ("number", "1"),
        ("ident", "y"), ("punct", "<="), ("number", "2"), ("eof", ""),
    ]
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[3].line, toks[3].column) == (2, 1)


def test_tokenize_comments_and_bad_char():
    assert [t.text for t in tokenize("a # rest is gone\nb")] == ["a", "b", ""]
    with pytest.raises(ParseError):
        tokenize("a $ b")


# Name characters, letters and digits outside ASCII, and characters that end a name.
_NAME_ALPHABET = list("aZz_09é") + ["ß", "Ω", "²", "٣", " ", "\t", "(", ")", "#", ":", "."]


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(_NAME_ALPHABET), min_size=1, max_size=6))
def test_a_name_is_one_token_exactly_when_the_literal_reader_reads_it(text):
    """Program text and state files agree on what a name is: `text` is one
    `ident` token exactly when `parse_location` reads it as the variable."""
    assume(text not in KEYWORDS)
    vocab = Vocabulary()
    try:
        sym = vocab.declare(text, (), INTEGER, DYNAMIC)
    except BasmError:  # a builtin name
        assume(False)
    try:
        one_ident = [(t.kind, t.text) for t in tokenize(text)] == [("ident", text), ("eof", "")]
    except ParseError:
        one_ident = False
    try:
        read = parse_location(text, vocab) == Location(sym, ())
    except ParseError:
        read = False
    assert one_ident == read


@pytest.mark.parametrize("text, sort", [("٣", INTEGER), ("-٣", INTEGER), ("point(٣.0,1.0)", POINT)])
def test_the_literal_reader_takes_ascii_digits_only(text, sort):
    with pytest.raises(ParseError):
        parse_value(text, sort)


def test_coordinates_past_the_float_range_are_parse_errors():
    v = _terms_vocab()
    assert parse_term_in("point(1e308, -1e308)", v) == Lit(Point(1e308, -1e308))
    for coordinate in ("1e999", "-1e999", "9" * 400):
        with pytest.raises(ParseError) as e:
            parse_term_in(f"point({coordinate}, 0.0)", v)
        assert e.value.kind == "parse" and "float range" in e.value.message
        with pytest.raises(ParseError) as e:
            parse_value(f"point(0.0,{coordinate})", POINT)
        assert e.value.kind == "parse" and "float range" in e.value.message


def test_parse_euclid_shape():
    prog = parse_program(EUCLID)
    assert prog.mode == DO_UNTIL
    rule = prog.step_rule
    assert isinstance(rule, Cond)
    assert isinstance(rule.then_rule, Assign)
    assert isinstance(rule.else_rule, Par)
    assert len(rule.else_rule.rules) == 2
    assert prog.vocabulary.symbol("a").result_sort is INTEGER


def _terms_vocab():
    v = Vocabulary()
    v.declare("x", (), INTEGER, "dynamic")
    v.declare("y", (), INTEGER, "dynamic")
    v.declare("p", (), BOOLEAN, "dynamic")
    v.declare("q", (), BOOLEAN, "dynamic")
    return v


@pytest.mark.parametrize(
    "text",
    [
        "x + y * 2",
        "(x + y) * 2",
        "x - y - 2",
        "x - (y - 2)",
        "not p and x < y",
        "not (p and x < y)",
        "x mod y + 1",
        "0 - x",
        "-5",
        "x = undef",
        "(not p) = q",
        "(x < y) = p",
        "p = (x < y)",
        "x - -5",
        "not not p",
        "p or q and not p",
        "x * (y mod 2)",
    ],
)
def test_term_text_round_trip(text):
    v = _terms_vocab()
    term = parse_term_in(text, v)
    assert term_text(term) == text
    assert parse_term_in(term_text(term), v) == term


def test_precedence_shapes():
    v = _terms_vocab()
    t = parse_term_in("x + y * 2", v)
    assert t.symbol.name == "+"
    assert t.args[1].symbol.name == "*"
    t = parse_term_in("x - y - 2", v)  # left associative
    assert t.symbol.name == "-" and t.args[0].symbol.name == "-"
    t = parse_term_in("-x", v)  # desugars; no unary node
    assert t.symbol.name == "-" and t.args[0] == Lit(0)
    assert parse_term_in("-5", v) == Lit(-5)


def test_comparisons_do_not_chain():
    with pytest.raises(ParseError):
        parse_term_in("1 < 2 < 3", _terms_vocab())


@pytest.mark.parametrize("text", ["x = y = p", "p and x = y = p", "not x = y = p",
                                  "p or x < y = p"])
def test_a_comparison_does_not_take_a_comparison_as_its_left_operand(text):
    """Each would be well sorted as `(x = y) = p`; the second comparison is
    left over, whatever looser operator encloses the first."""
    with pytest.raises(ParseError) as e:
        parse_term_in(text, _terms_vocab())
    assert e.value.kind == "parse"
    assert "trailing input after the term" in e.value.message


def test_cross_sort_equality_rejected():
    with pytest.raises(ParseError) as e:
        parse_term_in("1 = true", _terms_vocab())
    assert e.value.kind == "sort"


def test_fractional_literal_only_inside_point():
    with pytest.raises(ParseError):
        parse_term_in("1.5 + 1", _terms_vocab())


def test_integer_literals_are_bounded_at_every_reader():
    v = _terms_vocab()
    at_bound, past = "9" * MAX_INT_DIGITS, "9" * (MAX_INT_DIGITS + 1)
    assert parse_term_in(f"x + {at_bound}", v).args[1] == Lit(int(at_bound))
    assert parse_value(f"-{at_bound}", INTEGER) == -int(at_bound)
    with pytest.raises(ParseError) as e:
        parse_term_in(f"x + {past}", v)
    assert e.value.kind == "parse" and (e.value.line, e.value.column) == (1, 5)
    assert f"longer than {MAX_INT_DIGITS} digits" in e.value.message
    with pytest.raises(ParseError) as e:
        parse_value(past, INTEGER)
    assert e.value.kind == "parse"


# Names, literals, keywords and punctuation of terms over `_terms_vocab`.
TOKENS = ["x", "y", "p", "q", "0", "7", "1.5", "true", "false", "undef", "point", "not",
          "and", "or", "mod", "if", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "(",
          ")", ",", ":="]


def _joined(groups) -> list[str]:
    """Operands, each after some prefixes and before some `)`, joined by the
    operator of their group; the last group's operator is dropped."""
    tokens = []
    for prefixes, operand, closers, op in groups:
        tokens += [*prefixes, operand, *closers, op]
    return tokens[:-1]


def _shaped(operands, prefixes, operators):
    return st.lists(
        st.tuples(st.lists(st.sampled_from(prefixes), max_size=2), st.sampled_from(operands),
                  st.lists(st.just(")"), max_size=1), st.sampled_from(operators)),
        min_size=1, max_size=6,
    ).map(_joined)


# Token soups shaped like terms over one sort, which parse far more often than
# uniform ones; brackets open and close at random, so many are unbalanced.
SHAPED = st.one_of(
    _shaped(["x", "y", "0", "7", "undef"], ["-", "("], ["+", "-", "*", "mod", "<", "="]),
    _shaped(["p", "q", "true", "false", "undef"], ["not", "("], ["and", "or", "=", "!="]),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=14), SHAPED))
def test_token_soup_parses_and_round_trips_or_is_a_parse_error(tokens):
    v = _terms_vocab()
    try:
        term = parse_term_in(" ".join(tokens), v)
    except ParseError:
        return
    assert parse_term_in(term_text(term), v) == term


def test_geometry_literals():
    v = _terms_vocab()
    t = parse_term_in("point(2.5, -4.25)", v)
    assert t.value.x == 2.5 and t.value.y == -4.25
    c = parse_term_in("circle(point(0.0, 0.0), point(5.0, 0.0))", v)
    assert c.value.center.x == 0.0 and c.value.through.x == 5.0


def _program(body: str, decls: str = "var x, y : Integer\n  var p : Boolean") -> Program:
    return parse_program("vocab {\n  " + decls + "\n}\n" + body)


def test_dangling_else_binds_to_nearest_if():
    prog = _program("do until p {\n  if p then if x = 0 then skip else y := 1\n}")
    outer = prog.step_rule
    assert outer.else_rule is None
    assert outer.then_rule.else_rule is not None


def test_grouping_braces_are_transparent():
    a = _program("do until p { { x := 1 } }")
    b = _program("do until p { x := 1 }")
    assert a.step_rule == b.step_rule


@pytest.mark.parametrize(
    "body,kind",
    [
        ("do until x { skip }", "sort"),  # non-boolean halt
        ("do until R(1, 2) = 0 { skip }", "interactive-halt"),
        ("iterate { x := R(1, 2) }", "interactive-fixpoint"),
        ("do until p { powmod(1, 2) := 3 }", "sort"),  # assign to static
        ("do until p { R(1, 2) := 3 }", "sort"),  # assign to oracle
        ("do until p { f(R(1, 2)) := 3 }", "sort"),  # oracle in target args
        ("do until p { x := powmod(1, 2) }", "sort"),  # arity
        ("do until p { x := p }", "sort"),  # rhs sort mismatch
        ("do until p { x := 1 } skip", "parse"),  # trailing input
        ("do until p { x := nope }", "sort"),  # unknown symbol
    ],
)
def test_load_time_rejections(body, kind):
    decls = "var x, y : Integer\n  var p : Boolean\n  var f(Integer) : Integer\n  oracle R(Integer, Integer) : Integer"
    with pytest.raises(ParseError) as e:
        _program(body, decls)
    assert e.value.kind == kind


def test_keyword_cannot_be_an_identifier():
    with pytest.raises(ParseError):
        parse_program("vocab { var if : Integer }\ndo until true { skip }")


@pytest.mark.parametrize("decls, line", [
    ("enum A { u, v }\n  enum B { v, w }", 3),  # a member of two sorts
    ("enum A { u, u }", 2),
    ("enum A { x }\n  var x : Integer", 3),  # a member and a variable
    ("var x : Integer\n  enum A { x }", 3),
    ("enum A { M }", 2),  # a builtin static
])
def test_a_member_name_is_unique_across_the_vocabulary(decls, line):
    """A member value is its bare name, so no name may stand for two things."""
    with pytest.raises(ParseError) as e:
        _program("do until true { skip }", decls)
    assert (e.value.kind, e.value.line) == ("sort", line)


def test_program_id_ignores_formatting():
    spaced = EUCLID.replace("do until", "do\n   until").replace("  ", "\t") + "\n# tail\n"
    assert parse_program(EUCLID).program_id == parse_program(spaced).program_id


def test_program_id_separates_machines():
    other = EUCLID.replace("d = a", "b = 0")
    assert parse_program(EUCLID).program_id != parse_program(other).program_id


def test_pretty_round_trip_euclid():
    prog = parse_program(EUCLID)
    again = parse_program(pretty(prog))
    assert again == prog
    assert pretty(again) == pretty(prog)


# A malformed program, as the declarations and the loop that `_program` joins,
# with the exact kind and message, position included, that it fails with.
LOOP_DECLS = "var x: Integer\n  var p: Boolean\n  oracle R(Integer): Integer"
MALFORMED = {
    "unknown declaration": ("foo x: Integer", "do until p { skip }", "parse",
                            "expected a declaration (enum, var, static, or oracle) (line 2, column 3)"),
    "enum without a name": ("enum { u }", "do until p { skip }", "parse",
                            "expected a name, found '{' (line 2, column 8)"),
    "enum without a member": ("enum A { }", "do until p { skip }", "parse",
                              "expected a name, found '}' (line 2, column 12)"),
    "enum trailing comma": ("enum A { u, }", "do until p { skip }", "parse",
                            "expected a name, found '}' (line 2, column 15)"),
    "enum repeated member": ("enum A { u, u }", "do until p { skip }", "sort",
                             "enum sort A repeats a member (line 2, column 3)"),
    "var list with arguments": ("var a, b(Integer): Integer", "do until p { skip }", "parse",
                                "expected ':', found '(' (line 2, column 11)"),
    "var unclosed sorts": ("var a(Integer: Integer", "do until p { skip }", "parse",
                           "expected ')', found ':' (line 2, column 16)"),
    "var without a name": ("var : Integer", "do until p { skip }", "parse",
                           "expected a name, found ':' (line 2, column 7)"),
    "unknown result sort": ("var a: Real", "do until p { skip }", "sort",
                            "unknown sort: Real (line 2, column 10)"),
    "unknown argument sort": ("var a(Integer, Real): Integer", "do until p { skip }", "sort",
                              "unknown sort: Real (line 2, column 18)"),
    "duplicate name": ("var a: Integer\n  oracle a(Integer): Integer", "do until p { skip }", "sort",
                       "symbol already declared: a (line 3, column 3)"),
    "oracle without sorts": ("oracle R: Integer", "do until p { skip }", "parse",
                             "expected '(', found ':' (line 2, column 11)"),
    "oracle trailing comma": ("oracle R(Integer,): Integer", "do until p { skip }", "parse",
                              "expected a name, found ')' (line 2, column 20)"),
    "circle of a circle": (
        LOOP_DECLS,
        "do until p { x := circle(circle(point(0, 0), point(1, 0)), point(1, 0)) = undef }",
        "parse", "expected point(..) (line 6, column 26)"),
    "line of one point": (LOOP_DECLS, "do until line(point(0, 0)) = undef { skip }", "parse",
                          "expected ',', found ')' (line 6, column 26)"),
    "point of a name": (LOOP_DECLS, "do until point(1, x) = undef { skip }", "parse",
                        "expected a number (line 6, column 19)"),
    "point past the float range": (
        LOOP_DECLS, "do until point(1e999, 0) = undef { skip }", "parse",
        "coordinate out of the float range: 1e999 (line 6, column 16)"),
    "Integer halting term": (LOOP_DECLS, "do until x + 1 { skip }", "sort",
                             "halting condition has sort Integer, expected Boolean (line 6, column 1)"),
    "oracle in the halting term": (
        LOOP_DECLS, "do until R(x) = 0 { skip }", "interactive-halt",
        "halting condition may not query an oracle (line 6, column 1)"),
    "oracle under iterate": (
        LOOP_DECLS, "iterate { x := R(x) }", "interactive-fixpoint",
        "implicit iteration cannot contain oracle queries (line 6, column 1)"),
    "do until without {": (LOOP_DECLS, "do until p skip }", "parse",
                           "expected '{', found 'skip' (line 6, column 12)"),
    "do until without }": (LOOP_DECLS, "do until p { skip", "parse",
                           "expected '}', found '' (line 6, column 18)"),
    "iterate without {": (LOOP_DECLS, "iterate skip }", "parse",
                          "expected '{', found 'skip' (line 6, column 9)"),
    "iterate without }": (LOOP_DECLS, "iterate { skip", "parse",
                          "expected '}', found '' (line 6, column 15)"),
    "input after a do until body": (LOOP_DECLS, "do until p { skip } skip", "parse",
                                    "trailing input after the program body (line 6, column 21)"),
    "input after an iterate body": (LOOP_DECLS, "iterate { skip } }", "parse",
                                    "trailing input after the program body (line 6, column 18)"),
    "do without until": (LOOP_DECLS, "do p { skip }", "parse",
                         "expected 'until', found 'p' (line 6, column 4)"),
    "no loop": (LOOP_DECLS, "", "parse",
                "expected 'do until' or 'iterate' after the vocab block (line 6, column 1)"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_program_fails_with_its_exact_error(case):
    decls, loop, kind, message = MALFORMED[case]
    with pytest.raises(ParseError) as e:
        _program(loop, decls)
    assert (e.value.kind, e.value.message) == (kind, message)


STATIC_MENTIONS = """\
vocab {
  var q: Point
  var K: Circle
  var n: Integer
  static Inc(Point, Circle): Boolean
  static powmod(Integer, Integer, Integer): Integer
}
do until Inc(q, K) {
  n := powmod(n, 2, 7)
}
"""


def test_a_static_mention_parses_and_round_trips():
    prog = parse_program(STATIC_MENTIONS)
    assert pretty(prog) == STATIC_MENTIONS
    assert [(kw, sym.name) for kw, sym in prog.vocabulary.declarations[-2:]] == [
        ("static", "Inc"), ("static", "powmod")]
    assert parse_program(pretty(prog)) == prog
    assert prog.program_id == "5a1a315f283944d6ce4007d5601500e7654fc3e3c12242a00d381e5f82437374"


@pytest.mark.parametrize("decl, kind, message", [
    ("static Inc(Point, Point): Boolean", "sort",
     "static Inc redeclared with a different signature (line 3, column 3)"),
    ("static Inc(Point, Circle): Integer", "sort",
     "static Inc redeclared with a different signature (line 3, column 3)"),
    ("static Foo(Integer): Integer", "sort", "unknown static symbol: Foo (line 3, column 3)"),
    ("static mod(Integer, Integer): Integer", "parse",
     "expected a name, found 'mod' (line 3, column 10)"),
])
def test_a_wrong_static_mention_is_an_error_at_its_line(decl, kind, message):
    with pytest.raises(ParseError) as e:
        _program("do until true { skip }", "var n: Integer\n  " + decl)
    assert (e.value.kind, e.value.message) == (kind, message)


# Each builds a program body nesting one construct `n` levels deep.
NESTED = {
    "parentheses": lambda n: "x := " + "x + (" * n + "1" + ")" * n,
    "arguments": lambda n: "x := " + "f(" * n + "1" + ")" * n,
    "not": lambda n: "p := " + "not " * n + "p",
    "unary minus": lambda n: "x := " + "- " * n + "x",
    "par": lambda n: "par { " * n + "x := 1" + " }" * n,
    "if": lambda n: "if p then " * n + "x := 1",
    "operator chain": lambda n: "x := " + " + ".join(["1"] * (n + 1)),
}


def _nested(body: str) -> Program:
    return _program("do until x > 0 {\n  " + body + "\n}",
                    "var x : Integer\n  var p : Boolean\n  var f(Integer) : Integer")


@pytest.mark.parametrize("construct", NESTED)
def test_nesting_at_the_bound_parses_runs_and_round_trips(construct):
    prog = _nested(NESTED[construct](MAX_NESTING))
    assert parse_program(pretty(prog)) == prog
    state = load_state("x := 0\np := true\n", prog.vocabulary)
    trace = run(prog, state, BuiltinPolicy(), max_steps=1)
    assert trace.outcome.kind in ("halted", "step-limit")


@pytest.mark.parametrize("construct", NESTED)
def test_nesting_at_the_bound_needs_at_most_eight_frames_a_level(construct):
    body = NESTED[construct](MAX_NESTING)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 8 * MAX_NESTING)
    try:
        _nested(body)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("construct", NESTED)
def test_nesting_past_the_bound_is_a_parse_error(construct):
    with pytest.raises(ParseError) as e:
        _nested(NESTED[construct](MAX_NESTING + 1))
    assert e.value.kind == "parse"
    assert f"nested deeper than {MAX_NESTING} levels" in e.value.message


# --- a small random program generator for the round-trip property -----------

def _gen_vocab() -> Vocabulary:
    v = Vocabulary()
    v.declare_enum("E", ["e1", "e2"])
    v.declare("x", (), INTEGER, "dynamic")
    v.declare("y", (), INTEGER, "dynamic")
    v.declare("p", (), BOOLEAN, "dynamic")
    v.declare("cur", (), v.sort("E"), "dynamic")
    v.declare("f", (INTEGER,), INTEGER, "dynamic")
    v.declare("R", (INTEGER, INTEGER), INTEGER, "oracle")
    return v


VOCAB = _gen_vocab()
SYM = {name: VOCAB.symbol(name) for name in ("x", "y", "p", "cur", "f", "R")}
OP = VOCAB.symbols


@st.composite
def int_term(draw, depth: int = 3, oracle: bool = True):
    options = ["lit", "x", "y"]
    if depth > 0:
        options += ["bin", "f"]
        if oracle:
            options.append("R")
    kind = draw(st.sampled_from(options))
    if kind == "lit":
        return Lit(draw(st.integers(-20, 20)))
    if kind in ("x", "y"):
        return Var(SYM[kind])
    sub = int_term(depth - 1, oracle)
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "mod"]))
        return App(OP[op], (draw(sub), draw(sub)))
    if kind == "f":
        return App(SYM["f"], (draw(sub),))
    return App(SYM["R"], (draw(sub), draw(sub)))


@st.composite
def bool_term(draw, depth: int = 3, oracle: bool = True):
    options = ["lit", "p", "cmp", "eq"]
    if depth > 0:
        options += ["and", "or", "not"]
    kind = draw(st.sampled_from(options))
    if kind == "lit":
        return Lit(draw(st.booleans()))
    if kind == "p":
        return Var(SYM["p"])
    ints = int_term(max(depth - 1, 0), oracle)
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        return App(OP[op], (draw(ints), draw(ints)))
    if kind == "eq":
        op = draw(st.sampled_from(["=", "!="]))
        left = draw(ints)
        right = draw(st.one_of(ints, st.just(Lit(UNDEF))))
        return App(OP[op], (left, right))
    subs = bool_term(depth - 1, oracle)
    if kind == "not":
        return App(OP["not"], (draw(subs),))
    return App(OP[kind], (draw(subs), draw(subs)))


@st.composite
def rule(draw, depth: int = 3, oracle: bool = True):
    options = ["skip", "assign"]
    if depth > 0:
        options += ["cond", "par"]
    kind = draw(st.sampled_from(options))
    if kind == "skip":
        return Skip()
    if kind == "assign":
        target = draw(st.sampled_from(["x", "y", "p", "cur", "f"]))
        if target == "p":
            return Assign(Var(SYM["p"]), draw(bool_term(1, oracle)))
        if target == "cur":
            member = draw(st.sampled_from(["e1", "e2"]))
            return Assign(Var(SYM["cur"]), Lit(member))
        if target == "f":
            arg = draw(int_term(1, oracle=False))  # target args are oracle-free
            return Assign(App(SYM["f"], (arg,)), draw(int_term(2, oracle)))
        return Assign(Var(SYM[target]), draw(int_term(2, oracle)))
    if kind == "cond":
        subs = rule(depth - 1, oracle)
        else_rule = draw(st.one_of(st.none(), subs))
        return Cond(draw(bool_term(2, oracle)), draw(subs), else_rule)
    children = draw(st.lists(rule(depth - 1, oracle), min_size=1, max_size=3))
    return Par(tuple(children))


@st.composite
def program(draw):
    if draw(st.booleans()):
        return Program(_gen_vocab(), DO_UNTIL, draw(bool_term(2, oracle=False)),
                       draw(rule(3, oracle=True)))
    return Program(_gen_vocab(), ITERATE, None, draw(rule(3, oracle=False)))


@settings(max_examples=150, deadline=None)
@given(program())
def test_pretty_parse_round_trip(prog):
    text = pretty(prog)
    again = parse_program(text)
    assert again == prog
    assert pretty(again) == text
    assert again.program_id == prog.program_id


# Kinds a well-sorted step may still fail with at run time.
RUNTIME_KINDS = {"arith", "clash", "oracle-domain"}


@settings(max_examples=300, deadline=None)
@given(program(), st.integers(-20, 20), st.integers(-20, 20), st.booleans(),
       st.sampled_from(["e1", "e2"]),
       st.dictionaries(st.integers(-5, 5), st.integers(-20, 20), max_size=3),
       st.integers(0, 2**32))
def test_committed_updates_conform_to_their_sorts(prog, x, y, p, cur, table, seed):
    """A state trusts its bindings; this is what makes that sound. A parsed
    program, stepped from a well-sorted state, only commits well-sorted
    updates. The steps ignore the halting condition, so every program runs."""
    prog = parse_program(pretty(prog))
    text = f"x := {x}\ny := {y}\np := {str(p).lower()}\ncur := {cur}\n"
    text += "".join(f"f({k}) := {v}\n" for k, v in table.items())
    state = load_state(text, prog.vocabulary)
    session = OracleSession(UniformRandomPolicy(seed), prog.vocabulary)
    for _ in range(4):
        session.begin_step()
        try:
            updates, _ = step(state, prog.step_rule, session)
        except BasmError as e:
            assert e.kind in RUNTIME_KINDS
            return
        for (name, args), value in updates.items():
            sym = prog.vocabulary.symbol(name)
            assert sym.kind == DYNAMIC and len(args) == sym.arity
            assert all(value_conforms(a, s) for a, s in zip(args, sym.arg_sorts))
            assert value_conforms(value, sym.result_sort)
        state = apply_updates(state, updates)


def _fold_of_steps(prog, init, seed, max_steps):
    """The run loop written out with `step` and the pure `apply_updates`:
    the step records, the final state and the outcome (kind, error)."""
    session = OracleSession(UniformRandomPolicy(seed), prog.vocabulary)
    state, records = init, []
    while True:
        if prog.mode == DO_UNTIL:
            try:
                halt, _ = eval_term(state, prog.halt)
            except BasmError as e:
                return records, state, ("error", e.kind)
            if halt is True:
                if records:
                    records[-1].halted_after = True
                return records, state, ("halted", None)
        if len(records) >= max_steps:
            return records, state, ("step-limit", None)
        start = session.begin_step()
        try:
            updates, interactions = step(state, prog.step_rule, session)
        except BasmError as e:
            records.append(StepRecord(len(records), UpdateSet(), tuple(session.log[start:])))
            return records, state, ("error", e.kind)
        records.append(StepRecord(len(records), updates, tuple(interactions)))
        unchanged = prog.mode == ITERATE and changes_nothing(state, updates)
        state = apply_updates(state, updates)
        if unchanged:
            records[-1].halted_after = True
            return records, state, ("halted", None)


@pytest.mark.parametrize("mode", [DO_UNTIL, ITERATE])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_is_a_fold_of_step_and_apply_updates(mode, data):
    """`run` commits into one working store in place; folding `step` with the
    pure `apply_updates` from the same initial state gives the same steps,
    final state and outcome, and leaves the initial state as it was."""
    prog = data.draw(program().filter(lambda p: p.mode == mode))
    x, y = data.draw(st.integers(-20, 20)), data.draw(st.integers(-20, 20))
    table = data.draw(st.dictionaries(st.integers(-5, 5), st.integers(-20, 20), max_size=3))
    text = f"x := {x}\ny := {y}\np := {str(data.draw(st.booleans())).lower()}\n"
    text += f"cur := {data.draw(st.sampled_from(['e1', 'e2']))}\n"
    text += "".join(f"f({k}) := {v}\n" for k, v in table.items())
    init = load_state(text, prog.vocabulary)
    before = dict(init.store)
    seed = data.draw(st.integers(0, 2**32))
    trace = run(prog, init, UniformRandomPolicy(seed), max_steps=6)
    records, final, outcome = _fold_of_steps(prog, init, seed, max_steps=6)
    assert trace.steps == records
    assert trace.final_state == final
    assert (trace.outcome.kind, trace.outcome.error) == outcome
    assert init.store == before and trace.final_state.store is not init.store
