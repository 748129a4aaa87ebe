"""The generated kernel's inline static operators against `STATIC_IMPL`.

The kernel writes `+`, `-`, `*`, `mod`, the comparisons, the connectives and
`=`/`!=` as Python expressions in place of calls to their `STATIC_IMPL`
functions. Each static symbol is applied here to every sort-correct choice
of operands from a small grid, each operand given either as a literal or as
a variable read, and the generated function must give what the table's
function gives under the strict-undef rule: the same value of the same
type, or a `BasmError` of the same kind and message. The grid holds the
integer bound on both sides, `mod` by zero, booleans and `undef`, enum
members, and points 1e-12 apart, which `=` takes as equal within EPS.
"""
import itertools

import pytest

from basm import semantics
from basm.errors import BasmError
from basm.geometry import Circle, Line, Point
from basm.literals import load_state
from basm.oracles import ScriptedPolicy
from basm.semantics import eval_term, run, step
from basm.state import (
    ANY,
    BOOLEAN,
    CIRCLE,
    DYNAMIC,
    INTEGER,
    LINE,
    MAX_INT_DIGITS,
    POINT,
    STATIC_IMPL,
    STATIC_SYMBOLS,
    UNDEF,
    Sort,
    Symbol,
    UpdateSet,
)
from basm.syntax import App, Lit, Var, parse_program, parse_term_in

BIG = 10**MAX_INT_DIGITS - 1
P, P_NEAR, Q = Point(1.0, 2.0), Point(1.0, 2.0 + 1e-12), Point(4.0, 6.0)
COLOR = Sort("Color", ("red", "green"))

GRID = {
    INTEGER: [UNDEF, 0, 1, -1, 7, BIG, -BIG],
    BOOLEAN: [UNDEF, True, False],
    COLOR: [UNDEF, "red", "green"],
    POINT: [UNDEF, P, P_NEAR, Q],
    CIRCLE: [UNDEF, Circle(P, Q), Circle(P_NEAR, Q), Circle(Q, P)],
    LINE: [UNDEF, Line(P, Q), Line(P_NEAR, Q), Line(Q, P)],
}
GEOMETRY = (POINT, CIRCLE, LINE)
CALLS = {"powmod", "Cl", "L", "M", "Inc"}  # statics the kernel still calls


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except BasmError as e:
        return "error", e.kind, e.message
    return "value", type(value), value


def _expected(name, args):
    fn, strict = STATIC_IMPL[name]
    if strict and any(a is UNDEF for a in args):
        return "value", type(UNDEF), UNDEF
    return _outcome(fn, *args)


def _cases():
    """(static name, operand sorts) for every sort-correct application;
    `=` and `!=` once for each sort of the grid."""
    for name, sym in STATIC_SYMBOLS.items():
        if sym.arg_sorts == (ANY, ANY):
            yield from ((name, (sort, sort)) for sort in GRID)
        else:
            yield name, sym.arg_sorts


CASES = list(_cases())


@pytest.mark.parametrize("name, sorts", CASES,
                         ids=[f"{n}-{s[0].name}" for n, s in CASES])
def test_each_inline_static_agrees_with_its_table_function(name, sorts):
    reads = tuple(Var(Symbol(f"x{i}", (), sort, DYNAMIC)) for i, sort in enumerate(sorts))
    symbol = STATIC_SYMBOLS[name]
    inlined = name not in CALLS and not set(sorts) & set(GEOMETRY)
    for args in itertools.product(*(GRID[s] for s in sorts)):
        store = {(r.symbol.name, ()): a for r, a in zip(reads, args) if a is not UNDEF}
        want = _expected(name, args)
        # Each operand as a variable read or as a literal, which the kernel
        # names as a constant (`undef` as `U`) and does not test for undef;
        # `powmod`, the one ternary, takes three of the eight mixes.
        mixes = list(itertools.product((False, True), repeat=len(args)))
        for literal in mixes if len(args) < 3 else (mixes[0], mixes[5], mixes[-1]):
            term = App(symbol, tuple(Lit(a) if lit else r
                                     for r, a, lit in zip(reads, args, literal)))
            if not any(literal):
                namespace = semantics._generate(term)[1]
                assert (STATIC_IMPL[name][0] not in namespace.values()) == inlined
            got = _outcome(semantics._compiled(term), store.get, None)
            assert got == want, (name, args, literal)


def test_the_grid_reaches_the_bound_and_the_zero_divisor():
    """The grid makes `+`, `-` and `*` fail past the bound, and `mod` by zero."""
    assert _expected("+", (BIG, 1))[:2] == ("error", "arith")
    assert _expected("-", (-BIG, 1))[:2] == ("error", "arith")
    assert _expected("*", (BIG, 7))[:2] == ("error", "arith")
    assert _expected("mod", (7, 0)) == ("error", "arith", "mod by zero")
    assert _expected("=", (P, P_NEAR))[2] is True and P != P_NEAR


def _clash_message(key, first, second):
    updates = UpdateSet()
    updates.add(key, first)
    try:
        updates.add(key, second)
    except BasmError as e:
        return e.kind, e.message
    return None


def test_writes_of_points_within_eps_to_one_location_do_not_clash():
    prog = parse_program("vocab {\n  var p, q, r : Point\n}\n"
                         "do until false { par { p := q; p := r } }\n")
    init = load_state("q := point(1.0, 2.0)\nr := point(1.0, 2.000000000001)", prog.vocabulary)
    updates, _ = step(init, prog.step_rule)
    assert list(updates.items()) == [(("p", ()), P)]
    assert _clash_message(("p", ()), P, P_NEAR) is None


@pytest.mark.parametrize("target", ["a", "cell(1)"])
def test_writes_of_two_integers_to_one_location_clash_as_the_update_set_does(target):
    prog = parse_program("vocab {\n  var a, b, c : Integer\n  var cell(Integer) : Integer\n}\n"
                         f"do until false {{ par {{ {target} := b; {target} := c }} }}\n")
    init = load_state("b := 1\nc := 2", prog.vocabulary)
    with pytest.raises(BasmError) as caught:
        step(init, prog.step_rule)
    key = ("a", ()) if target == "a" else ("cell", (1,))
    assert (caught.value.kind, caught.value.message) == _clash_message(key, 1, 2)
    assert caught.value.message == f"clash at {target}"


# `undef` absorbs the inline integer operators by itself, with no undef test.
UNDEF_TERMS = parse_program("vocab {\n  var x, i : Integer\n}\ndo until i >= 3 { skip }\n")


def _eval(text, state_text=""):
    vocabulary = UNDEF_TERMS.vocabulary
    return _outcome(lambda: eval_term(load_state(state_text, vocabulary),
                                      parse_term_in(text, vocabulary))[0])


@pytest.mark.parametrize("text", ["undef mod 0", "x mod 0", "undef < 3", "3 >= undef",
                                  "x + undef", "undef * x", "-x", "(x - 1) mod x"])
def test_undef_absorbs_the_inline_integer_operators(text):
    assert _eval(text) == ("value", type(UNDEF), UNDEF)


@pytest.mark.parametrize("text", ["(x mod 0) + undef", "undef + (x mod 0)"])
def test_a_mod_by_zero_fails_beside_an_undef_operand(text):
    assert _eval(text, "x := 5") == ("error", "arith", "mod by zero")


def test_a_halting_test_over_an_unbound_counter_does_not_halt():
    trace = run(UNDEF_TERMS, load_state("", UNDEF_TERMS.vocabulary), ScriptedPolicy(),
                max_steps=3)
    assert trace.outcome.kind == "step-limit" and len(trace.steps) == 3


def test_undef_equals_only_itself():
    assert (UNDEF == 0) is False and (0 == UNDEF) is False
    assert (UNDEF == UNDEF) is True and (UNDEF != UNDEF) is False
