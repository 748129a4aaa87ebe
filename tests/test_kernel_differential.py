"""The generated kernel against the closure compiler it replaced.

`reference_term` and `reference_rule` below are the closure compiler that
`semantics` used before it generated source: each node a nested closure
`(get, ask) -> value` or `(get, ask, add)`. Random programs, an extension of
the round-trip generator of `test_syntax.py`, are stepped by both kernels
from the same random state under the same oracle policy, scripted or
seeded uniform. Each step must give the same update set in the same order,
the same interactions in order, and the same error kind and message; the
halting term must give the same value or error before each step.

The programs cover `undef` literals and `undef` writes, strict statics and
`=`/`!=` on points, `and`/`or`/`not` with `undef` operands, n-ary reads and
writes whose arguments read state, oracle queries, clashes, `mod` by zero, a
sum or product past 640 digits, and nested `if`/`par`. The listed cases below
also pin the subterms the kernel shares: a variable read twice in one term, a
guard's read used in both branches, a repeated static application, n-ary read
or query, equal literals, a repeat inside one branch that the other branch and
the code after the `if` must make again, and a repeat whose first evaluation
fails. `test_a_repeated_subterm_is_evaluated_once_per_block` counts the
evaluations themselves, which the two kernels' outputs cannot show.
"""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basm.errors import BasmError
from basm.geometry import Point
from basm.literals import load_state
from basm.oracles import OracleSession, ScriptedPolicy, UniformRandomPolicy
from basm.semantics import eval_term, observe_step, step
from basm.state import (
    DYNAMIC,
    MAX_INT_DIGITS,
    STATIC,
    STATIC_IMPL,
    UNDEF,
    Location,
    State,
    UpdateSet,
    apply_updates,
)
from basm.syntax import (
    App,
    Assign,
    Cond,
    Lit,
    Par,
    Program,
    Skip,
    Term,
    Var,
    parse_program,
)

BIG = 10**MAX_INT_DIGITS - 1  # the widest integer; one more digit is an "arith" error
STEPS = 4


# --- the closure compiler, as the reference ------------------------------------


def reference_term(term: Term):
    """A closure `(get, ask) -> value` that evaluates the term; `get` is the
    store's `get`, called as `get(key, UNDEF)`."""
    if isinstance(term, Lit):
        value = term.value
        return lambda get, ask: value
    if isinstance(term, Var):
        key = (term.symbol.name, ())
        return lambda get, ask: get(key, UNDEF)
    sym = term.symbol
    subs = tuple(reference_term(a) for a in term.args)
    if sym.kind == STATIC:
        fn, strict = STATIC_IMPL[sym.name]
        if len(subs) == 2:  # the common case, without the argument list
            left, right = subs
            if not strict:
                return lambda get, ask: fn(left(get, ask), right(get, ask))

            def strict2(get, ask):
                a, b = left(get, ask), right(get, ask)
                return UNDEF if a is UNDEF or b is UNDEF else fn(a, b)
            return strict2

        def static(get, ask):
            args = [s(get, ask) for s in subs]
            return UNDEF if strict and any(a is UNDEF for a in args) else fn(*args)
        return static
    name, args = sym.name, reference_args(subs)
    if sym.kind == DYNAMIC:
        return lambda get, ask: get((name, args(get, ask)), UNDEF)
    return lambda get, ask: ask(Location(sym, args(get, ask)))


def reference_args(subs: tuple):
    """A closure `(get, ask) -> tuple` of the compiled arguments' values."""
    if len(subs) == 1:
        sub, = subs
        return lambda get, ask: (sub(get, ask),)
    return lambda get, ask: tuple([s(get, ask) for s in subs])


def reference_rule(rule):
    """A closure `(get, ask, add)` that adds the rule's updates by `add`,
    keyed by location pairs."""
    if isinstance(rule, Skip):
        return lambda get, ask, add: None
    if isinstance(rule, Assign):
        rhs = reference_term(rule.rhs)
        name = rule.target.symbol.name
        if isinstance(rule.target, Var):
            key = (name, ())
            return lambda get, ask, add: add(key, rhs(get, ask))
        args = reference_args(tuple(reference_term(a) for a in rule.target.args))

        def assign(get, ask, add):
            value = rhs(get, ask)
            add((name, args(get, ask)), value)
        return assign
    if isinstance(rule, Cond):
        guard = reference_term(rule.guard)
        then_rule = reference_rule(rule.then_rule)
        else_rule = None if rule.else_rule is None else reference_rule(rule.else_rule)

        def cond(get, ask, add):
            if guard(get, ask) is True:
                then_rule(get, ask, add)
            elif else_rule is not None:
                else_rule(get, ask, add)
        return cond
    if isinstance(rule, Par):
        subs = tuple(reference_rule(r) for r in rule.rules)

        def par(get, ask, add):
            for r in subs:
                r(get, ask, add)
        return par
    raise TypeError(f"not a rule: {rule!r}")


def reference_step(state: State, rule, session: OracleSession):
    updates = UpdateSet()
    reference_rule(rule)(state.store.get, session.ask, updates.add)
    return updates, list(session.per_step_cache.values())


def _no_session(query):
    raise BasmError("oracle-domain", f"no oracle session for query {query.render()}")


def reference_eval(state: State, term: Term):
    return reference_term(term)(state.store.get, _no_session)


def generated_eval(state: State, term: Term):
    return eval_term(state, term)[0]


# --- random programs -------------------------------------------------------------


VOCAB_TEXT = """vocab {
  var x, y : Integer
  var p : Boolean
  var P, Q : Point
  var f(Integer) : Integer
  oracle R(Integer, Integer) : Integer
}
"""
VOCAB = parse_program(VOCAB_TEXT + "do until false { skip }\n").vocabulary
SYM = {name: VOCAB.symbol(name) for name in ("x", "y", "p", "P", "Q", "f", "R")}
OP = VOCAB.symbols
INTS = [*range(-6, 7), BIG, -BIG]
POINTS = [Point(a, b) for a in (-2, 0, 3) for b in (-1, 1)]


@st.composite
def int_term(draw, depth: int, oracle: bool = True):
    options = ["lit", "x", "y"] + (["bin", "bin", "f"] + ["R", "R"] * oracle if depth > 0 else [])
    kind = draw(st.sampled_from(options))
    if kind == "lit":
        return Lit(draw(st.sampled_from([*INTS, UNDEF])))
    if kind in ("x", "y"):
        return Var(SYM[kind])
    sub = int_term(depth - 1, oracle)
    if kind == "bin":
        return App(OP[draw(st.sampled_from(["+", "-", "*", "mod"]))], (draw(sub), draw(sub)))
    if kind == "f":
        return App(SYM["f"], (draw(sub),))
    return App(SYM["R"], (draw(sub), draw(sub)))


@st.composite
def point_term(draw, depth: int):
    kind = draw(st.sampled_from(["lit", "P", "Q"] + ["M"] * (depth > 0)))
    if kind == "lit":
        return Lit(draw(st.sampled_from([*POINTS, UNDEF])))
    if kind == "M":
        return App(OP["M"], (draw(point_term(depth - 1)), draw(point_term(depth - 1))))
    return Var(SYM[kind])


@st.composite
def bool_term(draw, depth: int, oracle: bool = True):
    options = ["lit", "p", "cmp", "eq", "peq"] + (["and", "or", "not"] if depth > 0 else [])
    kind = draw(st.sampled_from(options))
    if kind == "lit":
        return Lit(draw(st.sampled_from([True, False, UNDEF])))
    if kind == "p":
        return Var(SYM["p"])
    ints = int_term(max(depth - 1, 0), oracle)
    if kind == "cmp":
        return App(OP[draw(st.sampled_from(["<", "<=", ">", ">="]))], (draw(ints), draw(ints)))
    if kind in ("eq", "peq"):
        sub = ints if kind == "eq" else point_term(1)
        return App(OP[draw(st.sampled_from(["=", "!="]))], (draw(sub), draw(sub)))
    subs = bool_term(depth - 1, oracle)
    if kind == "not":
        return App(OP["not"], (draw(subs),))
    return App(OP[kind], (draw(subs), draw(subs)))


@st.composite
def rule(draw, depth: int, oracle: bool = True):
    options = ["skip", "assign", "assign", "undef"] + (["cond", "par"] if depth > 0 else [])
    kind = draw(st.sampled_from(options))
    if kind == "skip":
        return Skip()
    target = draw(st.sampled_from(["x", "y", "p", "P", "f"]))
    if target == "f":
        lhs = App(SYM["f"], (draw(int_term(1, oracle=False)),))  # target args are oracle-free
    else:
        lhs = Var(SYM[target])
    if kind == "undef":
        return Assign(lhs, Lit(UNDEF))
    if kind == "assign":
        if target == "p":
            return Assign(lhs, draw(bool_term(1, oracle)))
        if target == "P":
            return Assign(lhs, draw(point_term(2)))
        return Assign(lhs, draw(int_term(2, oracle)))
    subs = rule(depth - 1, oracle)
    if kind == "cond":
        return Cond(draw(bool_term(2, oracle)), draw(subs), draw(st.one_of(st.none(), subs)))
    return Par(tuple(draw(st.lists(subs, min_size=1, max_size=3))))


@st.composite
def program(draw):
    body = Par(tuple(draw(st.lists(rule(2), min_size=1, max_size=4))))
    if draw(st.booleans()):
        return Program(VOCAB, draw(bool_term(2, oracle=False)), body)
    return Program(VOCAB, None, body)


@st.composite
def state(draw):
    store = {}
    for name, values in (("x", INTS), ("y", INTS), ("p", [True, False]), ("P", POINTS),
                         ("Q", POINTS)):
        value = draw(st.sampled_from([*values, UNDEF]))
        if value is not UNDEF:
            store[(name, ())] = value
    for k, v in draw(st.dictionaries(st.integers(-6, 6), st.integers(-6, 6), max_size=3)).items():
        store[("f", (k,))] = v
    return State(VOCAB, store)


def policies():
    scripted = st.lists(st.integers(-6, 6), max_size=6).map(
        lambda answers: lambda: ScriptedPolicy.from_answers(answers))
    uniform = st.integers(0, 2**32).map(lambda seed: lambda: UniformRandomPolicy(seed))
    return st.one_of(scripted, uniform)


# --- the comparison --------------------------------------------------------------


def _value_or_error(thunk):
    try:
        value = thunk()
    except BasmError as e:
        return "error", e.kind, e.message
    return "value", type(value), value


def _observed(prog: Program, init: State, make_policy, step_fn, evaluate) -> list:
    """What one kernel does on `STEPS` steps: each step's halting value or
    error, then its updates in the order added, its interactions and its
    error outcome. Steps run whatever the halting value, so every rule runs."""
    session = OracleSession(make_policy(), prog.vocabulary)
    current, seen = init, []
    for _ in range(STEPS):
        if prog.halt is not None:
            seen.append(_value_or_error(lambda: evaluate(current, prog.halt)))
        record, failed = observe_step(current, prog.step_rule, session, step_fn)
        updates = [(key, type(v), v) for key, v in record.updates.items()]
        seen.append((updates, record.interactions,
                     failed and (failed.kind, failed.error, failed.detail)))
        if failed:
            break
        current = apply_updates(current, record.updates)
    return seen


@settings(max_examples=100, deadline=None)
@given(program(), state(), policies())
def test_the_generated_kernel_steps_as_the_closure_compiler(prog, init, make_policy):
    expected = _observed(prog, init, make_policy, reference_step, reference_eval)
    assert _observed(prog, init, make_policy, step, generated_eval) == expected


# Each listed case once, whatever the random programs happen to draw: a
# program body over the generator's vocabulary and its initial state.
CASES = {
    "overflow": ("par { y := x + 1; x := x * 10 }", f"x := {BIG}\ny := 1"),
    "mod by zero": ("x := y mod (x - x)", "x := 4\ny := 3"),
    "clash": ("par { x := 1; if y > 0 then x := 2 }", "y := 1"),
    "undef operands": ("par { p := (undef and false) or not p; x := x + undef; y := undef }",
                       "x := 1\ny := 2"),
    "points": ("par { p := P = M(P, Q); if P != undef then Q := M(Q, P) else P := Q }",
               "P := point(1.0,2.0)\nQ := point(3.0,-1.0)"),
    "n-ary": ("par { f(x + 1) := f(f(x)) + 1; f(y) := undef }", "x := 0\ny := 5\nf(0) := 0"),
    # The query is logged before the target's argument overflows.
    "value before target": ("f(x * 10) := R(1, 2)", f"x := {BIG}"),
    "oracle": ("par { x := R(x, y + 3); y := R(1, 2) + R(x, y + 3) }", "x := 1\ny := 2"),
    "nested": ("if not p then par { if x > 0 then par { y := x; x := x - 1 } else skip; "
               "p := x = 0 }", "x := 2\np := false"),
    # The kernel reads a variable once per block. A read made inside `then`
    # is not reused by `else` or after the `if`, each stepped from a state
    # taking each branch.
    "read first in a branch": ("par { if p then y := x + 1 else y := x - 1; x := x * 2 }",
                               "x := 3\np := true", "x := 3\np := false", "x := 3"),
    "guard read in both branches": ("if x > 0 then y := x else par { y := x - 1; x := 1 }",
                                    "x := 2", "x := -2", "y := 1"),
    "one variable twice in a term": ("par { y := x + x; p := x * x > y }",
                                     "x := 3\ny := 1", "y := 4", f"x := {BIG}"),
    # The kernel evaluates a repeated application once per block, as it
    # reads a variable, and keeps one constant per literal value and type.
    "repeated static application": ("par { P := M(P, Q); if P = M(P, Q) then Q := M(P, Q) }",
                                    "P := point(1.0,2.0)\nQ := point(3.0,-1.0)",
                                    "Q := point(0.0,0.0)"),
    "repeated n-ary read": ("par { x := f(y) + f(y); if f(y) > 0 then y := f(y) }",
                            "y := 2\nf(2) := 3", "y := 2", "f(0) := -1"),
    "repeated query": ("par { x := R(1, y - 1) * R(1, y - 1); y := R(1, y - 1) }", "y := 6"),
    "literals of one value": ("par { p := 1 = 1 and true; x := x + 1 - 1 }", "x := 1"),
    "repeat inside one branch": ("par { if p then x := f(y) + (y + 1) else skip; "
                                 "y := f(y) * (y + 1) }",
                                 "p := true\ny := 1\nf(1) := 4", "p := false\ny := 1\nf(1) := 4"),
    "repeat after a failing first evaluation": (
        "par { x := R(1, 2) + y mod (x - x); y := y mod (x - x) + R(1, 2) }", "x := 1\ny := 2"),
    "repeat after an overflow": ("par { y := x * 10; x := x * 10 }", f"x := {BIG}"),
}


@pytest.mark.parametrize("case", CASES)
def test_each_listed_case_steps_as_the_closure_compiler(case):
    body, *state_texts = CASES[case]
    prog = parse_program(VOCAB_TEXT + "do until false { " + body + " }\n")
    for state_text in state_texts:
        init = load_state(state_text, prog.vocabulary)
        for make_policy in (lambda: ScriptedPolicy.from_answers([2, 1, 3]),
                            lambda: UniformRandomPolicy(5)):
            expected = _observed(prog, init, make_policy, reference_step, reference_eval)
            assert _observed(prog, init, make_policy, step, generated_eval) == expected


class CountingStore(dict):
    """A store that counts its reads by symbol name."""

    def __init__(self, bindings):
        super().__init__(bindings)
        self.reads = Counter()

    def get(self, key, default=None):
        self.reads[key[0]] += 1
        return super().get(key, default)


# A body, its state, and how often one step applies `M`, reads `f` and asks.
ONCE = {
    "in one block": ("par { P := M(P, Q); Q := M(P, Q); x := f(y) + f(y); "
                     "y := R(x, 1) + R(x, 1) }", "x := 1\ny := 2", (1, 1, 1)),
    "in an enclosing block": ("par { P := M(P, Q); x := f(y) + R(x, 1); if p then par { "
                              "y := f(y) - R(x, 1); Q := M(P, Q) } else skip }",
                              "p := true\nx := 1\ny := 2", (1, 1, 1)),
    # A repeat made first inside a branch is made again after the `if`.
    "first inside a branch": ("par { if p then par { P := M(P, Q); x := f(y) + R(1, 2) } "
                              "else skip; Q := M(P, Q); y := f(y) + R(1, 2) }",
                              "p := true\ny := 2", (2, 2, 2)),
}


@pytest.mark.parametrize("case", ONCE)
def test_a_repeated_subterm_is_evaluated_once_per_block(monkeypatch, case):
    """One `M` call, one read of `f` and one `ask` per block for each repeated
    application; a repeated query makes one interaction either way."""
    body, state_text, (applied, read, asked) = ONCE[case]
    calls = Counter()
    midpoint, strict = STATIC_IMPL["M"]
    monkeypatch.setitem(STATIC_IMPL, "M", (lambda a, b: calls.update("M") or midpoint(a, b),
                                           strict))
    ask = OracleSession.ask
    monkeypatch.setattr(OracleSession, "ask", lambda self, q: calls.update("a") or ask(self, q))
    prog = parse_program(VOCAB_TEXT + "do until false { " + body + " }\n")
    init = load_state("P := point(1.0,2.0)\nQ := point(3.0,-1.0)\n" + state_text,
                      prog.vocabulary)
    store = CountingStore(init.store)
    session = OracleSession(ScriptedPolicy.from_answers([2, 1, 3]), prog.vocabulary)
    session.begin_step()
    _, interactions = step(State(prog.vocabulary, store), prog.step_rule, session)
    assert (calls["M"], store.reads["f"], calls["a"]) == (applied, read, asked)
    assert len(interactions) == len({(i.oracle, i.args) for i in interactions})
