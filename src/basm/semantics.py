"""One-step semantics, the run loop, and replay.

A step evaluates the program's rule against the current state and produces a
consistent update set plus the ordered list of oracle interactions it made.
Terms evaluate left to right, innermost first, with no short-circuiting, so
evaluation touches exactly the locations named by the program's subterms.
All reads use the pre-step state; updates land atomically between steps.

Each rule and term is compiled once, on its first step or evaluation, into
one generated Python function that is kept on the syntax node, and each
program, on its first run or replay, into one generated run loop that is kept
on the program (below). Their source is
straight-line code: each query, n-ary read and static operator application is
one statement into a local temporary, `if` is an `if ... is True:` block, and
`par` is its members in order. Each subterm is evaluated once per block: a
variable, or a symbol applied to operands already evaluated to the same
temporaries or constants, is evaluated by one statement at its first use in
a block, and later uses in that block or in blocks nested in it share the
temporary; a subterm evaluated inside one branch of an `if` is evaluated
again by the other branch and after the `if`. Equal literals share one
constant, one per value and type. Every read sees the pre-step state, a
static operator is a function of its operands, and a repeated query is
answered from the step's table without a second interaction, so sharing
changes no value and no interaction; a first evaluation that fails ends the
step before any repeat. A step still reads only the locations its evaluated
subterms name. A static operator evaluates all its
arguments before it applies itself. `+`, `-`, `*`, `mod`, the comparisons,
the three-valued connectives, and `=` and `!=` on values that `==` compares
as the program does, are Python statements over the temporaries, with the
integer bound and the zero divisor tested inline; `undef` absorbs the integer
operators itself (see `state._Undef`), so they test no operand for it.
`powmod`, the geometry constructors, and `=` and `!=` on points, circles and
lines, which compare within EPS, stay calls, and a strict call first tests its
operands for `undef`. Each write is one statement that inserts into the
update set's dict with `setdefault`; only a write that finds another value at
its location calls `clash`, which fails unless the two are equal.

Every program-derived object (location pair, name, symbol, literal value,
static function) reaches the function only through its namespace, as a
constant named `c<i>`; no program text reaches `compile`. The function reads
with the store's own `get`, by the location pair `(name, args)`: a
variable's pair is a constant, and an n-ary pair is built from the evaluated
arguments. So a read, an update and a commit hash and compare plain tuples,
in C. A run owns one working store, a copy of the initial bindings, and
commits each step's updates into it in place.

One loop runs a program for `run` and for replay: the program's generated
`loop`, one function built from the same emitters as its rule. Each pass is
one step: the halting test and the budget test, the rule body, then the
record or, in replay, the comparison with the trace's record, and the commit.
The halting term and the rule are written inline, and the rule reuses the
halting term's temporaries, as both read the pre-step state. So a step calls
no Python function but the policy's `ask`, `commit`, `changes_nothing` for
`iterate`, the session's `begin_step` for a rule that asks, and in a run the
record's constructor; an oracle-free rule's step table is always empty, so
it neither clears nor copies it. The seams `commit`, `changes_nothing` and
the session's `begin_step`, `ask` and table are bound once per run and passed
in, so a name patched before the run is called at each step. A replaced
`step` (the benchmark's tracer, a test) runs instead a Python loop that
takes each step through `observe_step`, as bexp and iso call `step`, and
returns what the generated loop returns. Either way a step is one slotted
record, its updates and the session's step table in order, never changed
once made; whether the run stopped after it belongs to the outcome. `run`
keeps each record in the trace's list; replay builds none for a step that
matches: it compares the step's updates and interactions with the trace's
record at its position, and stops the rerun at the first that differs.

Two halting conventions: `do until H` evaluates the oracle-free term H
before each step and stops when it is true; `iterate` (no H) stops after the
first step whose updates change nothing. A step whose updates conflict
("clash"), or whose evaluation fails, ends the run with an error outcome;
the failing step is kept in the trace with no updates and the interactions
it made, the query a policy refused included, so an errored trace still
replays exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Optional

from .errors import BasmError
from .geometry import Circle, Line, Point
from .oracles import Interaction, OracleSession, ScriptedPolicy
from .state import (
    _INT_BOUND,
    CIRCLE,
    DYNAMIC,
    LINE,
    POINT,
    STATIC,
    STATIC_IMPL,
    UNDEF,
    Location,
    State,
    UpdateSet,
    _mod_by_zero,
    _too_long,
    changes_nothing,
    clash,
    commit,
    rendered_bindings,
)
from .syntax import (
    Assign,
    Cond,
    Lit,
    Par,
    Program,
    Rule,
    Skip,
    Term,
    Var,
)

DEFAULT_MAX_STEPS = 10**6


def _no_session(query: Location):
    raise BasmError("oracle-domain", f"no oracle session for query {query.render()}")


# The namespace entries every generated function shares: `U` (undef),
# `Location` to build a query, the integer bound `B` with `big` to fail past
# it, `modzero` to fail a `mod` by zero, and `clash` to test a second write
# to one location.
_FIXED = {"U": UNDEF, "Location": Location, "B": _INT_BOUND, "big": _too_long,
          "modzero": _mod_by_zero, "clash": clash}

# The inline statement of a static operator over its operands `a` and `b`
# (for `not`, both its one operand), assigning `t`, its own temporary. `U`
# absorbs `+`, `-`, `*`, `%`, `abs` and the orderings, and is truthy, so the
# strict integer operators need no undef test: `not abs(U) < B` is False,
# and `undef mod 0` is `undef`. `=` and `!=` on points, circles or lines,
# which compare within EPS, stay calls, as do `powmod` and the geometry
# constructors. The bound test is `abs(t) < B`, as `-B < t < B` would build
# the 640-digit `-B` on every operation; it assigns `t` inside the test.
_INLINE = {
    **{op: f"if not abs({{t}} := {{a}} {op} {{b}}) < B: big()" for op in "+-*"},
    "mod": "{t} = {a} % {b} if {b} or {a} is U else modzero()",
    **{op: f"{{t}} = {{a}} {op} {{b}}" for op in ("<", "<=", ">", ">=")},
    "=": "{t} = {a} == {b}",
    "!=": "{t} = {a} != {b}",
    "and": "{t} = False if {a} is False or {b} is False else U if {a} is U or {b} is U else True",
    "or": "{t} = True if {a} is True or {b} is True else U if {a} is U or {b} is U else False",
    "not": "{t} = U if {a} is U else not {a}",
}
_GEOMETRY_SORTS = (POINT, CIRCLE, LINE)


def _geometric(term: Term) -> bool:
    if isinstance(term, Lit):
        return isinstance(term.value, (Point, Circle, Line))
    return term.symbol.result_sort in _GEOMETRY_SORTS


def _inline(name: str, operands: tuple[Term, ...]) -> Optional[str]:
    """The inline statement of a static operator on these operands, or None
    where it stays a call. A `mod` by a nonzero literal needs no zero test."""
    if name in ("=", "!=") and any(map(_geometric, operands)):
        return None
    if name == "mod" and isinstance(operands[1], Lit) and operands[1].value not in (0, UNDEF):
        return "{t} = {a} % {b}"
    return _INLINE.get(name)


class _Source:
    """The lines of one generated function and the namespace it runs in.

    Each program-derived object is a namespace constant `c<i>`, and each
    evaluated subterm a local temporary `t<i>`; `pad` indents the next line.
    `reads` maps each subterm already evaluated in the enclosing blocks to
    the name that holds its value: a variable by its name, an application by
    its symbol's name and its operands' names, a literal by its type and
    value. `block` works on a copy and restores it, so nothing evaluated
    inside a block is used outside it. `asks` tells whether a query has
    been emitted."""

    def __init__(self):
        self.lines: list[str] = []
        self.namespace = dict(_FIXED)
        self.consts = 0
        self.pad = " "
        self.reads: dict[str, str] = {}
        self.asks = False

    def const(self, value) -> str:
        name = f"c{self.consts}"
        self.consts += 1
        self.namespace[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append(self.pad + text)

    def next_temp(self) -> str:
        return f"t{len(self.lines)}"

    def temp(self, expr: str) -> str:
        name = self.next_temp()
        self.line(f"{name} = {expr}")
        return name

    def block(self, head: str, rule: Rule) -> None:
        self.line(head)
        self.pad += " "
        outer, self.reads = self.reads, dict(self.reads)
        _emit_rule(self, rule)
        self.pad, self.reads = self.pad[:-1], outer


def _tuple(names: list[str]) -> str:
    return "(" + "".join(f"{n}, " for n in names) + ")"


def _emit_term(out: _Source, term: Term) -> str:
    """Emit the statements that evaluate the term, left to right and
    innermost first; returns the name of its value. A literal needs no
    statement: `undef` is `U` and any other value a constant, one per value
    and type, so `1` and `true` stay apart. A subterm already evaluated in
    this block or an enclosing one, a variable or an application of one
    symbol to the same operands, is not evaluated again: its first value is
    used."""
    if isinstance(term, Lit):
        value = term.value
        if value is UNDEF:
            return "U"
        key = (type(value), value)
        if key not in out.reads:
            out.reads[key] = out.const(value)
        return out.reads[key]
    if isinstance(term, Var):
        name = term.symbol.name
        if name not in out.reads:
            out.reads[name] = out.temp(f"get({out.const((name, ()))}, U)")
        return out.reads[name]
    args = [_emit_term(out, a) for a in term.args]
    key = (term.symbol.name, *args)
    if key not in out.reads:
        out.reads[key] = _emit_application(out, term, args)
    return out.reads[key]


def _emit_application(out: _Source, term: Term, args: list[str]) -> str:
    """Emit the statement that applies the term's symbol to its evaluated
    operands `args`: a static operator, an n-ary read or an oracle query."""
    sym = term.symbol
    if sym.kind == STATIC:
        fn, strict = STATIC_IMPL[sym.name]
        inline = _inline(sym.name, term.args)
        if inline is not None:
            name = out.next_temp()
            out.line(inline.format(t=name, a=args[0], b=args[-1]))
            return name
        expr = f"{out.const(fn)}({', '.join(args)})"
        # A strict call tests the operands that may be undef, not a constant.
        undef = " or ".join(f"{a} is U" for a in args if not a.startswith("c")) if strict else ""
        return out.temp(f"U if {undef} else {expr}" if undef else expr)
    if sym.kind == DYNAMIC:
        return out.temp(f"get(({out.const(sym.name)}, {_tuple(args)}), U)")
    out.asks = True
    return out.temp(f"ask(Location({out.const(sym)}, {_tuple(args)}))")


def _emit_rule(out: _Source, rule: Rule) -> None:
    """Emit the statements that insert the rule's updates by `add`, the
    update set's `setdefault`, keyed by location pairs; a write that finds
    another value at its location goes to `clash`. An assignment evaluates
    its value before its target's arguments; a `par` emits its members in
    order."""
    if isinstance(rule, Assign):
        value, target = _emit_term(out, rule.rhs), rule.target
        if isinstance(target, Var):
            key = out.const((target.symbol.name, ()))
        else:
            args = [_emit_term(out, a) for a in target.args]
            key = out.temp(f"({out.const(target.symbol.name)}, {_tuple(args)})")
        found = out.next_temp()
        out.line(f"if ({found} := add({key}, {value})) is not {value}: "
                 f"clash({key}, {found}, {value})")
    elif isinstance(rule, Cond):
        out.block(f"if {_emit_term(out, rule.guard)} is True:", rule.then_rule)
        if rule.else_rule is not None:
            out.block("else:", rule.else_rule)
    elif isinstance(rule, Par):
        for r in rule.rules or (Skip(),):
            _emit_rule(out, r)
    elif isinstance(rule, Skip):
        out.line("pass")
    else:
        raise TypeError(f"not a rule: {rule!r}")


def _generate(node) -> tuple[str, dict]:
    """The source of a term's function `term(get, ask) -> value`, a rule's
    `rule(get, ask, add)` or a program's run loop `loop(...)` (`_emit_loop`),
    named apart for profiles, and its namespace."""
    out = _Source()
    if isinstance(node, Term):
        out.line(f"return {_emit_term(out, node)}")
        head = "term(get, ask)"
    elif isinstance(node, Program):
        _emit_loop(out, node)
        head = _LOOP_PARAMETERS
    else:
        _emit_rule(out, node)
        head = "rule(get, ask, add)"
    return "\n".join([f"def {head}:", *out.lines]), out.namespace


def _compiled(node):
    """The generated function of a term, rule or program, built on first use
    and kept on the node."""
    fn = node.__dict__.get("_function")
    if fn is None:
        source, namespace = _generate(node)
        exec(compile(source, "<basm>", "exec"), namespace)
        # The function's name, from its first line `def <name>(`.
        fn = node.__dict__["_function"] = namespace[source[4:source.index("(")]]
    return fn


def eval_term(state: State, term: Term, session: Optional[OracleSession] = None):
    """Evaluate a term; returns (value, the session's step table in order)."""
    ask, table = (_no_session, {}) if session is None else (session.ask, session.per_step_cache)
    return _compiled(term)(state.store.get, ask), list(table.values())


def step(state: State, rule: Rule,
         session: Optional[OracleSession] = None) -> tuple[UpdateSet, list[Interaction]]:
    """Run one step of the rule by its generated function, built on the
    first step and then found on the node: the update set and the session's
    step table in order, which the caller clears first (`begin_step`). With
    no session a query fails."""
    ask, table = (_no_session, {}) if session is None else (session.ask, session.per_step_cache)
    updates = UpdateSet()
    _compiled(rule)(state.store.get, ask, updates.setdefault)
    return updates, list(table.values())


# How the run loop tells its own `step` from a replacement. Not an alias of
# the function: the benchmark's tracer rebinds every basm module global that
# is the original `step`, an alias included, but not its code object.
_STEP_CODE = step.__code__


@dataclass(slots=True)
class StepRecord:
    updates: UpdateSet
    interactions: tuple[Interaction, ...]


@dataclass
class Outcome:
    kind: str  # halted | step-limit | error
    error: Optional[str] = None  # error kind when kind == "error"
    detail: Optional[str] = field(default=None, compare=False)  # human-readable


def observe_step(state: State, rule: Rule, session: OracleSession,
                 step_fn: Callable) -> tuple[StepRecord, Optional[Outcome]]:
    """One step by `step_fn` (`step` or a stand-in) as the record a trace
    keeps, and the error outcome if it failed; a failed step keeps no updates
    and the step's table, a refused query included. bexp and iso observe
    their steps with it, and so does the run loop once `step` is replaced;
    with its own `step` the program's generated loop does this work inline."""
    session.begin_step()
    failed = None
    try:
        updates, interactions = step_fn(state, rule, session)
    except BasmError as e:
        updates, interactions = UpdateSet(), session.per_step_cache.values()
        failed = Outcome("error", e.kind, e.message)
    return StepRecord(updates, tuple(interactions)), failed


@dataclass
class Trace:
    program_id: str
    initial_state: State
    steps: list[StepRecord]
    final_state: State
    outcome: Outcome


def default_max_steps() -> int:
    env = os.environ.get("ASM_MAX_STEPS")
    if env is None:
        return DEFAULT_MAX_STEPS
    try:
        budget = int(env)
    except ValueError:
        budget = -1
    if budget < 0:
        raise BasmError("corpus", f"ASM_MAX_STEPS is not an integer of 0 or more: {env!r}")
    return budget


def run(program: Program, init: State, policy, max_steps: Optional[int] = None) -> Trace:
    """Execute a program from an initial state under an oracle policy.

    The run owns one working store, a copy of `init`'s bindings, and commits
    each step's updates into it in place; `init` is left as it was.
    """
    if max_steps is None:
        max_steps = default_max_steps()
    steps, final, outcome = _loop(program, init, policy, max_steps, None)
    return Trace(program.program_id, init, steps, final, outcome)


# The generated loop's parameters: the seams and the run's own objects,
# bound once per run by `_loop`.
_LOOP_PARAMETERS = ("loop(get, ask, begin, values, commit, changes_nothing, state, store, "
                    "max_steps, append, expected)")


def _emit_loop(out: _Source, program: Program) -> None:
    """Emit the body of the program's run loop. Each pass is one step
    numbered `taken`: the halting test (for `iterate`, whether the last step
    changed nothing), the budget test, `begin` when the rule asks, the rule
    body into a fresh update set's `add`, the record or the comparison with
    `expected[taken]`, `changes_nothing` for `iterate`, and `commit`. The
    halting term's temporaries serve the rule, as both read the pre-step
    state. The loop returns `(taken, outcome, record)`: `record` is None when
    the run ended before step `taken`, and otherwise that step's record,
    which the loop has neither kept nor compared, of a step that failed or
    differs from `expected[taken]`."""
    out.namespace.update(BasmError=BasmError, Outcome=Outcome, StepRecord=StepRecord,
                         UpdateSet=UpdateSet, count=count, error="error", halted="halted",
                         limit="step-limit")
    iterate = program.halt is None
    failed = "except BasmError as e: return taken, Outcome(error, e.kind, e.message),"
    if iterate:
        out.line("unchanged = False")
    out.line("for taken in count():")
    out.pad = "  "
    if iterate:
        out.line("if unchanged:")
    else:  # a halting term that fails ends the run before the step
        out.line("try:")
        out.pad = "   "
        out.line(f"if {_emit_term(out, program.halt)} is True:")
    out.line(" return taken, Outcome(halted), None")
    out.pad = "  "
    if not iterate:
        out.line(f"{failed} None")
    out.line("if taken >= max_steps:")
    out.line(" return taken, Outcome(limit), None")
    at = len(out.lines)
    out.line("updates = UpdateSet()")
    out.line("add = updates.setdefault")
    out.line("try:")
    out.pad = "   "
    _emit_rule(out, program.step_rule)
    out.pad = "  "
    table = "()"  # the step's table: an oracle-free rule's is always empty
    if out.asks:
        out.lines.insert(at, "  begin()")  # no temporary is named after the rule
        table = "tuple(values())"
    out.line(f"{failed} StepRecord(UpdateSet(), {table})")
    if out.asks:
        out.line(f"interactions = {table}")
        table = "interactions"
    out.line("if expected is None:")
    out.line(f" append(StepRecord(updates, {table}))")
    out.line(f"elif updates != (record := expected[taken]).updates "
             f"or {table} != record.interactions:")
    out.line(f" return taken, None, StepRecord(updates, {table})")
    if iterate:
        out.line("unchanged = changes_nothing(state, updates)")
    out.line("commit(store, updates)")


def _observing(program: Program, session: OracleSession, step_fn: Callable):
    """The generated loop's work for a replaced `step`, in Python: each step
    goes through `observe_step` with `step_fn`, and the halting term through
    its own generated function. It takes the generated loop's parameters and
    returns what it returns, but uses `begin`, `ask` and `values` only
    through `observe_step` and the session."""
    halt = None if program.halt is None else _compiled(program.halt)

    def loop(get, ask, begin, values, commit, changes_nothing, state, store, max_steps,
             append, expected):
        stop = False
        for taken in count():
            if halt is not None:
                try:
                    stop = halt(get, _no_session) is True
                except BasmError as e:
                    return taken, Outcome("error", e.kind, e.message), None
            if stop:
                return taken, Outcome("halted"), None
            if taken >= max_steps:
                return taken, Outcome("step-limit"), None
            record, failed = observe_step(state, program.step_rule, session, step_fn)
            if failed is not None or expected is not None and not record == expected[taken]:
                return taken, failed, record
            if expected is None:
                append(record)
            # Compared before the commit, which overwrites the old values.
            stop = halt is None and changes_nothing(state, record.updates)
            commit(store, record.updates)
    return loop


def _loop(program: Program, init: State, policy, max_steps: int,
          expected: Optional[list[StepRecord]]):
    """The run loop of `run` and of replay: the step records, the final state
    and the outcome.

    While `step` is the module's own function, the loop is one call of the
    program's generated loop (`_emit_loop`), built on the first run and kept
    on the program; a replaced `step` runs `_observing`'s loop instead, which
    calls it through `observe_step`. Either way the seams `commit`,
    `changes_nothing` and the session's `begin_step`, `ask` and table are
    bound once per run and passed in, so a name patched before the run is
    called at each step.

    Without `expected`, the records are the run's own list. With `expected`,
    a trace's records, the loop keeps none: it compares each record with the
    one at its position there as it makes it. At the first that differs it
    returns the prefix of `expected` it matched followed by that record;
    otherwise `expected` up to where the rerun stopped, `expected` itself
    when that is its end.
    """
    session = OracleSession(policy, program.vocabulary)
    store = dict(init.store)
    state = State(init.vocabulary, store)
    steps: list[StepRecord] = []
    own = getattr(step, "__code__", None) is _STEP_CODE
    loop = _compiled(program) if own else _observing(program, session, step)
    taken, outcome, last = loop(store.get, session.ask, session.begin_step,
                                session.per_step_cache.values, commit, changes_nothing,
                                state, store, max_steps, steps.append, expected)
    if last is not None:  # the step that ended the run, neither kept nor compared
        if expected is None:
            steps.append(last)
        # `==`, as a dataclass's `!=` goes through `__ne__` to it.
        elif not last == expected[taken]:
            return expected[:taken] + [last], state, outcome
        taken += 1
    if expected is not None:
        steps = expected if taken == len(expected) else expected[:taken]
    return steps, state, outcome


def divergence(a_steps: list[StepRecord], a_outcome: Optional[Outcome],
               b_steps: list[StepRecord], b_outcome: Optional[Outcome]) -> Optional[str]:
    """None when two runs agree step by step: equal step records in order,
    each compared on its update set and interactions, and the same outcome
    kind and error. Otherwise the first difference, as text with both
    values: a step and field, or the outcomes and step counts.
    Behavioural equivalence, bexp and iso decide by it; replay decides step
    by step in the run loop, and reports by it when the rerun disagrees."""
    if a_steps == b_steps and a_outcome == b_outcome:
        return None
    for n, (a, b) in enumerate(zip(a_steps, b_steps)):
        for name in StepRecord.__slots__:
            x, y = getattr(a, name), getattr(b, name)
            if x != y:
                return f"step {n} {name}: {x!r} vs {y!r}"
    return (f"outcome: {a_outcome!r} after {len(a_steps)} steps vs "
            f"{b_outcome!r} after {len(b_steps)} steps")


def replay_divergence(trace: Trace, program: Program) -> Optional[str]:
    """Re-run a trace feeding back its recorded answers and refusals. None
    when it reproduces; otherwise `divergence`'s text, or, where only the
    final states differ, `final-state: {...} vs {...}` with the bindings that
    differ, the trace's first (an absent binding reads `undef`).

    The rerun compares each step's updates and interactions with the trace's
    record as it makes them, builds no record for a step that matches, and
    stops at the first that differs. When the rerun disagrees in a step, in
    the number of steps or in the outcome, `divergence` names the difference
    from the trace's records and the rerun's record of the step that
    differs."""
    if trace.program_id != program.program_id:
        raise BasmError("program-id", "trace was not produced by this program")
    script = [i for record in trace.steps for i in record.interactions]
    # The halting term is tested before the budget, so a rerun that agrees
    # with the trace halts, fails or stops within the trace's own length.
    budget = len(trace.steps)
    steps, final, outcome = _loop(program, trace.initial_state, ScriptedPolicy(script),
                                  budget, trace.steps)
    if steps is not trace.steps or not outcome == trace.outcome:
        return divergence(trace.steps, trace.outcome, steps, outcome)
    if final == trace.final_state:
        return None
    a, b = trace.final_state.store, final.store
    keys = [k for k in a.keys() | b.keys() if a.get(k, UNDEF) != b.get(k, UNDEF)]
    return f"final-state: {_bindings_text(a, keys)} vs {_bindings_text(b, keys)}"


def _bindings_text(store: dict, keys: list) -> str:
    bindings = rendered_bindings({key: store.get(key, UNDEF) for key in keys})
    return "{" + ", ".join(f"{loc}={v}" for loc, v in bindings) + "}"


def replay(trace: Trace, program: Program) -> bool:
    """Whether a trace reproduces when re-run (see `replay_divergence`)."""
    return replay_divergence(trace, program) is None
