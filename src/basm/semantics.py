"""One-step semantics, the run loop, and replay.

A step evaluates the program's rule against the current state and produces a
consistent update set plus the ordered list of oracle interactions it made.
Terms evaluate left to right, innermost first, with no short-circuiting, so
evaluation touches exactly the locations named by the program's subterms.
All reads use the pre-step state; updates land atomically between steps.

Each rule and term is compiled once, on its first step or evaluation, into
nested closures (closure generation, after Feeley and Lapalme, 1987) that are
kept on the syntax node. A closure reads with the store's own `get`, by
the location pair `(name, args)`: a variable's pair is built once, when it
is compiled, and an n-ary pair is built from the evaluated arguments. So a
read, an update and a commit hash and compare plain tuples, in C. A static
operator evaluates all its arguments before it applies its function. A run
owns one working store, a copy of the initial bindings, and commits each
step's updates into it in place.

Two halting conventions: `do until H` evaluates the oracle-free term H before
each step and stops when it is true; `iterate` stops after the first step
whose updates change nothing. A step whose updates conflict ("clash"), or
whose evaluation fails, ends the run with an error outcome; the failing step
is kept in the trace with the interactions it managed to make and no updates,
so an errored trace still replays exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import BasmError
from .oracles import Interaction, OracleSession, ScriptedPolicy
from .state import (
    DYNAMIC,
    STATIC,
    STATIC_IMPL,
    UNDEF,
    Location,
    State,
    UpdateSet,
    changes_nothing,
    commit,
)
from .syntax import (
    DO_UNTIL,
    ITERATE,
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


def _compiled(node):
    """The closure of a term or rule, compiled on first use and kept on the node."""
    fn = node.__dict__.get("_closure")
    if fn is None:
        fn = node.__dict__["_closure"] = (
            _compile_term(node) if isinstance(node, Term) else _compile_rule(node))
    return fn


def _compile_term(term: Term):
    """A closure `(get, ask) -> value` that evaluates the term; `get` is the
    store's `get`, called as `get(key, UNDEF)`."""
    if isinstance(term, Lit):
        value = term.value
        return lambda get, ask: value
    if isinstance(term, Var):
        key = (term.symbol.name, ())
        return lambda get, ask: get(key, UNDEF)
    sym = term.symbol
    subs = tuple(_compile_term(a) for a in term.args)
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
    name, args = sym.name, _compile_args(subs)
    if sym.kind == DYNAMIC:
        return lambda get, ask: get((name, args(get, ask)), UNDEF)
    return lambda get, ask: ask(Location(sym, args(get, ask)))


def _compile_args(subs: tuple):
    """A closure `(get, ask) -> tuple` of the compiled arguments' values."""
    if len(subs) == 1:
        sub, = subs
        return lambda get, ask: (sub(get, ask),)
    return lambda get, ask: tuple([s(get, ask) for s in subs])


def _compile_rule(rule: Rule):
    """A closure `(get, ask, add)` that adds the rule's updates by `add`,
    keyed by location pairs."""
    if isinstance(rule, Skip):
        return lambda get, ask, add: None
    if isinstance(rule, Assign):
        rhs = _compile_term(rule.rhs)
        name = rule.target.symbol.name
        if isinstance(rule.target, Var):
            key = (name, ())
            return lambda get, ask, add: add(key, rhs(get, ask))
        args = _compile_args(tuple(_compile_term(a) for a in rule.target.args))

        def assign(get, ask, add):
            value = rhs(get, ask)
            add((name, args(get, ask)), value)
        return assign
    if isinstance(rule, Cond):
        guard = _compile_term(rule.guard)
        then_rule = _compile_rule(rule.then_rule)
        else_rule = None if rule.else_rule is None else _compile_rule(rule.else_rule)

        def cond(get, ask, add):
            if guard(get, ask) is True:
                then_rule(get, ask, add)
            elif else_rule is not None:
                else_rule(get, ask, add)
        return cond
    if isinstance(rule, Par):
        subs = tuple(_compile_rule(r) for r in rule.rules)

        def par(get, ask, add):
            for r in subs:
                r(get, ask, add)
        return par
    raise TypeError(f"not a rule: {rule!r}")


def eval_term(state: State, term: Term, session: Optional[OracleSession] = None):
    """Evaluate a term; returns (value, interactions made by this evaluation)."""
    start = len(session.log) if session is not None else 0
    value = _compiled(term)(state.store.get, session.ask if session is not None else _no_session)
    return value, session.log[start:] if session is not None else []


def step(state: State, rule: Rule,
         session: Optional[OracleSession] = None) -> tuple[UpdateSet, list[Interaction]]:
    """Run one step of the rule. The caller clears the session's per-step cache."""
    start = len(session.log) if session is not None else 0
    updates = UpdateSet()
    _compiled(rule)(state.store.get, session.ask if session is not None else _no_session,
                    updates.add)
    return updates, session.log[start:] if session is not None else []


@dataclass
class StepRecord:
    index: int
    updates: UpdateSet
    interactions: tuple[Interaction, ...]
    halted_after: bool = False


@dataclass
class Outcome:
    kind: str  # halted | step-limit | error
    error: Optional[str] = None  # error kind when kind == "error"
    detail: Optional[str] = field(default=None, compare=False)  # human-readable


def observe_step(index: int, state: State, rule: Rule, session: OracleSession,
                 step_fn: Callable) -> tuple[StepRecord, Optional[Outcome]]:
    """One step by `step_fn` (`step` or a stand-in) as the record a trace
    keeps, and the error outcome if it failed; a failed step keeps no updates
    and the interactions made before the failure."""
    start = session.begin_step()
    try:
        updates, interactions = step_fn(state, rule, session)
    except BasmError as e:
        failed = Outcome("error", e.kind, e.message)
        return StepRecord(index, UpdateSet(), tuple(session.log[start:])), failed
    return StepRecord(index, updates, tuple(interactions)), None


@dataclass
class Trace:
    program_id: str
    initial_state: State
    steps: list[StepRecord]
    final_state: State
    outcome: Outcome


def default_max_steps() -> int:
    env = os.environ.get("ASM_MAX_STEPS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BasmError("corpus", f"ASM_MAX_STEPS is not an integer: {env!r}") from None
    return DEFAULT_MAX_STEPS


def run(program: Program, init: State, policy, max_steps: Optional[int] = None) -> Trace:
    """Execute a program from an initial state under an oracle policy.

    The run owns one working store, a copy of `init`'s bindings, and commits
    each step's updates into it in place; `init` is left as it was.
    """
    if max_steps is None:
        max_steps = default_max_steps()
    session = OracleSession(policy, program.vocabulary)
    store = dict(init.store)
    state = State(init.vocabulary, store)
    halt = _compiled(program.halt) if program.mode == DO_UNTIL else None
    steps: list[StepRecord] = []
    while True:
        if halt is not None:
            try:
                halt_value = halt(store.get, _no_session)
            except BasmError as e:
                outcome = Outcome("error", e.kind, e.message)
                break
            if halt_value is True:
                if steps:
                    steps[-1].halted_after = True
                outcome = Outcome("halted")
                break
        if len(steps) >= max_steps:
            outcome = Outcome("step-limit")
            break
        # `step` is looked up per call, so a patched module global is seen.
        record, outcome = observe_step(len(steps), state, program.step_rule, session, step)
        steps.append(record)
        if outcome is not None:
            break
        # Compared before the commit, which overwrites the old values.
        unchanged = program.mode == ITERATE and changes_nothing(state, record.updates)
        commit(store, record.updates)
        if unchanged:
            record.halted_after = True
            outcome = Outcome("halted")
            break
    return Trace(program.program_id, init, steps, state, outcome)


def same_steps(a: Trace, b: Trace) -> bool:
    """Step-by-step equality of two traces: the same outcome kind and error,
    and equal step records in order, each compared on its index, update set,
    interactions and halted mark. Replay and behavioural equivalence both
    decide by it."""
    return a.outcome == b.outcome and a.steps == b.steps


def replay(trace: Trace, program: Program) -> bool:
    """Re-run a trace feeding back its recorded answers; true iff it reproduces."""
    if trace.program_id != program.program_id:
        raise BasmError("program-id", "trace was not produced by this program")
    policy = ScriptedPolicy(i for record in trace.steps for i in record.interactions)
    if trace.outcome.kind == "step-limit":
        max_steps = len(trace.steps)
    else:
        max_steps = len(trace.steps) + 1
    rerun = run(program, trace.initial_state, policy, max_steps=max_steps)
    return same_steps(trace, rerun) and rerun.final_state == trace.final_state
