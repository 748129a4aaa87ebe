"""One-step semantics, the run loop, and replay.

A step evaluates the program's rule against the current state and produces a
consistent update set plus the ordered list of oracle interactions it made.
Terms evaluate left to right, innermost first, with no short-circuiting, so
evaluation touches exactly the locations named by the program's subterms.
All reads use the pre-step state; updates land atomically between steps.

Two halting conventions: `do until H` evaluates the oracle-free term H before
each step and stops when it is true; `iterate` stops after the first step
whose updates change nothing. A step whose updates conflict ("clash"), or
whose evaluation fails, ends the run with an error outcome; the failing step
is kept in the trace with the interactions it managed to make and no updates,
so an errored trace still replays exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

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
    apply_updates,
    changes_nothing,
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


def _eval(state: State, term: Term, session: Optional[OracleSession]):
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Var):
        return state.read(Location(term.symbol, ()))
    sym = term.symbol
    args = tuple(_eval(state, a, session) for a in term.args)
    if sym.kind == STATIC:
        fn, strict = STATIC_IMPL[sym.name]
        if strict and any(a is UNDEF for a in args):
            return UNDEF
        return fn(*args)
    if sym.kind == DYNAMIC:
        return state.read(Location(sym, args))
    # oracle
    query = Location(sym, args)
    if session is None:
        raise BasmError("oracle-domain", f"no oracle session for query {query.render()}")
    return session.ask(query)


def eval_term(state: State, term: Term, session: Optional[OracleSession] = None):
    """Evaluate a term; returns (value, interactions made by this evaluation)."""
    start = len(session.log) if session is not None else 0
    value = _eval(state, term, session)
    interactions = list(session.log[start:]) if session is not None else []
    return value, interactions


def _exec(state: State, rule: Rule, updates: UpdateSet, session: Optional[OracleSession]):
    if isinstance(rule, Skip):
        return
    if isinstance(rule, Assign):
        value = _eval(state, rule.rhs, session)
        target = rule.target
        if isinstance(target, Var):
            loc = Location(target.symbol, ())
        else:
            loc_args = tuple(_eval(state, a, session) for a in target.args)
            loc = Location(target.symbol, loc_args)
        updates.add(loc, value)
        return
    if isinstance(rule, Cond):
        guard = _eval(state, rule.guard, session)
        if guard is True:
            _exec(state, rule.then_rule, updates, session)
        elif rule.else_rule is not None:
            _exec(state, rule.else_rule, updates, session)
        return
    if isinstance(rule, Par):
        for r in rule.rules:
            _exec(state, r, updates, session)
        return
    raise TypeError(f"not a rule: {rule!r}")


def step(state: State, rule: Rule,
         session: Optional[OracleSession] = None) -> tuple[UpdateSet, list[Interaction]]:
    """Run one step of the rule. The caller clears the session's per-step cache."""
    start = len(session.log) if session is not None else 0
    updates = UpdateSet()
    _exec(state, rule, updates, session)
    interactions = list(session.log[start:]) if session is not None else []
    return updates, interactions


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
    detail: Optional[str] = None  # human-readable; not compared

    def same_as(self, other: "Outcome") -> bool:
        return self.kind == other.kind and self.error == other.error


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
    """Execute a program from an initial state under an oracle policy."""
    if max_steps is None:
        max_steps = default_max_steps()
    session = OracleSession(policy, program.vocabulary)
    state = init
    steps: list[StepRecord] = []
    outcome: Optional[Outcome] = None
    while True:
        if program.mode == DO_UNTIL:
            try:
                halt_value, _ = eval_term(state, program.halt)
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
        log_start = session.begin_step()
        try:
            updates, interactions = step(state, program.step_rule, session)
            new_state = apply_updates(state, updates)
        except BasmError as e:
            partial = tuple(session.log[log_start:])
            steps.append(StepRecord(len(steps), UpdateSet(), partial))
            outcome = Outcome("error", e.kind, e.message)
            break
        steps.append(StepRecord(len(steps), updates, tuple(interactions)))
        if program.mode == ITERATE and changes_nothing(state, updates):
            steps[-1].halted_after = True
            state = new_state
            outcome = Outcome("halted")
            break
        state = new_state
    return Trace(program.program_id, init, steps, state, outcome)


def same_steps(a: Trace, b: Trace) -> bool:
    """Step-by-step equality of two traces: the same outcome kind and error,
    and equal step records in order, each compared on its index, update set,
    interactions and halted mark. Replay and behavioural equivalence both
    decide by it."""
    return a.outcome.same_as(b.outcome) and a.steps == b.steps


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
