"""Runtime property checks.

Three of the defining properties of this machine model are phrased as
executable checks over programs and traces:

  * bounded exploration: one step only depends on (and only touches) the
    values of the program's own subterms, the "exploration witness";
  * isomorphism invariance: renaming enum universe members commutes with
    taking a step, provided oracle answers are renamed the same way;
  * replay determinism: a recorded trace, replayed against its program with
    the recorded answers fed back, reproduces itself exactly (see
    semantics.replay).

Bounded exploration and isomorphism invariance observe one step with
`semantics.observe_step`, as the run loop does once `step` is replaced (with
its own `step`, the loop does the same work inline): its step record (update
set and interactions, or no updates and the interactions made before a
failure, a refused query included) and its error outcome, if any. The isomorphism
check renames the state, the scripted answers and the original record with
one `state.renaming`, the member table `transport` applies to a state: each
location and value moves by a lookup in it.

`behaviorally_equivalent` is the strictest trace equivalence: traces must
agree stepwise on update sets and on interaction sequences, and end the same
way. Two runs that change state identically but talk to their oracles
differently are distinct behaviors on purpose. `semantics.divergence` decides
it and both step checks (update values exactly, by `==`, not within the
kernel EPS; error outcomes by kind); a failing check reports its text, the
first differing step and field, and `equivalence_divergence` gives it for
two traces. Replay compares the same fields step by step as its rerun runs,
and reports a disagreement by `divergence`'s text.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Iterable, Iterator, Optional

from .errors import BasmError
from .oracles import Interaction, OracleSession, ScriptedPolicy, UniformRandomPolicy
from .semantics import Outcome, StepRecord, Trace, divergence, observe_step, step
from .state import (
    BOOLEAN,
    DYNAMIC,
    INTEGER,
    Renaming,
    Sort,
    State,
    Symbol,
    UpdateSet,
    Vocabulary,
    _moved,
    renaming,
)
from .syntax import Program, Term, iter_subterms, rule_terms

# `junk_state_sampler`'s junk tables, entries per table, and integer range.
JUNK_SYMBOLS = 3
JUNK_ENTRIES = 4
JUNK_INT_RANGE = (-50, 50)


def exploration_witness(program: Program) -> frozenset:
    """The syntactic closure of every term occurring in a program's step."""
    acc: set[Term] = set()
    if program.halt is not None:
        acc.update(iter_subterms(program.halt))
    for t in rule_terms(program.step_rule):
        acc.update(iter_subterms(t))
    return frozenset(acc)


@dataclass
class CheckReport:
    check: str
    trials: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {"check": self.check, "trials": self.trials, "failures": self.failures}
        )


def _rename(record: StepRecord, move: Renaming) -> StepRecord:
    """A step record with every location and value in it renamed by lookups
    in `move`'s member table. A bijection moves no two keys onto one, so the
    renamed update set is built whole, with no clash test."""
    get = move.get
    updates = UpdateSet(move.bindings(record.updates))
    interactions = tuple(Interaction(i.oracle, tuple(map(get, i.args, i.args)),
                                     get(i.answer, i.answer))
                         for i in record.interactions)
    return StepRecord(updates, interactions)


def _declare_fresh(vocab: Vocabulary, name: str, arg_sorts: tuple, result_sort: Sort) -> Symbol:
    """Declare a junk variable under `name`, or under `name_1`, `name_2`, ...
    if the program already uses it."""
    fresh, n = name, 0
    while fresh in vocab.symbols or fresh in vocab.sorts or vocab.member_sort(fresh):
        n += 1
        fresh = f"{name}_{n}"
    return vocab.declare(fresh, arg_sorts, result_sort, DYNAMIC)


def junk_state_sampler(program: Program, base_state: State):
    """Default sampler for bounded-exploration trials.

    Each trial builds a state X by randomising the program's integer and
    boolean variables over a copy of the base state, plus a handful of junk
    locations the program never mentions: `zz_junk0..2(Integer)` and
    `zz_flag`, each renamed if the program uses its name. Y is X with only
    the junk locations perturbed, so X and Y agree on every witness term.
    """
    vocab = program.vocabulary.copy()
    junk = [_declare_fresh(vocab, f"zz_junk{i}", (INTEGER,), INTEGER) for i in range(JUNK_SYMBOLS)]
    junk_flag = _declare_fresh(vocab, "zz_flag", (), BOOLEAN)
    lo, hi = JUNK_INT_RANGE
    core_syms = [s for s in program.vocabulary.symbols.values() if s.kind == DYNAMIC]

    def randomize_core(rng: random.Random) -> dict:
        store = dict(base_state.store)
        for sym in core_syms:
            if sym.arity != 0:
                continue
            if sym.result_sort is INTEGER:
                store[sym.name, ()] = rng.randint(lo, hi)
            elif sym.result_sort is BOOLEAN:
                store[sym.name, ()] = rng.choice((True, False))
        return store

    def junk_bindings(rng: random.Random) -> dict:
        bound = {}
        for sym in junk:
            for i in range(JUNK_ENTRIES):
                bound[sym.name, (i,)] = rng.randint(lo, hi)
        bound[junk_flag.name, ()] = rng.choice((True, False))
        return bound

    def sample(rng: random.Random) -> tuple[State, State]:
        core = randomize_core(rng)
        x = State(vocab, {**core, **junk_bindings(rng)})
        y = State(vocab, {**core, **junk_bindings(rng)})
        return x, y

    return sample


def _observe(program: Program, state: State, policy,
             step_fn: Optional[Callable] = None) -> tuple[StepRecord, Optional[Outcome]]:
    """One step of the program from the state, by `step_fn` or `step`, under
    a fresh session of the policy: its record and its error outcome, if any."""
    # `step` is looked up per call, so a patched module global is seen.
    return observe_step(state, program.step_rule, OracleSession(policy, state.vocabulary),
                        step_fn or step)


def check_bounded_exploration(program: Program, sampler, trials: int, seed: int,
                              step_fn: Optional[Callable] = None) -> CheckReport:
    """States agreeing on the witness must step identically.

    Both states run one step under fresh uniform policies with the same trial
    seed, so equal query sequences receive identical answers; any divergence
    in updates, interactions, or failure kind is a counterexample.
    """
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        x, y = sampler(rng)
        trial_seed = rng.getrandbits(63)
        x_record, x_failed = _observe(program, x, UniformRandomPolicy(trial_seed), step_fn)
        y_record, y_failed = _observe(program, y, UniformRandomPolicy(trial_seed), step_fn)
        differs = divergence([x_record], x_failed, [y_record], y_failed)
        if differs is not None:
            failures.append(f"trial {trial} (seed {trial_seed}): {differs}")
    return CheckReport("bexp", trials, failures)


def check_iso_invariance(program: Program, state: State, bijection: dict,
                         scripted_answers: Iterable = ()) -> CheckReport:
    """Stepping commutes with renaming enum members.

    Runs one step from `state` and one from its transported twin, both under
    scripted answers (the twin's answers are renamed too), and compares the
    twin's step against the renamed original step.
    """
    move = renaming(program.vocabulary, bijection)
    answers = list(scripted_answers)
    original, failed = _observe(program, state, ScriptedPolicy.from_answers(answers))
    got, got_failed = _observe(program, _moved(state, move),
                               ScriptedPolicy.from_answers(map(move.get, answers, answers)))
    differs = divergence([_rename(original, move)], failed, [got], got_failed)
    failures = [] if differs is None else [f"under {bijection!r}: {differs}"]
    return CheckReport("iso", 1, failures)


def enum_bijections(vocab: Vocabulary) -> Iterator[dict]:
    """Every bijection of every enum universe: the identity first, then in
    `permutations` order with the last sort varying fastest. Each is built
    when it is asked for, so the first comes at once however many there are."""
    enums = [s for s in vocab.sorts.values() if s.is_enum]

    def from_sort(k: int) -> Iterator[dict]:
        if k == len(enums):
            yield {}
            return
        sort = enums[k]
        for perm in permutations(sort.members):
            moved = dict(zip(sort.members, perm))
            for rest in from_sort(k + 1):
                yield {sort.name: moved, **rest}
    return from_sort(0)


def equivalence_divergence(a: Trace, b: Trace) -> Optional[str]:
    """None when two traces are strictly equivalent, otherwise the first
    difference, as `semantics.divergence` names it."""
    if a.initial_state.vocabulary != b.initial_state.vocabulary:
        raise BasmError("vocab", "traces are over different vocabularies")
    return divergence(a.steps, a.outcome, b.steps, b.outcome)


def behaviorally_equivalent(a: Trace, b: Trace) -> bool:
    """Stepwise equality of update sets and interaction sequences, same outcome."""
    return equivalence_divergence(a, b) is None
