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
`semantics.observe_step`, as the run loop does: its step record (update set
and interactions, or no updates and the interactions made before a failure)
and its error outcome, if any. Both compare with the equality replay uses
(update values exactly, by `==`, not within the kernel EPS; error outcomes
by kind), and the isomorphism check renames the original record
with `state.renaming`, the map `transport` applies to the state.

`behaviorally_equivalent` is the strictest trace equivalence: traces must
agree stepwise on update sets and on interaction sequences, and end the same
way; `semantics.same_steps` decides it, as it does for replay. Two runs that
change state identically but talk to their oracles differently are distinct
behaviors on purpose.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Iterable, Iterator, Optional

from .errors import BasmError
from .oracles import Interaction, OracleSession, ScriptedPolicy, UniformRandomPolicy
from .semantics import StepRecord, Trace, observe_step, same_steps, step
from .state import (
    BOOLEAN,
    DYNAMIC,
    INTEGER,
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


def _rename(record: StepRecord, move: Callable) -> StepRecord:
    """A step record with every location and value in it renamed by `move`."""
    updates = UpdateSet()
    for key, v in record.updates.items():
        updates.add(move(key), move(v))
    interactions = tuple(
        Interaction(i.oracle, tuple(map(move, i.args)), move(i.answer))
        for i in record.interactions
    )
    return StepRecord(record.index, updates, interactions)


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
        sx = OracleSession(UniformRandomPolicy(trial_seed), x.vocabulary)
        sy = OracleSession(UniformRandomPolicy(trial_seed), y.vocabulary)
        # `step` is looked up per call, so a patched module global is seen.
        ox = observe_step(0, x, program.step_rule, sx, step_fn or step)
        oy = observe_step(0, y, program.step_rule, sy, step_fn or step)
        if ox != oy:
            failures.append(
                f"trial {trial} (seed {trial_seed}): steps differ: {ox!r} vs {oy!r}"
            )
    return CheckReport("bexp", trials, failures)


def check_iso_invariance(program: Program, state: State, bijection: dict,
                         scripted_answers: Iterable = ()) -> CheckReport:
    """Stepping commutes with renaming enum members.

    Runs one step from `state` and one from its transported twin, both under
    scripted answers (the twin's answers are renamed too), and compares the
    twin's step against the renamed original step.
    """
    vocab = program.vocabulary
    move = renaming(vocab, bijection)
    moved_state = _moved(state, move)
    answers = list(scripted_answers)
    sx = OracleSession(ScriptedPolicy.from_answers(answers), vocab)
    sy = OracleSession(ScriptedPolicy.from_answers([move(a) for a in answers]), vocab)
    original, failed = observe_step(0, state, program.step_rule, sx, step)
    expected = _rename(original, move)
    got, got_failed = observe_step(0, moved_state, program.step_rule, sy, step)
    if failed != got_failed:
        failures = [f"outcomes differ under {bijection!r}: {failed!r} vs {got_failed!r}"]
    else:
        failures = [
            f"{name} do not commute with {bijection!r}: expected {want!r}, got {have!r}"
            for name, want, have in (
                ("updates", expected.updates, got.updates),
                ("interactions", expected.interactions, got.interactions),
            )
            if want != have
        ]
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


def behaviorally_equivalent(a: Trace, b: Trace) -> bool:
    """Stepwise equality of update sets and interaction sequences, same outcome."""
    if a.initial_state.vocabulary != b.initial_state.vocabulary:
        raise BasmError("vocab", "traces are over different vocabularies")
    return same_steps(a, b)
