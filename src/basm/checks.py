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

Bounded exploration and isomorphism invariance compare one observed step:
its update set and interactions, or its error kind and the interactions made
before the failure. Observations compare with the equality replay uses
(update values by `values_equal`, so geometry within the kernel EPS), and
the isomorphism check renames the original step with `state.renaming`, the
map `transport` applies to the state.

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
from typing import Callable, Iterable, Iterator, Optional

from .errors import BasmError
from .oracles import Interaction, OracleSession, ScriptedPolicy, UniformRandomPolicy
from .semantics import Trace, same_steps, step
from .state import (
    BOOLEAN,
    DYNAMIC,
    INTEGER,
    Location,
    State,
    UpdateSet,
    Vocabulary,
    renaming,
    transport,
)
from .syntax import Program, Rule, Term, iter_subterms, rule_terms


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


def _observe(state: State, rule: Rule, session: OracleSession,
             step_fn: Optional[Callable] = None):
    """One step as ("ok", updates, interactions), or as ("error", kind, the
    interactions made before the failure)."""
    start = session.begin_step()
    try:
        # `step` is looked up per call, so a patched module global is seen.
        updates, interactions = (step_fn or step)(state, rule, session)
    except BasmError as e:
        return ("error", e.kind, tuple(session.log[start:]))
    return ("ok", updates, tuple(interactions))


def _rename(observation, move: Callable):
    """An observed step with every value in it renamed by `move`."""
    outcome, result, interactions = observation
    if outcome == "ok":
        moved_updates = UpdateSet()
        for loc, v in result.items():
            moved_updates.add(Location(loc.symbol, tuple(map(move, loc.args))), move(v))
        result = moved_updates
    moved = tuple(
        Interaction(i.oracle, tuple(map(move, i.args)), move(i.answer)) for i in interactions
    )
    return (outcome, result, moved)


def junk_state_sampler(program: Program, base_state: State, *, junk_symbols: int = 3,
                       junk_entries: int = 4, int_range: tuple[int, int] = (-50, 50)):
    """Default sampler for bounded-exploration trials.

    Each trial builds a state X by randomising the program's integer and
    boolean variables over a copy of the base state, plus a handful of junk
    locations the program never mentions. Y is X with only the junk locations
    perturbed, so X and Y agree on every witness term.
    """
    vocab = program.vocabulary.copy()
    junk = [
        vocab.declare(f"zz_junk{i}", (INTEGER,), INTEGER, DYNAMIC)
        for i in range(junk_symbols)
    ]
    junk_flag = vocab.declare("zz_flag", (), BOOLEAN, DYNAMIC)
    lo, hi = int_range
    core_syms = [program.vocabulary.symbol(s.name) for s in program.vocabulary.dynamic_symbols()]

    def randomize_core(rng: random.Random) -> dict:
        interp = dict(base_state.interp)
        for sym in core_syms:
            if sym.arity != 0:
                continue
            if sym.result_sort is INTEGER:
                interp[Location(sym, ())] = rng.randint(lo, hi)
            elif sym.result_sort is BOOLEAN:
                interp[Location(sym, ())] = rng.choice((True, False))
        return interp

    def junk_bindings(rng: random.Random) -> dict:
        bound = {}
        for sym in junk:
            for i in range(junk_entries):
                bound[Location(sym, (i,))] = rng.randint(lo, hi)
        bound[Location(junk_flag, ())] = rng.choice((True, False))
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
        ox = _observe(x, program.step_rule, sx, step_fn)
        oy = _observe(y, program.step_rule, sy, step_fn)
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
    moved_state = transport(state, bijection)
    answers = list(scripted_answers)
    sx = OracleSession(ScriptedPolicy.from_answers(answers), vocab)
    sy = OracleSession(ScriptedPolicy.from_answers([move(a) for a in answers]), vocab)
    expected = _rename(_observe(state, program.step_rule, sx), move)
    got = _observe(moved_state, program.step_rule, sy)
    if expected[0] != got[0]:
        failures = [f"outcomes differ under {bijection!r}: {expected[0]} vs {got[0]}"]
    else:
        fields = ("updates" if got[0] == "ok" else "error kind", "interactions")
        failures = [
            f"{name} do not commute with {bijection!r}: expected {want!r}, got {have!r}"
            for name, want, have in zip(fields, expected[1:], got[1:])
            if want != have
        ]
    return CheckReport("iso", 1, failures)


def enum_bijections(vocab: Vocabulary) -> Iterator[dict]:
    """Every bijection of every enum universe (identity included)."""
    from itertools import permutations, product

    enums = [s for s in vocab.sorts.values() if s.is_enum]
    if not enums:
        yield {}
        return
    per_sort = [
        [dict(zip(s.members, perm)) for perm in permutations(s.members)] for s in enums
    ]
    for combo in product(*per_sort):
        yield {s.name: perm for s, perm in zip(enums, combo)}


def behaviorally_equivalent(a: Trace, b: Trace) -> bool:
    """Stepwise equality of update sets and interaction sequences, same outcome."""
    if a.initial_state.vocabulary != b.initial_state.vocabulary:
        raise BasmError("vocab", "traces are over different vocabularies")
    return same_steps(a, b)
