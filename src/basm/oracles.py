"""Oracle sessions: the query protocol, answer policies, and the seeded PRNG.

A session keeps one table per step, `per_step_cache`, from each query asked
to its `Interaction`, in the order asked: the step's interactions and its
answer cache. Asking a query again in its step records nothing new and
gives the recorded answer, or raises a refusal's kind again. The run loop
clears it at each step (`begin_step`). A query the policy refuses with a
`BasmError`, or answers with a value of the wrong sort, goes in with a
`Refused` holding the error kind in place of its answer, before the error
goes on; so the trace of a failed step names the query that failed it, and
a script replays the refusal.

The builtin and uniform policies answer a query by its symbol's rule, which
depends on the symbol alone and is found once per vocabulary (`_rule`);
answers, PRNG draws and messages are as if each query were classified. A
reclassified static, known by its name, is computed. A (Circle, Circle) ->
Point query picks from the intersection pair ordered by (x, y): the builtin
rule index `intersection_choice`, the uniform rule a drawn index. An (Integer,
Integer) -> Integer query picks from [b, c]: the builtin rule b, the uniform
rule a uniform draw. Other oracles are answered by a script or interactively.

The PRNG is SplitMix64, fixed exactly so traces reproduce across machines and
languages (constants and the rejection scheme are spelled out in
docs/formats.md).
"""
from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TextIO

from . import geometry
from .errors import BasmError, ParseError
from .literals import parse_value, render_value
from .state import CIRCLE, INTEGER, POINT, STATIC_IMPL, UNDEF, Location, Vocabulary, value_conforms

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The standard splitmix64 stream; 64-bit state, 64-bit outputs."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_int(self, b: int, c: int) -> int:
        """Uniform draw from the integer segment [b, c] by rejection sampling."""
        if b > c:
            raise BasmError("oracle-domain", f"empty segment [{b}, {c}]")
        n = c - b + 1
        # Past 2**64 the threshold below is 0 and every draw would be rejected.
        if n > 1 << 64:
            raise BasmError("oracle-domain", f"segment [{b}, {c}] is wider than 2^64")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < threshold:
                return b + (v % n)


# The error kinds a policy may refuse a query with, the last one for an
# answer of the wrong sort.
REFUSALS = frozenset({"oracle-domain", "script", "aborted", "arith", "sort"})


@dataclass(frozen=True)
class Refused:
    """The answer slot of a refused query: the kind of the error raised."""

    kind: str


class Interaction(namedtuple("Interaction", "oracle args answer")):
    """One query and its answer, or a `Refused`. In a script, an oracle or
    args of None matches any oracle or any arguments. A `namedtuple`, so it
    is hashed and compared in C, and its repr names its fields."""

    __slots__ = ()


# A symbol's rule: its shape ("static", "intersection", "segment" or None) and
# the builtin and the uniform policy's answer, each called (policy, session, query).
_Rule = namedtuple("_Rule", "symbol shape builtin uniform")


def _rule(session: "OracleSession", query: Location) -> _Rule:
    """A query's rule, from its vocabulary's table by symbol name, bound on the first query."""
    rules = session.rules
    if rules is None:
        rules = session.rules = vars(session.vocabulary).setdefault("_oracle_rules", {})
    rule = rules.get(query[0])
    if rule is None or rule.symbol is not query.symbol:
        rule = rules[query[0]] = _classify(query.symbol)
    return rule


def _classify(symbol) -> _Rule:
    """A reclassified static by its name, else a shape by its signature."""
    impl = STATIC_IMPL.get(symbol.name)
    if impl is not None:
        fn, strict = impl

        def static(policy, session, query):
            return UNDEF if strict and any(a is UNDEF for a in query.args) else fn(*query.args)
        return _Rule(symbol, "static", static, static)
    shape = (symbol.arg_sorts, symbol.result_sort)
    if shape == ((CIRCLE, CIRCLE), POINT):
        return _Rule(symbol, "intersection", _chosen_candidate, _drawn_candidate)
    if shape == ((INTEGER, INTEGER), INTEGER):
        return _Rule(symbol, "segment", _lower_endpoint, _drawn_from_segment)
    return _Rule(symbol, None, _no_rule("builtin"), _no_rule("uniform"))


def _refuse_undef(query: Location):
    if any(a is UNDEF for a in query.args):
        raise BasmError("oracle-domain", f"oracle query with undef argument: {query.render()}")


def _no_rule(policy_name: str) -> Callable:
    def answer(policy, session, query):
        _refuse_undef(query)
        raise BasmError("oracle-domain", f"no {policy_name} rule for oracle {query.symbol.name}")
    return answer


def _candidates(query: Location) -> tuple:
    a, b = query.args
    if a is UNDEF or b is UNDEF:
        _refuse_undef(query)
    return geometry.intersect_circles(a, b)


def _chosen_candidate(policy, session, query):
    return _candidates(query)[policy.intersection_choice]


def _drawn_candidate(policy, session, query):
    return _candidates(query)[session.prng.uniform_int(0, 1)]


def _lower_endpoint(policy, session, query):
    b, c = query.args
    if b is UNDEF or c is UNDEF:
        _refuse_undef(query)
    if b > c:
        raise BasmError("oracle-domain", f"empty segment [{b}, {c}]")
    return b


def _drawn_from_segment(policy, session, query):
    b = _lower_endpoint(policy, session, query)
    return b + session.prng.uniform_int(0, query.args[1] - b)


class BuiltinPolicy:
    """Deterministic canonical answers.

    `intersection_choice` selects index 0 or 1 of the ordered candidate pair
    for circle-intersection queries; segment queries answer the lower endpoint.
    """

    def __init__(self, intersection_choice: int = 0):
        if intersection_choice not in (0, 1):
            raise BasmError("oracle-domain", "intersection choice must be 0 or 1")
        self.intersection_choice = intersection_choice

    def answer(self, session: "OracleSession", query: Location):
        return _rule(session, query).builtin(self, session, query)


class UniformRandomPolicy:
    """Uniform choices from the session's seeded SplitMix64 stream."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def answer(self, session: "OracleSession", query: Location):
        return _rule(session, query).uniform(self, session, query)


class ScriptedPolicy:
    """Replays prepared answers.

    The script is a list of interactions, consumed in order. Each must match
    the query's oracle name and arguments, where None matches anything. A
    matched `Refused` entry raises its recorded kind.
    """

    def __init__(self, entries: Iterable[Interaction] = ()):
        self.entries = list(entries)
        self.cursor = 0

    @classmethod
    def from_answers(cls, answers: Iterable) -> "ScriptedPolicy":
        """Answers in order, each given to whatever query comes next."""
        return cls([Interaction(None, None, a) for a in answers])

    def answer(self, session: "OracleSession", query: Location):
        if self.cursor >= len(self.entries):
            raise BasmError("script", f"script exhausted at {query.render()}")
        entry = self.entries[self.cursor]
        if entry.oracle is not None and entry.oracle != query.symbol.name:
            raise BasmError("script",
                            f"script expected {entry.oracle}, program asked {query.render()}")
        if entry.args is not None and entry.args != query.args:
            raise BasmError("script", f"script arguments do not match {query.render()}")
        self.cursor += 1
        if type(entry.answer) is Refused:
            raise BasmError(entry.answer.kind, f"the script refuses {query.render()}")
        return entry.answer


class InteractivePolicy:
    """Prompts on stderr, reads one literal per line from stdin.

    Circle-intersection queries also print the two ordered candidates; a bare
    0 or 1 picks one. A closed input stream aborts the run. A reclassified
    static is computed, not asked.
    """

    def __init__(self, input_stream: Optional[TextIO] = None,
                 output_stream: Optional[TextIO] = None):
        self.input = input_stream
        self.output = output_stream

    def answer(self, session: "OracleSession", query: Location):
        rule = _rule(session, query)
        if rule.shape == "static":
            return rule.builtin(self, session, query)
        inp = self.input if self.input is not None else sys.stdin
        out = self.output if self.output is not None else sys.stderr
        candidates = None
        if rule.shape == "intersection" and not any(a is UNDEF for a in query.args):
            candidates = geometry.intersect_circles(*query.args)
        out.write(f"oracle {query.render()}\n")
        if candidates is not None:
            out.write(f"  [0] {render_value(candidates[0])}\n")
            out.write(f"  [1] {render_value(candidates[1])}\n")
        while True:
            out.write("? ")
            out.flush()
            line = inp.readline()
            if line == "":
                raise BasmError("aborted", f"oracle input closed at {query.render()}")
            text = line.strip()
            if candidates is not None and text in ("0", "1"):
                return candidates[int(text)]
            try:
                return parse_value(text, query.symbol.result_sort, session.vocabulary)
            except ParseError as e:
                out.write(f"  cannot read answer: {e.message}\n")


def choose_policy(name: Optional[str] = None, seed: Optional[int] = None,
                  choice: Optional[int] = None,
                  script: Optional[Callable[[], ScriptedPolicy]] = None,
                  default: tuple[str, int] = ("builtin", 0)):
    """The policy of a run.

    A policy `name` wins. Without one, a script makes the run scripted, a seed
    uniform and a choice builtin; with none of them the `default` policy name
    and seed apply. A seed and a choice with no name are ambiguous. `script`
    reads the script, and is called only for a scripted run.
    """
    if name is None:
        if seed is not None and choice is not None:
            raise BasmError("corpus", "a seed picks the uniform policy and a choice the "
                                      "builtin one; give one of them, or name the policy")
        if script is not None:
            name = "scripted"
        elif seed is not None:
            name = "uniform"
        elif choice is not None:
            name = "builtin"
        else:
            name, seed = default
    if name == "builtin":
        return BuiltinPolicy(choice or 0)
    if name == "uniform":
        return UniformRandomPolicy(seed or 0)
    if name == "interactive":
        return InteractivePolicy()
    if script is None:
        raise BasmError("script", "--policy scripted needs --script FILE")
    return script()


class OracleSession:
    """Per-run oracle state: policy, PRNG, and the current step's table."""

    __slots__ = ("policy", "vocabulary", "prng", "per_step_cache", "rules")

    def __init__(self, policy, vocabulary: Vocabulary):
        self.policy = policy
        self.vocabulary = vocabulary
        self.prng = SplitMix64(getattr(policy, "seed", 0))
        self.per_step_cache: dict[Location, Interaction] = {}
        self.rules: Optional[dict[str, _Rule]] = None  # the vocabulary's, from the first query

    def begin_step(self) -> None:
        """Start a step: clear the step's table."""
        self.per_step_cache.clear()

    def ask(self, query: Location):
        asked = self.per_step_cache.get(query)
        if asked is not None:
            if type(asked.answer) is Refused:
                raise BasmError(asked.answer.kind, f"{query.render()} was refused in this step")
            return asked.answer
        try:
            answer = self.policy.answer(self, query)
            if not value_conforms(answer, query.symbol.result_sort):
                raise BasmError("sort", f"oracle answer {render_value(answer)} is not a "
                                        f"{query.symbol.result_sort.name} (query {query.render()})")
        except BasmError as e:
            self.per_step_cache[query] = Interaction(query.symbol.name, query.args, Refused(e.kind))
            raise
        self.per_step_cache[query] = Interaction(query.symbol.name, query.args, answer)
        return answer
