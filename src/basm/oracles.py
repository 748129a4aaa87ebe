"""Oracle sessions: the query protocol, answer policies, and the seeded PRNG.

A session owns the full interaction log of a run and a per-step answer cache:
within one step, asking the same query again returns the cached answer and
records nothing new. The cache is cleared at step boundaries by the run loop.
A query the policy refuses with a `BasmError`, or answers with a value of
the wrong sort, is logged too, with a `Refused` holding the error kind in
place of its answer, before the error goes on; so the trace of a failed step
names the query that failed it, and a script replays the refusal.

Answer policies:

  BuiltinPolicy        fixed deterministic rules per query shape (see below)
  ScriptedPolicy       replays a prepared list of interactions
  UniformRandomPolicy  seeded uniform choices from a SplitMix64 stream
  InteractivePolicy    prints each query on stderr and reads a literal answer

Policies recognise oracle symbols by signature, not by name. A query with
signature (Circle, Circle) -> Point is treated as circle intersection: the
deterministic rule picks a candidate index into the lexicographically ordered
intersection pair (default 0, the smaller point), the uniform rule draws the
index. A query with signature (Integer, Integer) -> Integer is treated as a
range pick from [b, c]: the deterministic rule answers b, the uniform rule
draws uniformly via rejection sampling. The builtin, uniform and interactive
policies answer a reclassified static symbol by computing its static
interpretation; a script replays it. Anything else can only be answered by a
script or interactively.

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
from .state import (
    CIRCLE,
    INTEGER,
    POINT,
    STATIC_IMPL,
    UNDEF,
    Location,
    Vocabulary,
    value_conforms,
)

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


# Query shapes the builtin and uniform policies answer: (argument sorts, result sort).
_INTERSECTION = ((CIRCLE, CIRCLE), POINT)
_SEGMENT = ((INTEGER, INTEGER), INTEGER)


def _reclassified_static(query: Location):
    """The static interpretation of a query to a reclassified static, else _MISS."""
    impl = STATIC_IMPL.get(query.symbol.name)
    if impl is None:
        return _MISS
    fn, strict = impl
    if strict and any(a is UNDEF for a in query.args):
        return UNDEF
    return fn(*query.args)


def _static_or_candidates(query: Location, policy: str):
    """(True, answer) for a reclassified static, else (False, candidates).

    The candidates are the ordered intersection pair of a circle-intersection
    query, or the segment [b, c] of a segment query as range(b, c + 1).
    """
    value = _reclassified_static(query)
    if value is not _MISS:
        return True, value
    if any(a is UNDEF for a in query.args):
        raise BasmError("oracle-domain", f"oracle query with undef argument: {query.render()}")
    shape = (query.symbol.arg_sorts, query.symbol.result_sort)
    if shape == _INTERSECTION:
        return False, geometry.intersect_circles(*query.args)
    if shape == _SEGMENT:
        b, c = query.args
        if b > c:
            raise BasmError("oracle-domain", f"empty segment [{b}, {c}]")
        return False, range(b, c + 1)
    raise BasmError("oracle-domain", f"no {policy} rule for oracle {query.symbol.name}")


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
        static, found = _static_or_candidates(query, "builtin")
        if static:
            return found
        return found[0 if isinstance(found, range) else self.intersection_choice]


class UniformRandomPolicy:
    """Uniform choices from the session's seeded SplitMix64 stream."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def answer(self, session: "OracleSession", query: Location):
        static, found = _static_or_candidates(query, "uniform")
        if static:
            return found
        # len() of a range stops at 2**63 - 1; a segment may be wider.
        size = found.stop - found.start if isinstance(found, range) else len(found)
        return found[session.prng.uniform_int(0, size - 1)]


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
            raise BasmError(
                "script",
                f"script expected {entry.oracle}, program asked {query.render()}",
            )
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
        value = _reclassified_static(query)
        if value is not _MISS:
            return value
        inp = self.input if self.input is not None else sys.stdin
        out = self.output if self.output is not None else sys.stderr
        candidates = None
        shape = (query.symbol.arg_sorts, query.symbol.result_sort)
        if shape == _INTERSECTION and not any(a is UNDEF for a in query.args):
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
    """Per-run oracle state: policy, PRNG, per-step cache, and the full log."""

    __slots__ = ("policy", "vocabulary", "prng", "per_step_cache", "log")

    def __init__(self, policy, vocabulary: Vocabulary):
        self.policy = policy
        self.vocabulary = vocabulary
        self.prng = SplitMix64(getattr(policy, "seed", 0))
        self.per_step_cache: dict[Location, object] = {}
        self.log: list[Interaction] = []

    def begin_step(self) -> int:
        """Clear the per-step cache; returns the log position for slicing."""
        self.per_step_cache.clear()
        return len(self.log)

    def ask(self, query: Location):
        cached = self.per_step_cache.get(query, _MISS)
        if cached is not _MISS:
            return cached
        try:
            answer = self.policy.answer(self, query)
            if not value_conforms(answer, query.symbol.result_sort):
                raise BasmError(
                    "sort",
                    f"oracle answer {render_value(answer)} is not a "
                    f"{query.symbol.result_sort.name} (query {query.render()})",
                )
        except BasmError as e:
            self.log.append(Interaction(query.symbol.name, query.args, Refused(e.kind)))
            raise
        self.log.append(Interaction(query.symbol.name, query.args, answer))
        self.per_step_cache[query] = answer
        return answer


_MISS = object()

