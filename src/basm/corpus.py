"""The bundled example programs and helpers to run them.

Entries live under corpus/<name>/ at the repository root:

  program.basm      the program
  init/*.state      initial states (the first listed is the default)
  scripts/*.jsonl   prepared oracle scripts, where the entry uses any
  golden/*.jsonl    recorded traces, regenerated by scripts/make_goldens.py

Entries:

  euclid           gcd by repeated remainder; do-until form, halts on d = a
  euclid_while     the loop alone, halting on b = 0; one step shorter, since
                   the final d := a is what the do-until form folds in
  euclid_implicit  the same step rule under implicit iteration (fixed point)
  tangent          tangent from q to circle C via the auxiliary circle over
                   the midpoint; the intersection oracle picks the touch point
  tangent_direct   the same construction as a single nested term, one step
  primality        repeated random base test a^(n-1) mod n != 1; the same
                   draw is read twice per step through the query cache
  enumgraph        successor walk on a two-member enum universe; fixture for
                   the isomorphism-invariance check

The default initial state of `primality` starts i at 1 and halts on i > k, so
exactly k bases are checked and the false-positive rate for composite n is
liar_rate(n) ** k.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import BasmError, read_text
from .geometry import Circle, Line, Point
from .literals import load_state, parse_value
from .oracles import ScriptedPolicy, choose_policy
from .semantics import Trace, run
from .state import CIRCLE, UNDEF, State, UpdateSet, apply_updates, value_conforms
from .syntax import Program, parse_program
from .traceio import load_script


@dataclass(frozen=True)
class CorpusEntry:
    """A bundled program. `golden_files` maps each recorded trace under
    golden/ to the `corpus_run` arguments that record it, and `script_files`
    maps each oracle script under scripts/ to those of the run it replays."""

    name: str
    init_files: tuple[str, ...]
    golden_files: dict[str, dict]
    policy: str = "builtin"  # builtin | uniform
    seed: int = 0
    script_files: dict[str, dict] = field(default_factory=dict)


_CHOICES = {"choice0.jsonl": {"choice": 0}, "choice1.jsonl": {"choice": 1}}

ENTRIES: dict[str, CorpusEntry] = {
    e.name: e
    for e in (
        CorpusEntry("euclid", ("a12b8.state",), {"a12b8.jsonl": {}}),
        CorpusEntry("euclid_while", ("a12b8.state",), {"a12b8.jsonl": {}}),
        CorpusEntry("euclid_implicit", ("a12b8.state",), {"a12b8.jsonl": {}}),
        CorpusEntry("tangent", ("default.state",), _CHOICES, script_files=_CHOICES),
        CorpusEntry("tangent_direct", ("default.state",), {"choice0.jsonl": {"choice": 0}}),
        CorpusEntry("primality", ("n15k2.state",), {"n15k2_seed42.jsonl": {"seed": 42}},
                    policy="uniform", seed=42),
        CorpusEntry("enumgraph", ("default.state",), {"default.jsonl": {}}),
    )
}


def corpus_dir() -> Path:
    env = os.environ.get("BASM_CORPUS_DIR")
    if env:
        return Path(env)
    for candidate in (Path(__file__).resolve().parents[2] / "corpus", Path.cwd() / "corpus"):
        if candidate.is_dir():
            return candidate
    raise BasmError("corpus", "corpus directory not found; set BASM_CORPUS_DIR")


def entry_dir(name: str) -> Path:
    if name not in ENTRIES:
        raise BasmError("corpus", f"unknown corpus entry: {name}")
    return corpus_dir() / name


_program_cache: dict[str, Program] = {}
_state_cache: dict[tuple[str, str], State] = {}


def load_entry_program(name: str) -> Program:
    if name not in _program_cache:
        path = entry_dir(name) / "program.basm"
        _program_cache[name] = parse_program(read_text(path))
    return _program_cache[name]


def load_entry_state(name: str, init_file: Optional[str] = None) -> State:
    entry = ENTRIES[name]
    init_file = init_file or entry.init_files[0]
    key = (name, init_file)
    if key not in _state_cache:
        program = load_entry_program(name)
        path = entry_dir(name) / "init" / init_file
        _state_cache[key] = load_state(read_text(path), program.vocabulary, source=str(path))
    return _state_cache[key]


def _coerce(value, sort, vocabulary):
    if isinstance(value, str):
        return parse_value(value, sort, vocabulary)
    # A point, circle or line is a tuple too; only a plain pair is built
    # into one, so a circle given for a line fails the sort test below.
    if type(value) is tuple and len(value) == 2:
        if all(isinstance(c, (int, float)) for c in value):
            value = Point(float(value[0]), float(value[1]))
        elif all(isinstance(c, Point) for c in value):
            value = Circle(*value) if sort is CIRCLE else Line(*value)
    if value is None:
        return UNDEF
    if not value_conforms(value, sort):
        raise BasmError("sort", f"override value {value!r} does not fit sort {sort.name}")
    return value


def corpus_run(name: str, *, init_file: Optional[str] = None, seed: Optional[int] = None,
               choice: Optional[int] = None, script=None, max_steps: Optional[int] = None,
               **bindings) -> Trace:
    """Run a corpus entry.

    Keyword `bindings` override initial-state variables by name (python ints,
    bools, (x, y) pairs for points, geometry objects, or literal strings).
    `choice` forces the deterministic intersection pick, `seed` selects the
    uniform policy, and `script` replays answers: a list of values, given in
    order to whatever query comes next, or the name of a file under the
    entry's scripts/ directory, replayed strictly. With none of them the
    entry's default policy runs; a seed and a choice together raise "corpus".
    """
    program = load_entry_program(name)  # raises "corpus" for an unknown name
    entry = ENTRIES[name]
    state = load_entry_state(name, init_file)
    if bindings:
        updates = UpdateSet()
        for var, value in bindings.items():
            sym = program.vocabulary.symbol(var)
            if sym is None or sym.kind != "dynamic" or sym.arity != 0:
                raise BasmError("corpus", f"{name} has no variable named {var}")
            updates.add((var, ()), _coerce(value, sym.result_sort, program.vocabulary))
        state = apply_updates(state, updates)
    policy = choose_policy(
        None, seed, choice,
        None if script is None else lambda: _script_policy(entry, program, script),
        default=(entry.policy, entry.seed),
    )
    return run(program, state, policy, max_steps=max_steps)


def _script_policy(entry: CorpusEntry, program: Program, script) -> ScriptedPolicy:
    if isinstance(script, str):
        path = entry_dir(entry.name) / "scripts" / script
        return load_script(read_text(path).splitlines(), program.vocabulary, mode="strict")
    return ScriptedPolicy.from_answers(script)


def liar_rate(n: int) -> Fraction:
    """Exact fraction of bases a in [2, n-2] with a^(n-1) mod n = 1."""
    if n < 5:
        raise BasmError("corpus", "liar_rate needs n >= 5")
    hits = sum(1 for a in range(2, n - 1) if pow(a, n - 1, n) == 1)
    return Fraction(hits, n - 3)
