"""The store against a plain-Python model, and hostile state files.

Seeded random programs write, in one `par` per step, to 0-ary variables, to a
`cell(Integer)` table and to a table indexed by an enum, reading the same
locations on their right-hand sides; some writes are `undef` and some pairs
of writes clash. Each run must end in the state and the outcome that a dict
keyed by `(name, args)` and stepped by the textbook rules gives: all reads
from the pre-step state, an `undef` write removes its location, and two
different values for one location are a clash that ends the run. Its trace
must read back, replay and re-render byte for byte.

`load_state` is fuzzed from the corpus state files: every damaged file gives
a `State` or raises `BasmError`, never another exception.
"""
import random
from pathlib import Path

import pytest

from basm.corpus import load_entry_program
from basm.errors import BasmError
from basm.literals import load_state
from basm.oracles import ScriptedPolicy
from basm.semantics import replay, run
from basm.state import UNDEF, State
from basm.syntax import parse_program
from basm.traceio import read_trace, render_trace

REPO = Path(__file__).resolve().parents[1]
CELLS = 5  # cell indices are taken mod CELLS, so writes meet and sometimes clash
COLORS = ("red", "green", "blue")
VARIABLES = ("x", "y", "z")
VOCAB = (
    "vocab {\n  enum Color { red, green, blue }\n  var n, x, y, z : Integer\n"
    "  var cell(Integer) : Integer\n  var paint(Color) : Integer\n}\n"
)


# A term is ("lit", k), ("var", name), ("cell", index), ("paint", member) or
# ("add", left, right); an index is ("at", k) for the literal k or
# ("near", k) for `(n + k) mod CELLS`.

def _index(rng):
    return ("at", rng.randrange(CELLS)) if rng.random() < 0.4 else ("near", rng.randrange(CELLS))


def _term(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.3:
        return ("lit", rng.randrange(-9, 10)) if roll < 0.15 else ("var", rng.choice(VARIABLES))
    if roll < 0.55:
        return ("cell", _index(rng))
    if roll < 0.7:
        return ("paint", rng.choice(COLORS))
    return ("add", _term(rng, depth + 1), _term(rng, depth + 1))


def _target(rng):
    roll = rng.random()
    if roll < 0.3:
        return ("var", rng.choice(VARIABLES))
    return ("cell", _index(rng)) if roll < 0.7 else ("paint", rng.choice(COLORS))


def _text(t) -> str:
    kind = t[0]
    if kind == "lit":
        return str(t[1]) if t[1] >= 0 else f"(0 - {-t[1]})"
    if kind == "var":
        return t[1]
    if kind == "cell":
        at, k = t[1]
        return f"cell({k})" if at == "at" else f"cell((n + {k}) mod {CELLS})"
    if kind == "paint":
        return f"paint({t[1]})"
    return f"({_text(t[1])} + {_text(t[2])})"


def _key(t, store):
    """The location pair a target or read term names in `store`."""
    kind = t[0]
    if kind == "var":
        return (t[1], ())
    if kind == "paint":
        return ("paint", (t[1],))
    at, k = t[1]
    return ("cell", (k if at == "at" else (store[("n", ())] + k) % CELLS,))


def _value(t, store):
    if t[0] == "lit":
        return t[1]
    if t[0] == "add":
        a, b = _value(t[1], store), _value(t[2], store)
        return UNDEF if a is UNDEF or b is UNDEF else a + b
    return store.get(_key(t, store), UNDEF)


def _random_machine(rng):
    steps = rng.randint(1, 5)
    writes = []
    for _ in range(rng.randint(1, 4)):
        rhs = ("undef",) if rng.random() < 0.2 else _term(rng)
        writes.append((_target(rng), rhs))
    body = ";\n    ".join(
        f"{_text(target)} := {'undef' if rhs == ('undef',) else _text(rhs)}"
        for target, rhs in writes
    )
    program = VOCAB + f"do until n >= {steps} {{\n  par {{\n    n := n + 1;\n    {body}\n  }}\n}}\n"
    store = {("n", ()): 0}
    for name in VARIABLES:
        if rng.random() < 0.7:
            store[(name, ())] = rng.randrange(-20, 21)
    for i in range(CELLS):
        if rng.random() < 0.6:
            store[("cell", (i,))] = rng.randrange(-20, 21)
    for member in COLORS:
        if rng.random() < 0.6:
            store[("paint", (member,))] = rng.randrange(-20, 21)
    return program, writes, steps, store


def _model_run(writes, steps, store):
    """The final store, the outcome (kind, error) and the step count."""
    store, taken = dict(store), 0
    while store[("n", ())] < steps:
        taken += 1
        updates = {("n", ()): store[("n", ())] + 1}
        for target, rhs in writes:
            key = _key(target, store)
            value = UNDEF if rhs == ("undef",) else _value(rhs, store)
            if updates.setdefault(key, value) is not value and updates[key] != value:
                return store, ("error", "clash"), taken
        for key, value in updates.items():
            if value is UNDEF:
                store.pop(key, None)
            else:
                store[key] = value
    return store, ("halted", None), taken


def _state_text(store) -> str:
    def loc(name, args):
        return f"{name}({args[0]})" if args else name

    return "".join(f"{loc(*key)} := {value}\n" for key, value in store.items())


def test_random_machines_match_the_dict_model_and_round_trip():
    outcomes = set()
    for seed in range(200):
        rng = random.Random(seed)
        text, writes, steps, store = _random_machine(rng)
        program = parse_program(text)
        init = load_state(_state_text(store), program.vocabulary)
        assert init.store == store, seed
        trace = run(program, init, ScriptedPolicy())
        want_store, want_outcome, want_steps = _model_run(writes, steps, store)
        assert (trace.outcome.kind, trace.outcome.error) == want_outcome, (seed, text)
        assert len(trace.steps) == want_steps, (seed, text)
        assert trace.final_state.store == want_store, (seed, text)
        assert init.store == store, seed
        rendered = render_trace(trace)
        again = read_trace(rendered.splitlines(), program)
        assert replay(again, program) and render_trace(again) == rendered, seed
        outcomes.add(want_outcome[0])
    assert outcomes == {"halted", "error"}


# --- hostile state files -------------------------------------------------------

STATES = sorted((REPO / "corpus").glob("*/init/*.state"))
_DEBRIS = list("():=,#.-+e_ \n0123456789") + ["undef", "point(", "circle(", "1e999", "(((", "²"]


def _damage(rng, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.35:
            text = text[:at] + text[at + rng.randint(1, 6):]
        elif roll < 0.75:
            text = text[:at] + rng.choice(_DEBRIS) + text[at:]
        else:
            lines = text.splitlines(keepends=True) or ["\n"]
            text = "".join(rng.sample(lines, len(lines)) + rng.sample(lines, 1))
    return text


@pytest.mark.parametrize("path", STATES, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_a_damaged_state_file_loads_or_raises_a_basm_error(path):
    program = load_entry_program(path.parent.parent.name)
    text = path.read_text()
    rng = random.Random(path.name)
    loaded = 0
    for _ in range(400):
        try:
            state = load_state(_damage(rng, text), program.vocabulary)
        except BasmError:
            continue
        assert isinstance(state, State)
        assert all(type(key) is tuple and type(key[1]) is tuple for key in state.store)
        loaded += 1
    assert loaded > 0
