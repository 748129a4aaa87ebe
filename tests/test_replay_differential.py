"""Replay against a reference written out here: every committed golden, and
edited copies of each, give the same text either way.

The reference is replay as a rerun and a comparison of whole lists: `run`
under the trace's recorded answers and refusals, with the trace's length as
its budget, then `divergence`, then the final-state rule. Replay itself
compares each step as the rerun makes it.

The module needs no pytest, so it also runs as a script:

    PYTHONPATH=src python tests/test_replay_differential.py
"""
from dataclasses import replace

from basm.corpus import ENTRIES, entry_dir, load_entry_program
from basm.geometry import Circle, Line, Point
from basm.literals import load_state
from basm.oracles import BuiltinPolicy, Refused, ScriptedPolicy
from basm.semantics import Outcome, StepRecord, divergence, replay_divergence, run
from basm.state import UNDEF, State, rendered_bindings
from basm.syntax import parse_program
from basm.traceio import read_trace

# (program, initial state, step budget): an iterate run, then runs that end
# in the ways no golden does: a step limit, a failing step, a refused query
# and a failing halting term.
ENDINGS = [
    ("vocab {\n  var a : Integer\n}\niterate { if a < 3 then a := a + 1 }\n", "a := 0", None),
    ("vocab {\n  var a : Integer\n}\ndo until a < 0 { a := a + 1 }\n", "a := 0", 3),
    ("vocab {\n  var a, b : Integer\n  oracle R(Integer, Integer) : Integer\n}\n"
     "do until false { if a = 2 then a := R(1, 0) else par { a := a + 1; b := R(0, 9) } }\n",
     "a := 0\nb := 0", None),
    ("vocab {\n  var a : Integer\n  oracle R(Integer, Integer) : Integer\n}\n"
     "do until a > 5 { a := R(5, 1) }\n", "a := 0", None),
    ("vocab {\n  var a : Integer\n}\ndo until 1 mod a = 0 { a := a - 2 }\n", "a := 4", None),
]


def _other(value):
    """A value that differs from `value`, of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, Point):
        return Point(value.x + 1.0, value.y)
    if isinstance(value, Circle):
        return Circle(_other(value.center), value.through)
    if isinstance(value, Line):
        return Line(_other(value.p1), value.p2)
    if isinstance(value, Refused):
        return Refused("arith" if value.kind != "arith" else "sort")
    return value + "_edited"  # an enum member


def _with_step(trace, n, **fields):
    steps = list(trace.steps)
    steps[n] = replace(steps[n], **fields)
    return replace(trace, steps=steps)


def edited_copies(trace):
    """(name, trace) for each edit: the trace itself, then copies that each
    differ from it in one place."""
    steps, outcome = trace.steps, trace.outcome
    yield "unedited", trace
    if steps:
        yield "last row dropped", replace(trace, steps=steps[:-1])
        repeated = StepRecord(steps[-1].updates, steps[-1].interactions)
        yield "last row repeated", replace(trace, steps=[*steps, repeated])
    for n, record in enumerate(steps):
        if record.updates:
            key, value = next(iter(record.updates.items()))
            updates = type(record.updates)(record.updates)
            updates[key] = _other(value)
            yield f"step {n} update value", _with_step(trace, n, updates=updates)
        for k, i in enumerate(record.interactions):
            interactions = list(record.interactions)
            interactions[k] = i._replace(answer=_other(i.answer))
            yield f"step {n} answer {k}", _with_step(trace, n, interactions=tuple(interactions))
    kind = "step-limit" if outcome.kind == "halted" else "halted"
    yield "outcome kind", replace(trace, outcome=Outcome(kind, outcome.error, outcome.detail))
    error = "script" if outcome.error != "script" else "sort"
    yield "error kind", replace(trace, outcome=Outcome(outcome.kind, error, outcome.detail))
    store = trace.final_state.store
    key = min(store, key=repr)
    final = State(trace.final_state.vocabulary, {**store, key: _other(store[key])})
    yield "final-state binding", replace(trace, final_state=final)


def _bindings_text(store, keys):
    bindings = rendered_bindings({key: store.get(key, UNDEF) for key in keys})
    return "{" + ", ".join(f"{loc}={v}" for loc, v in bindings) + "}"


def reference(trace, program):
    """Rerun the whole trace, keep every rerun record, then compare."""
    script = ScriptedPolicy([i for record in trace.steps for i in record.interactions])
    rerun = run(program, trace.initial_state, script, max_steps=len(trace.steps))
    differs = divergence(trace.steps, trace.outcome, rerun.steps, rerun.outcome)
    if differs is not None or rerun.final_state == trace.final_state:
        return differs
    a, b = trace.final_state.store, rerun.final_state.store
    keys = [k for k in a.keys() | b.keys() if a.get(k, UNDEF) != b.get(k, UNDEF)]
    return f"final-state: {_bindings_text(a, keys)} vs {_bindings_text(b, keys)}"


def base_traces():
    """(label, program, trace): every golden read from its file, then a run
    of each of ENDINGS."""
    for name, entry in sorted(ENTRIES.items()):
        program = load_entry_program(name)
        for fname in sorted(entry.golden_files):
            lines = (entry_dir(name) / "golden" / fname).read_text().splitlines()
            yield f"{name}/{fname}", program, read_trace(lines, program)
    for n, (text, init, budget) in enumerate(ENDINGS):
        program = parse_program(text)
        trace = run(program, load_state(init, program.vocabulary), BuiltinPolicy(), budget)
        yield f"ending {n} ({trace.outcome.kind})", program, trace


def mismatches():
    """Each case where replay and the reference disagree, and the number of
    cases compared."""
    found, compared = [], 0
    for label, program, trace in base_traces():
        for edit, edited in edited_copies(trace):
            got, want = replay_divergence(edited, program), reference(edited, program)
            compared += 1
            if got != want or (edit == "unedited") != (want is None):
                found.append(f"{label}, {edit}: {got!r} vs reference {want!r}")
    return found, compared


def test_replay_gives_the_reference_text_on_every_edited_golden():
    found, compared = mismatches()
    assert compared > 100
    assert not found, "\n".join(found)


if __name__ == "__main__":
    found, compared = mismatches()
    print("\n".join(found) or f"{compared} cases: replay gives the reference text on each")
    raise SystemExit(1 if found else 0)
