"""The traced benchmark wraps basm functions by name; a rename breaks it here.

`bench/tracer.py` patches the names its callers resolve (for example
`semantics.step` and `checks.step`) and puts the originals back afterwards.
The benchmark also reads a final state's `interp` as `(Location, value)`
pairs and builds update sets from `Location`s, whatever the store's layout.
"""
from pathlib import Path

from basm import checks, literals, semantics, state
from basm.corpus import load_entry_program, load_entry_state
from basm.oracles import BuiltinPolicy
from basm.state import Location, UpdateSet
from basm.syntax import parse_program

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_and_restores_the_step_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    original = semantics.step
    assert checks.step is original
    t = tracer.Tracer()
    t.install()
    try:
        assert semantics.step is not original and semantics.step.__wrapped__ is original
        assert checks.step is semantics.step
    finally:
        t.restore()
    assert semantics.step is original and checks.step is original


def test_traced_run_counts_every_step(monkeypatch):
    """`run` calls `step` through its module global once per step, so the
    traced benchmark's `semantics.step.calls` equals the steps taken."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    program = load_entry_program("euclid_while")
    state = load_entry_state("euclid_while")
    with tracer.traced() as t:
        trace = semantics.run(program, state, BuiltinPolicy())
    assert trace.outcome.kind == "halted" and len(trace.steps) > 1
    assert t.calls["semantics.step"] == len(trace.steps)


TABLE = """vocab {
  var t, u : Integer
  var cell(Integer) : Integer
}
do until t >= 3 { par { t := t + 1; cell(t + 1) := cell(t) + 1 } }
"""


def test_the_benchmark_reads_and_builds_states_as_it_did(monkeypatch):
    """Every name the tracer patches exists; a traced run of an n-ary table
    counts the loaded bindings and the commit's entries; its final state
    yields `Location`s with `.symbol.name` and `.args`; and an update set's
    items go back into `add` next to a `Location`, as the peeking step does."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    patched = [*tracer.SPANS.values(), *tracer.COUNTED.values(),
               *((policy, "answer") for policy in tracer.POLICIES), (checks, "junk_state_sampler")]
    for owner, attr in patched:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    program = parse_program(TABLE)
    with tracer.traced() as t:
        init = literals.load_state("t := 0\ncell(0) := 5\ncell(9) := 7", program.vocabulary)
        trace = semantics.run(program, init, BuiltinPolicy())
        updates, _ = semantics.step(init, program.step_rule)
        state.apply_updates(init, updates)
    assert t.counts["literals.load_state.entries"] == 3
    assert t.counts["state.apply_updates.entries_copied"] == 3
    assert t.calls["semantics.step"] == len(trace.steps) + 1 == 4
    final = trace.final_state.interp
    assert len(final) == 6
    got = {(loc.symbol.name, loc.args): v for loc, v in final.items()}
    assert got == {("t", ()): 3, ("cell", (0,)): 5, ("cell", (1,)): 6, ("cell", (2,)): 7,
                   ("cell", (3,)): 8, ("cell", (9,)): 7}
    peeked = trace.final_state.read(Location(program.vocabulary.symbol("cell"), (9,)))
    out = UpdateSet()
    for loc, v in updates.items():
        out.add(loc, v)
    out.add(Location(program.vocabulary.symbol("u"), ()), peeked)
    assert len(out) == len(updates) + 1
    assert state.apply_updates(init, out).read(Location(program.vocabulary.symbol("u"), ())) == 7
