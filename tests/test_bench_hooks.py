"""The traced benchmark wraps basm functions by name; a rename breaks it here.

`bench/tracer.py` patches the names its callers resolve (for example
`semantics.step` and `checks.step`) and puts the originals back afterwards.
"""
from pathlib import Path

from basm import checks, semantics
from basm.corpus import load_entry_program, load_entry_state
from basm.oracles import BuiltinPolicy

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
