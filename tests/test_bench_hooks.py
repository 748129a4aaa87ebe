"""The traced benchmark wraps basm functions by name; a rename breaks it here.

`bench/tracer.py` patches the names its callers resolve (for example
`semantics.step` and `checks.step`) and puts the originals back afterwards.
"""
from pathlib import Path

from basm import checks, semantics

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
