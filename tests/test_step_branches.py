"""The run loop's two ways of taking a step make the same runs.

While `semantics.step` is the module's own function, the run loop calls the
generated rule itself; once `step` is replaced, as the benchmark's tracer
replaces it, the loop calls `observe_step` with the replacement. Each case
here runs twice: unhooked, and with `step` replaced by a pass-through
wrapper through `monkeypatch`. The two runs must render byte-identical
traces, and `replay_divergence` must give the same text for each edited copy
of the trace (`test_replay_differential.edited_copies`). The cases are every
committed golden, rerun from its initial state under its recorded answers,
the five runs of `test_replay_differential.ENDINGS`, and programs from the
round-trip generator of `test_syntax.py`.

The module needs no pytest, so it also runs as a script; the generator
cases need pytest and hypothesis, and are left out without them:

    PYTHONPATH=src python tests/test_step_branches.py
"""
from importlib.util import find_spec

from test_replay_differential import ENDINGS, edited_copies

from basm import semantics
from basm.corpus import ENTRIES, entry_dir, load_entry_program
from basm.literals import load_state
from basm.oracles import BuiltinPolicy, ScriptedPolicy, UniformRandomPolicy
from basm.syntax import parse_program
from basm.traceio import read_trace, render_trace

GENERATOR = all(find_spec(name) for name in ("pytest", "hypothesis"))


def _counted(fn, calls: list):
    def counting(*args):
        calls.append(1)
        return fn(*args)
    return counting


def both_ways(monkeypatch, program, init, make_policy, max_steps) -> list[str]:
    """What differs between the unhooked run and the run with `step`
    replaced: the rendered traces, then each edited copy's replay text.
    Each run must take its own branch: `observe_step` is called by the
    hooked run only, once per step."""
    runs, texts = [], []
    for hooked in (False, True):
        observed, stepped = [], []
        monkeypatch.setattr(semantics, "observe_step", _counted(semantics.observe_step, observed))
        if hooked:
            monkeypatch.setattr(semantics, "step", _counted(semantics.step, stepped))
        try:
            trace = semantics.run(program, init, make_policy(), max_steps)
            ran = len(observed), len(stepped)
            runs.append(trace)
            texts.append([(edit, semantics.replay_divergence(edited, program))
                          for edit, edited in edited_copies(trace)])
        finally:
            monkeypatch.undo()
        if ran != (hooked * len(trace.steps),) * 2 or len(stepped) != hooked * len(observed):
            return [f"hooked={hooked}: {ran} observe_step and step calls for "
                    f"{len(trace.steps)} steps"]
    found = []
    if render_trace(runs[0]) != render_trace(runs[1]):
        found.append("rendered traces differ")
    found += [f"{edit}: {a!r} vs hooked {b!r}"
              for (edit, a), (_, b) in zip(*texts) if a != b]
    return found


def golden_differences(monkeypatch) -> list[str]:
    """Each golden rerun from its initial state under its recorded answers."""
    found = []
    for name, entry in sorted(ENTRIES.items()):
        program = load_entry_program(name)
        for fname in sorted(entry.golden_files):
            lines = (entry_dir(name) / "golden" / fname).read_text().splitlines()
            trace = read_trace(lines, program)
            script = [i for record in trace.steps for i in record.interactions]
            found += [f"{name}/{fname}, {d}" for d in both_ways(
                monkeypatch, program, trace.initial_state, lambda: ScriptedPolicy(script),
                len(trace.steps))]
    return found


def ending_differences(monkeypatch) -> list[str]:
    """Each run of ENDINGS: a fixpoint, a step limit, a failing step, a
    refused query and a failing halting term."""
    found = []
    for n, (text, init, budget) in enumerate(ENDINGS):
        program = parse_program(text)
        found += [f"ending {n}, {d}" for d in both_ways(
            monkeypatch, program, load_state(init, program.vocabulary), BuiltinPolicy, budget)]
    return found


def test_each_golden_reruns_the_same_either_way(monkeypatch):
    found = golden_differences(monkeypatch)
    assert not found, "\n".join(found)


def test_each_ending_runs_the_same_either_way(monkeypatch):
    found = ending_differences(monkeypatch)
    assert not found, "\n".join(found)


if GENERATOR:
    import pytest
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from test_syntax import program as generated_program
    from test_syntax import pretty

    @settings(max_examples=120, deadline=None)
    @given(generated_program(), st.integers(-20, 20), st.integers(-20, 20),
           st.dictionaries(st.integers(-5, 5), st.integers(-20, 20), max_size=3),
           st.one_of(st.none(), st.integers(0, 2**32)))
    def test_each_generated_program_runs_the_same_either_way(prog, x, y, table, seed):
        """A parsed program from the round-trip generator, run for at most
        six steps under the builtin policy (no seed) or the seeded uniform one."""
        prog = parse_program(pretty(prog))
        text = f"x := {x}\ny := {y}\n" + "".join(f"f({k}) := {v}\n" for k, v in table.items())
        policy = BuiltinPolicy if seed is None else lambda: UniformRandomPolicy(seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            found = both_ways(monkeypatch, prog, load_state(text, prog.vocabulary), policy, 6)
        assert not found, "\n".join(found)


class _Patches:
    """`monkeypatch`'s `setattr` and `undo`, for running as a script."""

    def __init__(self):
        self.saved = []

    def setattr(self, owner, name, value):
        self.saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self.saved:
            owner, name, value = self.saved.pop()
            setattr(owner, name, value)


if __name__ == "__main__":
    found = golden_differences(_Patches()) + ending_differences(_Patches())
    if GENERATOR:
        test_each_generated_program_runs_the_same_either_way()
    print("\n".join(found) or "goldens and endings run the same either way; generator cases "
          + ("passed" if GENERATOR else "left out: no pytest and hypothesis here"))
    raise SystemExit(1 if found else 0)
