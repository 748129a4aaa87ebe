"""The bundled programs: exact liar rates, golden traces, scripted reruns."""
import math
from fractions import Fraction

import pytest

from basm.corpus import (
    ENTRIES,
    corpus_dir,
    corpus_run,
    entry_dir,
    liar_rate,
    load_entry_program,
    load_entry_state,
)
from basm.errors import BasmError
from basm.geometry import Circle, Line, Point
from basm.literals import state_bindings
from basm.semantics import replay
from basm.traceio import read_trace, render_trace, script_lines

# Hand-checked: 4^2 = 16 = 15 + 1, and 11 = -4 mod 15, so 4 and 11 are the
# only bases in [2, 13] with a^14 = 1 mod 15. Two liars out of twelve bases.
LIARS_15 = {4, 11}


def test_liar_rate_15_is_exactly_one_sixth():
    assert liar_rate(15) == Fraction(1, 6)
    assert {a for a in range(2, 14) if pow(a, 14, 15) == 1} == LIARS_15


def test_liar_rate_primes_and_squares():
    assert liar_rate(7) == 1  # every base passes for a prime
    assert liar_rate(9) == 0  # no liars at all
    assert liar_rate(11) == 1
    with pytest.raises(BasmError):
        liar_rate(4)


def test_corpus_listing_and_unknown_entry():
    assert set(ENTRIES) == {
        "euclid", "euclid_while", "euclid_implicit", "tangent",
        "tangent_direct", "primality", "enumgraph",
    }
    with pytest.raises(BasmError) as e:
        corpus_run("nope")
    assert e.value.kind == "corpus"


def test_corpus_run_binding_overrides():
    t = corpus_run("euclid", a=21, b=14)
    assert state_bindings(t.final_state)["d"] == "7"
    with pytest.raises(BasmError):
        corpus_run("euclid", nothere=1)
    with pytest.raises(BasmError):
        corpus_run("euclid", a=True)  # wrong sort
    # None unbinds: `a` and `d` read `undef`, so `d = a` halts at once.
    t = corpus_run("euclid", a=None)
    assert state_bindings(t.initial_state) == {"b": "8"}
    assert (t.outcome.kind, len(t.steps)) == ("halted", 0)


def test_corpus_run_binding_from_strings():
    t = corpus_run("euclid", a="30", b="12")
    assert state_bindings(t.final_state)["d"] == "6"


def test_euclid_agrees_with_math_gcd():
    for a, b in [(12, 8), (8, 12), (7, 7), (13, 1), (10, 0), (0, 0), (100, 63)]:
        t = corpus_run("euclid", a=a, b=b)
        assert t.outcome.kind == "halted"
        assert state_bindings(t.final_state)["d"] == str(math.gcd(a, b))


def test_euclid_variants_step_counts():
    assert len(corpus_run("euclid").steps) == 3
    assert len(corpus_run("euclid_while").steps) == 2
    implicit = corpus_run("euclid_implicit")
    assert len(implicit.steps) == 4  # the repeated fixpoint step is recorded
    assert render_trace(implicit).splitlines()[-2].endswith('"halted": true}')


def test_enumgraph_walks_three_hops():
    t = corpus_run("enumgraph")
    got = state_bindings(t.final_state)
    assert got["hops"] == "3"
    assert got["cur"] == "v"  # u -> v -> u -> v


def test_tangent_interaction_pattern():
    t = corpus_run("tangent", choice=0)
    assert [len(s.interactions) for s in t.steps] == [0, 0, 1, 1]
    direct = corpus_run("tangent_direct", choice=0)
    assert [len(s.interactions) for s in direct.steps] == [1]


GOLDENS = sorted((name, g) for name, e in ENTRIES.items() for g in e.golden_files)


def test_every_entry_has_a_golden_under_test():
    """Every file under corpus/*/golden/ and corpus/*/scripts/ is listed in
    ENTRIES with the run that records it, and every listed file exists."""
    assert all(e.golden_files for e in ENTRIES.values())
    listed = {
        f"{name}/{folder}/{f}"
        for name, e in ENTRIES.items()
        for folder, files in (("golden", e.golden_files), ("scripts", e.script_files))
        for f in files
    }
    root = corpus_dir()
    on_disk = {p.relative_to(root).as_posix()
               for p in [*root.glob("*/golden/*"), *root.glob("*/scripts/*")]}
    assert listed == on_disk


@pytest.mark.parametrize("name,fname", GOLDENS)
def test_goldens_are_byte_stable(name, fname):
    recorded = (entry_dir(name) / "golden" / fname).read_text()
    rerun = corpus_run(name, **ENTRIES[name].golden_files[fname])
    assert render_trace(rerun) == recorded


@pytest.mark.parametrize("name,fname", GOLDENS)
def test_goldens_replay(name, fname):
    program = load_entry_program(name)
    lines = (entry_dir(name) / "golden" / fname).read_text().splitlines()
    trace = read_trace(lines, program)
    assert replay(trace, program)


@pytest.mark.parametrize("name,fname", sorted(
    (name, f) for name, e in ENTRIES.items() for f in e.script_files))
def test_script_files_are_byte_stable(name, fname):
    recorded = (entry_dir(name) / "scripts" / fname).read_text()
    rerun = corpus_run(name, **ENTRIES[name].script_files[fname])
    assert "\n".join(script_lines(rerun)) + "\n" == recorded


def test_tangent_script_files_reproduce_the_choices():
    for choice in (0, 1):
        scripted = corpus_run("tangent", script=f"choice{choice}.jsonl")
        direct = corpus_run("tangent", choice=choice)
        assert render_trace(scripted) == render_trace(direct)


def test_scripted_answer_list():
    t = corpus_run("primality", script=[4, 11])
    assert state_bindings(t.final_state)["prime"] == "true"  # both liars
    t = corpus_run("primality", script=[4, 7])
    assert state_bindings(t.final_state)["prime"] == "false"


def test_seed_with_choice_is_an_error():
    with pytest.raises(BasmError) as e:
        corpus_run("tangent", seed=2, choice=1)
    assert e.value.kind == "corpus"


def test_small_inputs_never_query_the_oracle():
    for n in (2, 3):
        t = corpus_run("primality", n=n, k=3, seed=1)
        assert all(not s.interactions for s in t.steps)
        assert state_bindings(t.final_state)["prime"] == "true"


def test_default_state_files_load():
    for name, entry in ENTRIES.items():
        for init in entry.init_files:
            state = load_entry_state(name, init)
            assert state.vocabulary == load_entry_program(name).vocabulary


def test_uniform_draw_from_a_segment_wider_than_2_to_the_64_is_an_error():
    t = corpus_run("primality", n=2**89 - 1, k=3, seed=7)
    assert (t.outcome.kind, t.outcome.error) == ("error", "oracle-domain")


@pytest.mark.parametrize("var, make, sort", [("T", Circle, "Line"), ("C", Line, "Circle")])
def test_a_geometry_override_of_another_sort_is_a_sort_error(var, make, sort):
    """A circle and a line through the same two points are equal tuples; an
    override of one at a location of the other still fails, and is not
    rebuilt as the location's sort."""
    value = make(Point(0.0, 0.0), Point(5.0, 0.0))
    with pytest.raises(BasmError) as e:
        corpus_run("tangent", **{var: value})
    assert (e.value.kind, e.value.message) == \
        ("sort", f"override value {value!r} does not fit sort {sort}")
