"""Exploration witness, bounded exploration, renaming invariance, equivalence."""
import dataclasses
import random
import tracemalloc
from itertools import permutations

import pytest

from basm import checks
from basm import state as state_module
from basm.checks import (
    behaviorally_equivalent,
    check_bounded_exploration,
    check_iso_invariance,
    enum_bijections,
    exploration_witness,
    junk_state_sampler,
)
from basm.corpus import corpus_run, load_entry_program, load_entry_state
from basm.errors import BasmError
from basm.literals import load_state
from basm.oracles import Interaction, OracleSession, Refused, UniformRandomPolicy
from basm.semantics import Outcome, divergence, replay, step
from basm.state import Location, State, UpdateSet, Vocabulary, renaming, transport
from basm.syntax import parse_program, parse_term_in
from basm.traceio import read_trace, render_trace


def test_euclid_witness_is_the_program_subterm_closure():
    prog = load_entry_program("euclid")
    w = exploration_witness(prog)
    v = prog.vocabulary
    assert len(w) == 7  # d=a, d, a, b=0, b, 0, a mod b
    for text in ("a", "b", "d", "0", "a mod b", "d = a", "b = 0"):
        assert parse_term_in(text, v) in w
    assert parse_term_in("a + b", v) not in w


class _ReadRecordingStore(dict):
    """A store that remembers every location pair a step reads."""

    def __init__(self, store: dict):
        super().__init__(store)
        self.keys_read = set()

    def get(self, key, default=None):
        self.keys_read.add(key)
        return super().get(key, default)


def test_step_work_is_bounded_by_the_witness():
    """Distinct locations read plus distinct queries asked stay within the
    witness. The step's table holds each distinct query once, so the step's
    interactions are its distinct queries."""
    counts = {"euclid": (2, 0), "enumgraph": (3, 0), "primality": (2, 1), "tangent": (5, 0)}
    for name, (reads, queries) in counts.items():
        prog = load_entry_program(name)
        init = load_entry_state(name)
        store = _ReadRecordingStore(init.store)
        session = OracleSession(UniformRandomPolicy(3), prog.vocabulary)
        session.begin_step()
        _, interactions = step(State(init.vocabulary, store), prog.step_rule, session)
        assert (len(store.keys_read), len(interactions)) == (reads, queries), name
        assert reads + queries <= len(exploration_witness(prog)), name


@pytest.mark.parametrize("name", ["euclid", "enumgraph", "primality", "tangent"])
def test_bounded_exploration_holds_on_the_corpus(name):
    prog = load_entry_program(name)
    sampler = junk_state_sampler(prog, load_entry_state(name))
    report = check_bounded_exploration(prog, sampler, trials=60, seed=5)
    assert report.passed, report.failures[:3]


def test_bounded_exploration_catches_a_peeking_step():
    """A step function that consults a location outside the witness must be
    flagged: X and Y agree on the witness but not on the junk."""
    prog = load_entry_program("euclid")
    sampler = junk_state_sampler(prog, load_entry_state("euclid"))

    def peeking_step(state, rule, session):
        updates, interactions = step(state, rule, session)
        vocab = state.vocabulary
        peeked = state.read(Location(vocab.symbol("zz_junk0"), (0,)))
        out = UpdateSet()
        for loc, v in updates.items():
            out.add(loc, v)
        out.add(Location(vocab.symbol("zz_flag"), ()), peeked % 2 == 0)
        return out, interactions

    report = check_bounded_exploration(prog, sampler, trials=60, seed=5,
                                       step_fn=peeking_step)
    assert not report.passed
    assert len(report.failures) > 10


def test_bounded_exploration_compares_the_interactions_of_a_failing_step():
    """X and Y fail the same way, but only after asking a question that
    depends on a junk location; the partial interactions tell them apart."""
    prog = load_entry_program("primality")
    sampler = junk_state_sampler(prog, load_entry_state("primality"))

    def asks_junk_then_fails(state, rule, session):
        vocab = state.vocabulary
        j = state.read(Location(vocab.symbol("zz_junk0"), (0,)))
        session.ask(Location(vocab.symbol("Random"), (j, j)))
        raise BasmError("arith", "fails after asking")

    report = check_bounded_exploration(prog, sampler, trials=60, seed=5,
                                       step_fn=asks_junk_then_fails)
    assert not report.passed
    assert len(report.failures) > 10


def test_enum_bijections_enumerates_all_permutations():
    v = Vocabulary()
    v.declare_enum("A", ["x", "y"])
    v.declare_enum("B", ["p", "q", "r"])
    assert len(list(enum_bijections(v))) == 12  # 2! * 3!
    assert list(enum_bijections(Vocabulary())) == [{}]


def test_enum_bijections_vary_the_last_sort_fastest():
    v = Vocabulary()
    v.declare_enum("A", ["x", "y"])
    v.declare_enum("B", ["p", "q", "r"])
    assert list(enum_bijections(v)) == [
        {"A": dict(zip("xy", a)), "B": dict(zip("pqr", b))}
        for a in permutations("xy") for b in permutations("pqr")
    ]


def test_the_first_bijection_of_a_large_enum_comes_without_the_rest():
    v = Vocabulary()
    members = [f"m{i}" for i in range(9)]  # 9! = 362 880 bijections
    v.declare_enum("N", members)
    tracemalloc.start()
    try:
        first = next(enum_bijections(v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == {"N": {m: m for m in members}}
    assert peak < 2**20


def test_enumgraph_commutes_with_every_renaming():
    prog = load_entry_program("enumgraph")
    state = load_entry_state("enumgraph")
    for bijection in enum_bijections(prog.vocabulary):
        report = check_iso_invariance(prog, state, bijection)
        assert report.passed, (bijection, report.failures)
        assert report.trials == 1  # one bijection, one step from each side


def test_an_iso_check_builds_one_member_table(monkeypatch):
    """The twin state is moved with the renaming the check already holds."""
    built = []

    def counting(vocabulary, bijection):
        built.append(bijection)
        return renaming(vocabulary, bijection)

    monkeypatch.setattr(checks, "renaming", counting)
    monkeypatch.setattr(state_module, "renaming", counting)
    prog = load_entry_program("enumgraph")
    state = load_entry_state("enumgraph")
    bijections = list(enum_bijections(prog.vocabulary))[:6]
    for bijection in bijections:
        assert check_iso_invariance(prog, state, bijection).passed
    assert built == bijections


def test_member_naming_program_breaks_invariance():
    prog = parse_program(
        "vocab {\n"
        "  enum Node { u, v }\n"
        "  var cur : Node\n"
        "}\n"
        "do until false { cur := u }\n"
    )
    state = load_state("cur := u", prog.vocabulary, source="<test>")
    swap = {"Node": {"u": "v", "v": "u"}}
    assert check_iso_invariance(prog, state, {"Node": {"u": "u", "v": "v"}}).passed
    report = check_iso_invariance(prog, state, swap)
    assert not report.passed


def test_iso_renames_the_interactions_of_a_failing_step():
    """The step asks Pick(cur) and then fails on mod by zero; the twin asks
    Pick of the renamed member, which is the same behaviour renamed."""
    prog = parse_program(
        "vocab {\n"
        "  enum Node { u, v }\n"
        "  var cur : Node\n"
        "  var n, z : Integer\n"
        "  oracle Pick(Node) : Integer\n"
        "}\n"
        "do until false { par { n := Pick(cur); z := n mod z } }\n"
    )
    state = load_state("cur := u\nn := 1\nz := 0", prog.vocabulary, source="<test>")
    swap = {"Node": {"u": "v", "v": "u"}}
    report = check_iso_invariance(prog, state, swap, scripted_answers=[4])
    assert report.passed, report.failures


def test_a_renaming_of_one_enum_sort_leaves_the_other_where_it_is():
    prog = parse_program(
        "vocab {\n"
        "  enum A { u, v }\n  enum B { p, q }\n"
        "  var a : A\n  var b : B\n  var f(B) : A\n  var g(A) : B\n"
        "}\n"
        "do until false { par { a := f(b); b := g(a) } }\n"
    )
    state = load_state("a := u\nb := p\nf(p) := v\nf(q) := u\ng(u) := q\ng(v) := p",
                       prog.vocabulary)
    swap_a = {"A": {"u": "v", "v": "u"}}
    moved = transport(state, swap_a)
    assert moved.store == {("a", ()): "v", ("b", ()): "p", ("f", ("p",)): "u",
                           ("f", ("q",)): "v", ("g", ("v",)): "q", ("g", ("u",)): "p"}
    move = renaming(prog.vocabulary, swap_a)
    assert [move(m) for m in ("u", "v", "p", "q")] == ["v", "u", "p", "q"]
    bijections = list(enum_bijections(prog.vocabulary))
    assert len(bijections) == 4
    for bijection in bijections:
        report = check_iso_invariance(prog, state, bijection)
        assert report.passed, (bijection, report.failures)


def test_bijection_on_builtin_sort_is_unsupported():
    prog = load_entry_program("euclid")
    state = load_entry_state("euclid")
    with pytest.raises(BasmError) as e:
        check_iso_invariance(prog, state, {"Integer": {}})
    assert e.value.kind == "unsupported-iso"


def test_iso_check_threads_scripted_answers():
    prog = load_entry_program("primality")
    state = load_entry_state("primality")
    for bijection in enum_bijections(prog.vocabulary):  # only the empty one
        report = check_iso_invariance(prog, state, bijection, scripted_answers=[4])
        assert report.passed, report.failures


def test_equivalence_is_stepwise():
    a = corpus_run("euclid")
    b = corpus_run("euclid")
    assert behaviorally_equivalent(a, b)
    shorter = corpus_run("euclid_while")
    assert not behaviorally_equivalent(a, shorter)


def test_equivalence_sees_interaction_differences():
    lo = corpus_run("tangent", choice=0)
    hi = corpus_run("tangent", choice=1)
    assert behaviorally_equivalent(lo, corpus_run("tangent", choice=0))
    assert not behaviorally_equivalent(lo, hi)


def test_replay_and_equivalence_both_see_a_flipped_halted_mark():
    program = load_entry_program("euclid")
    trace = corpus_run("euclid")
    lines = render_trace(trace).splitlines()
    assert '"halted": false' in lines[1]
    lines[1] = lines[1].replace('"halted": false', '"halted": true')
    flipped = read_trace(lines, program)
    assert not replay(flipped, program)
    assert not behaviorally_equivalent(trace, flipped)
    assert behaviorally_equivalent(trace, read_trace(render_trace(trace).splitlines(), program))


def test_equivalence_requires_a_shared_vocabulary():
    with pytest.raises(BasmError) as e:
        behaviorally_equivalent(corpus_run("euclid"), corpus_run("enumgraph"))
    assert e.value.kind == "vocab"


def test_sampler_pairs_agree_on_core_and_differ_on_junk():
    prog = load_entry_program("euclid")
    sampler = junk_state_sampler(prog, load_entry_state("euclid"))
    rng = random.Random(0)
    x, y = sampler(rng)
    for name in ("a", "b", "d"):
        loc = Location(x.vocabulary.symbol(name), ())
        assert x.read(loc) == y.read(loc)
    junk_differs = any(
        x.read(Location(x.vocabulary.symbol(f"zz_junk{i}"), (j,)))
        != y.read(Location(y.vocabulary.symbol(f"zz_junk{i}"), (j,)))
        for i in range(3)
        for j in range(4)
    )
    assert junk_differs


def test_the_junk_symbols_do_not_collide_with_the_program_s_own():
    """A program may use the junk names; the sampler then picks fresh ones."""
    prog = parse_program(
        "vocab {\n  var zz_flag, zz_flag_1, x : Integer\n  var zz_junk0(Integer) : Boolean\n}\n"
        "do until x >= 3 { par { x := x + 1; zz_flag := zz_flag + x } }\n"
    )
    init = load_state("x := 0\nzz_flag := 1\nzz_junk0(0) := true", prog.vocabulary)
    x, _ = junk_state_sampler(prog, init)(random.Random(0))
    symbols = x.vocabulary.symbols
    assert symbols["zz_flag"] is prog.vocabulary.symbols["zz_flag"]
    assert symbols["zz_flag_2"].result_sort.name == "Boolean"
    assert symbols["zz_junk0_1"].arg_sorts == symbols["zz_junk1"].arg_sorts
    assert x.read(("zz_junk0", (0,))) is True
    report = check_bounded_exploration(prog, junk_state_sampler(prog, init), trials=20, seed=1)
    assert report.passed, report.failures


def test_divergence_is_none_on_equal_runs():
    a, b = corpus_run("euclid"), corpus_run("euclid")
    assert divergence(a.steps, a.outcome, b.steps, b.outcome) is None
    assert divergence([], None, [], None) is None


@pytest.mark.parametrize("field, value", [
    ("updates", UpdateSet({("a", ()): 9})),
    ("interactions", (Interaction("R", (0, 5), Refused("script")),)),
    ("halted_after", True),
])
def test_divergence_names_the_first_differing_step_and_field(field, value):
    trace = corpus_run("euclid")
    steps = list(trace.steps)
    steps[1] = dataclasses.replace(steps[1], **{field: value})
    steps[2] = dataclasses.replace(steps[2], halted_after=False)  # a later difference
    want = getattr(trace.steps[1], field)
    assert divergence(trace.steps, trace.outcome, steps, trace.outcome) == \
        f"step 1 {field}: {want!r} vs {value!r}"


def test_a_step_record_is_slotted_and_compared_field_by_field_in_order():
    """A record has no instance `__dict__`, stays mutable, works with
    `dataclasses.replace` and holds only what its step made; `divergence` compares `updates`, `interactions`
    and `halted_after` in that order."""
    record = corpus_run("euclid").steps[1]
    assert not hasattr(record, "__dict__")
    copy = dataclasses.replace(record)
    copy.halted_after = True
    assert copy.halted_after and not record.halted_after
    fields = {"updates": UpdateSet({("a", ()): 9}),
              "interactions": (Interaction("R", (0, 5), Refused("script")),),
              "halted_after": True}
    assert [f.name for f in dataclasses.fields(record)] == list(fields)
    other = dataclasses.replace(record, **fields)
    for name, value in fields.items():
        want = getattr(record, name)
        assert divergence([record], None, [other], None) == f"step 0 {name}: {want!r} vs {value!r}"
        setattr(other, name, want)
    assert divergence([record], None, [other], None) is None


# The text the step comparison gives for two tangent runs whose third steps
# differ only in the intersection point the oracle answered; it is the same
# whether an interaction and a point are frozen dataclasses or tuples.
TANGENT_DIVERGENCE = (
    "step 2 interactions: (Interaction(oracle='I', args=(Circle(center=Point(x=0.0, y=0.0), "
    "through=Point(x=5.0, y=0.0)), Circle(center=Point(x=5.0, y=0.0), through=Point(x=10.0, "
    "y=0.0))), answer=Point(x=2.5, y=-4.330127018922194)),) vs (Interaction(oracle='I', "
    "args=(Circle(center=Point(x=0.0, y=0.0), through=Point(x=5.0, y=0.0)), "
    "Circle(center=Point(x=5.0, y=0.0), through=Point(x=10.0, y=0.0))), "
    "answer=Point(x=2.5, y=4.330127018922194)),)"
)


def test_divergence_on_the_interactions_field_keeps_its_text():
    a, b = corpus_run("tangent", choice=0), corpus_run("tangent", choice=1)
    steps = list(b.steps)
    steps[2] = dataclasses.replace(steps[2], updates=a.steps[2].updates)
    assert divergence(a.steps, a.outcome, steps, b.outcome) == TANGENT_DIVERGENCE


def test_divergence_names_the_outcomes_and_step_counts():
    trace = corpus_run("euclid")
    limit = Outcome("step-limit")
    assert divergence(trace.steps, trace.outcome, trace.steps, limit) == \
        f"outcome: {trace.outcome!r} after 3 steps vs {limit!r} after 3 steps"
    assert divergence(trace.steps, trace.outcome, trace.steps[:2], trace.outcome) == \
        f"outcome: {trace.outcome!r} after 3 steps vs {trace.outcome!r} after 2 steps"


def test_bexp_reports_the_updates_of_a_peeking_step():
    prog = load_entry_program("euclid")
    sampler = junk_state_sampler(prog, load_entry_state("euclid"))

    def peeking_step(state, rule, session):
        updates, interactions = step(state, rule, session)
        updates = UpdateSet(updates)
        updates.add(("zz_flag", ()), state.read(("zz_junk0", (0,))) % 2 == 0)
        return updates, interactions

    report = check_bounded_exploration(prog, sampler, trials=60, seed=5, step_fn=peeking_step)
    assert len(report.failures) > 10
    assert all(": step 0 updates: {" in f for f in report.failures), report.failures[:3]


def test_bexp_reports_the_interactions_of_steps_refused_at_different_queries():
    """X and Y each ask an empty segment, so the policy refuses both steps
    with one kind, but at queries that depend on a junk location."""
    prog = load_entry_program("primality")
    sampler = junk_state_sampler(prog, load_entry_state("primality"))

    def asks_an_empty_segment(state, rule, session):
        j = state.read(("zz_junk0", (0,)))
        session.ask(Location(state.vocabulary.symbol("Random"), (j, j - 1)))

    report = check_bounded_exploration(prog, sampler, trials=60, seed=5,
                                       step_fn=asks_an_empty_segment)
    assert len(report.failures) > 10
    assert all(": step 0 interactions: (Interaction(oracle='Random'" in f
               for f in report.failures), report.failures[:3]


def test_iso_reports_the_updates_of_a_member_naming_program():
    prog = parse_program("vocab {\n  enum Node { u, v }\n  var cur : Node\n}\n"
                         "do until false { cur := u }\n")
    swap = {"Node": {"u": "v", "v": "u"}}
    report = check_iso_invariance(prog, load_state("cur := u", prog.vocabulary), swap)
    assert report.failures == [f"under {swap!r}: step 0 updates: {{cur:=v}} vs {{cur:=u}}"]
