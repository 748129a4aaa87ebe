"""Pinned mutants of the store and check layers that the checks must kill.

Each row applies one known bug by monkeypatch, at the name its callers
resolve, and names the check that owns that bug: replay, iso, bexp, equiv,
or the witness-read test (which locations a step reads, recorded by the store's
`get`). The owning check must pass on the code as it is and fail on the
mutant, on a small input given with the row. Each check parses its program
anew, so no function generated before a patch is reused. This is mutation
testing after DeMillo, Lipton and Sayward, "Hints on test data selection"
(1978).
"""
import pytest

from basm import checks, semantics
from basm.checks import behaviorally_equivalent, check_bounded_exploration, check_iso_invariance
from basm.corpus import entry_dir, load_entry_program, load_entry_state
from basm.literals import load_state
from basm.oracles import (
    Interaction,
    OracleSession,
    ScriptedPolicy,
    SplitMix64,
    UniformRandomPolicy,
)
from basm.semantics import StepRecord, replay, run, step
from basm.state import STATIC_IMPL, UNDEF, State, UpdateSet, render_key
from basm.syntax import App, Par, parse_program
from basm.traceio import read_trace, render_trace

ORIGINAL_EMIT_TERM = semantics._emit_term
ORIGINAL_EMIT_RULE = semantics._emit_rule
ORIGINAL_SAMPLER = checks.junk_state_sampler
ORIGINAL_ASK = OracleSession.ask
ORIGINAL_UNIFORM_INT = SplitMix64.uniform_int

UNDEF_WRITER = """vocab {
  var a, b : Integer
}
do until a = undef { par { a := undef; b := b + 1 } }
"""

# Asks the same segment query `Pick(1, 6)` on each of three steps.
PICKER = """vocab {
  var a, n : Integer
  oracle Pick(Integer, Integer) : Integer
}
do until n >= 3 { par { a := Pick(1, 6); n := n + 1 } }
"""
PICKER_SEED = 6  # draws 3, 6, 1: the second step hits the top of the segment


# --- mutants -----------------------------------------------------------------


def commit_keeping_undef(store, updates):
    """An `undef` write that does not clear its location."""
    for key, value in updates.items():
        if value is not UNDEF:
            store[key] = value


def emit_par_reading_sequentially(out, rule):
    """`par` whose later members read what earlier members wrote: its members
    run with `get` and `add` rebound to read back the writes made so far. The
    rebound `add` returns what the update set's `add` returns, so a write
    clashes only where it would without the mutant. Each member forgets the
    variables read before it, so it reads them again through the rebound
    `get`."""
    if not isinstance(rule, Par):
        return ORIGINAL_EMIT_RULE(out, rule)
    n = len(out.lines)
    out.line(f"g{n}, a{n}, w{n} = get, add, {{}}")
    out.line(f"get = lambda k, d: w{n}[k] if k in w{n} else g{n}(k, d)")
    out.line(f"add = lambda k, v: (w{n}.__setitem__(k, v), a{n}(k, v))[1]")
    for r in rule.rules:
        out.reads.clear()
        semantics._emit_rule(out, r)
    out.line(f"get, add = g{n}, a{n}")


def moved_ignoring_arguments(state, move):
    """`transport`'s move of a state that renames values but leaves location
    arguments as they are."""
    return State(state.vocabulary, {key: move(v) for key, v in state.store.items()})


def emit_short_circuit_and(out, term):
    """An `and` that skips its right operand once the left is false."""
    if not (isinstance(term, App) and term.symbol.name == "and"):
        return ORIGINAL_EMIT_TERM(out, term)
    left = semantics._emit_term(out, term.args[0])
    result = f"r{len(out.lines)}"
    out.line(f"{result} = False")
    out.line(f"if {left} is not False:")
    out.pad += " "
    right = semantics._emit_term(out, term.args[1])
    out.line(f"{result} = {out.const(STATIC_IMPL['and'][0])}({left}, {right})")
    out.pad = out.pad[:-1]
    return result


def rename_skipping_interaction_args(record, move):
    """iso's renaming of a step record that leaves interaction arguments as they are."""
    updates = UpdateSet()
    for key, v in record.updates.items():
        updates.add(move(key), move(v))
    interactions = tuple(Interaction(i.oracle, i.args, move(i.answer))
                         for i in record.interactions)
    return StepRecord(record.index, updates, interactions)


def sampler_with_y_equal_to_x(program, base_state):
    """bexp's sampler handing out the pair (X, X)."""
    sample = ORIGINAL_SAMPLER(program, base_state)

    def same(rng):
        x, _ = sample(rng)
        return x, x
    return same


def ask_logging_newest_first(session, query):
    """`ask` that puts each new interaction before the earlier ones of its step."""
    logged = len(session.log)
    answer = ORIGINAL_ASK(session, query)
    if len(session.log) > logged:  # a new query: one more cache entry this step
        session.log.insert(len(session.log) - len(session.per_step_cache), session.log.pop())
    return answer


def begin_step_keeping_cache(session):
    """`begin_step` that leaves the per-step cache as the last step left it."""
    return len(session.log)


def uniform_int_never_top(prng, b, c):
    """`uniform_int` that draws again whenever it lands on `c`, as if the
    segment were the half-open [b, c)."""
    while True:
        value = ORIGINAL_UNIFORM_INT(prng, b, c)
        if value < c or b == c:
            return value


# --- owning checks -------------------------------------------------------------


def replay_of_a_recorded_undef_write() -> bool:
    """Replay of a trace, recorded by the code as it is, whose one step
    writes `undef` to the variable its halting test reads."""
    program = parse_program(UNDEF_WRITER)
    return replay(read_trace(UNDEF_TRACE.splitlines(), program), program)


def replay_of_the_euclid_golden() -> bool:
    """Replay of the committed euclid golden, whose `par` swaps through `a`."""
    program = parse_program((entry_dir("euclid") / "program.basm").read_text())
    golden = (entry_dir("euclid") / "golden" / "a12b8.jsonl").read_text().splitlines()
    return replay(read_trace(golden, program), program)


def replay_of_a_step_asking_two_segments() -> bool:
    """Replay, through its written and re-read trace, of a run whose one step
    asks two different segment queries under the seeded uniform policy."""
    program = parse_program(
        "vocab {\n  var a, b : Integer\n  oracle Pick(Integer, Integer) : Integer\n}\n"
        "do until a > 0 { par { a := Pick(1, 6); b := Pick(10, 20) } }\n")
    trace = run(program, load_state("a := 0\nb := 0", program.vocabulary),
                UniformRandomPolicy(seed=7))
    return replay(read_trace(render_trace(trace).splitlines(), program), program)


def _picker_run():
    program = parse_program(PICKER)
    return program, run(program, load_state("a := 0\nn := 0", program.vocabulary),
                        UniformRandomPolicy(seed=PICKER_SEED))


def replay_of_a_recorded_repeated_pick() -> bool:
    """Replay of a trace, recorded by the code as it is, whose successive
    steps each ask `Pick(1, 6)`."""
    program = parse_program(PICKER)
    return replay(read_trace(PICKER_TRACE.splitlines(), program), program)


def equiv_of_a_fresh_seeded_pick_run() -> bool:
    """A fresh seeded run of the picker is step equivalent to its trace
    recorded by the code as it is, which draws the top of the segment."""
    program, fresh = _picker_run()
    return behaviorally_equivalent(read_trace(PICKER_TRACE.splitlines(), program), fresh)


def iso_on_enumgraph() -> bool:
    """Renaming `u` and `v` commutes with a step that reads `succ(cur)`."""
    report = check_iso_invariance(load_entry_program("enumgraph"),
                                  load_entry_state("enumgraph"), {"Node": {"u": "v", "v": "u"}})
    return report.passed


def iso_on_a_scripted_pick() -> bool:
    """Swapping `u` and `v` commutes with a step that asks `Pick(cur)`."""
    program = parse_program("vocab {\n  enum Node { u, v, w }\n  var cur : Node\n"
                            "  oracle Pick(Node) : Node\n}\ndo until false { cur := Pick(cur) }\n")
    report = check_iso_invariance(program, load_state("cur := u", program.vocabulary),
                                  {"Node": {"u": "v", "v": "u", "w": "w"}}, ["w"])
    return report.passed


def bexp_flags_a_peeking_step() -> bool:
    """The peeking step of `test_bounded_exploration_catches_a_peeking_step`,
    whose update depends on the junk location `zz_junk0(0)`, is flagged."""
    def peeking_step(state, rule, session):
        updates, interactions = step(state, rule, session)
        out = UpdateSet()
        for key, v in updates.items():
            out.add(key, v)
        out.add(("zz_flag", ()), state.read(("zz_junk0", (0,))) % 2 == 0)
        return out, interactions

    program = load_entry_program("euclid")
    sampler = checks.junk_state_sampler(program, load_entry_state("euclid"))
    return not check_bounded_exploration(program, sampler, trials=60, seed=5,
                                         step_fn=peeking_step).passed


def witness_reads_of_a_decided_and() -> bool:
    """`false and b = R(0, 5)` still reads `b` and asks `R`, as in
    `test_a_decided_connective_still_evaluates_its_right_operand`."""
    program = parse_program(
        "vocab {\n  var a, b : Integer\n  oracle R(Integer, Integer) : Integer\n}\n"
        "do until false { if false and b = R(0, 5) then a := 1 else a := 2 }\n")
    reads = []

    class RecordingStore(dict):
        def get(self, key, default=None):
            reads.append(render_key(key))
            return super().get(key, default)

    init = load_state("b := 3", program.vocabulary)
    session = OracleSession(ScriptedPolicy.from_answers([3]), program.vocabulary)
    session.begin_step()
    updates, interactions = step(State(init.vocabulary, RecordingStore(init.store)),
                                 program.step_rule, session)
    return (reads == ["b"] and interactions == [Interaction("R", (0, 5), 3)]
            and [v for _, v in updates.items()] == [2])


_undef_writer = parse_program(UNDEF_WRITER)
UNDEF_TRACE = render_trace(
    run(_undef_writer, load_state("a := 5\nb := 0", _undef_writer.vocabulary), ScriptedPolicy()))

PICKER_TRACE = render_trace(_picker_run()[1])

# (row, owner of the seam, name the callers resolve, mutant, owning check)
ROWS = [
    ("undef-write-keeps-location", semantics, "commit", commit_keeping_undef,
     replay_of_a_recorded_undef_write),
    ("par-reads-sequentially", semantics, "_emit_rule", emit_par_reading_sequentially,
     replay_of_the_euclid_golden),
    ("transport-ignores-arguments", checks, "_moved", moved_ignoring_arguments,
     iso_on_enumgraph),
    ("short-circuit-and", semantics, "_emit_term", emit_short_circuit_and,
     witness_reads_of_a_decided_and),
    ("iso-skips-interaction-args", checks, "_rename", rename_skipping_interaction_args,
     iso_on_a_scripted_pick),
    ("bexp-y-equals-x", checks, "junk_state_sampler", sampler_with_y_equal_to_x,
     bexp_flags_a_peeking_step),
    ("interactions-logged-out-of-order", OracleSession, "ask", ask_logging_newest_first,
     replay_of_a_step_asking_two_segments),
    ("per-step-cache-kept-across-steps", OracleSession, "begin_step", begin_step_keeping_cache,
     replay_of_a_recorded_repeated_pick),
    ("uniform-never-draws-segment-top", SplitMix64, "uniform_int", uniform_int_never_top,
     equiv_of_a_fresh_seeded_pick_run),
]


@pytest.mark.parametrize("row, owner, name, mutant, check", ROWS, ids=[r[0] for r in ROWS])
def test_the_owning_check_kills_the_mutant(monkeypatch, row, owner, name, mutant, check):
    assert check(), f"{check.__name__} fails on the code as it is"
    monkeypatch.setattr(owner, name, mutant)
    assert not check(), f"{check.__name__} misses {row}"


def test_the_recorded_pick_trace_draws_the_top_of_its_segment():
    """The input of `uniform-never-draws-segment-top` exercises the top."""
    program = parse_program(PICKER)
    trace = read_trace(PICKER_TRACE.splitlines(), program)
    answers = [i.answer for record in trace.steps for i in record.interactions]
    assert 6 in answers and len(answers) == 3
