"""Pinned mutants of the store and check layers that the checks must kill.

Each row applies one known bug by monkeypatch, at the name its callers
resolve, and names the check that owns that bug: replay, iso, bexp, or the
witness-read test (which locations a step reads, recorded by the store's
`get`). The owning check must pass on the code as it is and fail on the
mutant, on a small input given with the row. Each check parses its program
anew, so no closure compiled before a patch is reused. This is mutation
testing after DeMillo, Lipton and Sayward, "Hints on test data selection"
(1978).
"""
import pytest

from basm import checks, semantics
from basm.checks import check_bounded_exploration, check_iso_invariance
from basm.corpus import entry_dir, load_entry_program, load_entry_state
from basm.literals import load_state
from basm.oracles import Interaction, OracleSession, ScriptedPolicy, UniformRandomPolicy
from basm.semantics import StepRecord, replay, run, step
from basm.state import STATIC_IMPL, UNDEF, State, UpdateSet, render_key, renaming
from basm.syntax import App, Par, parse_program
from basm.traceio import read_trace, render_trace

ORIGINAL_COMPILE_TERM = semantics._compile_term
ORIGINAL_COMPILE_RULE = semantics._compile_rule
ORIGINAL_SAMPLER = checks.junk_state_sampler
ORIGINAL_ASK = OracleSession.ask

UNDEF_WRITER = """vocab {
  var a, b : Integer
}
do until a = undef { par { a := undef; b := b + 1 } }
"""


# --- mutants -----------------------------------------------------------------


def commit_keeping_undef(store, updates):
    """An `undef` write that does not clear its location."""
    for key, value in updates.items():
        if value is not UNDEF:
            store[key] = value


def compile_par_reading_sequentially(rule):
    """`par` whose later members read what earlier members wrote."""
    if not isinstance(rule, Par):
        return ORIGINAL_COMPILE_RULE(rule)
    subs = [semantics._compile_rule(r) for r in rule.rules]

    def par(get, ask, add):
        written = {}

        def see(key, default):
            return written[key] if key in written else get(key, default)

        def write(key, value):
            written[key] = value
            add(key, value)

        for sub in subs:
            sub(see, ask, write)
    return par


def transport_ignoring_arguments(state, bijection):
    """`transport` that renames values but leaves location arguments as they are."""
    move = renaming(state.vocabulary, bijection)
    return State(state.vocabulary, {key: move(v) for key, v in state.store.items()})


def compile_short_circuit_and(term):
    """An `and` that skips its right operand once the left is false."""
    if not (isinstance(term, App) and term.symbol.name == "and"):
        return ORIGINAL_COMPILE_TERM(term)
    left, right = (semantics._compile_term(a) for a in term.args)
    conjoin = STATIC_IMPL["and"][0]

    def and_(get, ask):
        a = left(get, ask)
        return False if a is False else conjoin(a, right(get, ask))
    return and_


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

# (row, owner of the seam, name the callers resolve, mutant, owning check)
ROWS = [
    ("undef-write-keeps-location", semantics, "commit", commit_keeping_undef,
     replay_of_a_recorded_undef_write),
    ("par-reads-sequentially", semantics, "_compile_rule", compile_par_reading_sequentially,
     replay_of_the_euclid_golden),
    ("transport-ignores-arguments", checks, "transport", transport_ignoring_arguments,
     iso_on_enumgraph),
    ("short-circuit-and", semantics, "_compile_term", compile_short_circuit_and,
     witness_reads_of_a_decided_and),
    ("iso-skips-interaction-args", checks, "_rename", rename_skipping_interaction_args,
     iso_on_a_scripted_pick),
    ("bexp-y-equals-x", checks, "junk_state_sampler", sampler_with_y_equal_to_x,
     bexp_flags_a_peeking_step),
    ("interactions-logged-out-of-order", OracleSession, "ask", ask_logging_newest_first,
     replay_of_a_step_asking_two_segments),
]


@pytest.mark.parametrize("row, owner, name, mutant, check", ROWS, ids=[r[0] for r in ROWS])
def test_the_owning_check_kills_the_mutant(monkeypatch, row, owner, name, mutant, check):
    assert check(), f"{check.__name__} fails on the code as it is"
    monkeypatch.setattr(owner, name, mutant)
    assert not check(), f"{check.__name__} misses {row}"
