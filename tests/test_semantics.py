"""Step semantics: pre-state reads, update atomicity, halting, and replay."""
import json
import random

import pytest

from basm import literals
from basm.checks import junk_state_sampler
from basm.corpus import corpus_run, entry_dir, load_entry_program, load_entry_state
from basm.errors import BasmError
from basm.literals import load_state, state_bindings
from basm.oracles import Interaction, OracleSession, ScriptedPolicy, UniformRandomPolicy
from basm.semantics import default_max_steps, eval_term, replay, run, step
from basm.syntax import parse_program, parse_term_in
from basm.traceio import load_script, read_trace, render_trace, script_lines
from basm.state import UNDEF, Location, State, transport


def _program(decls, body):
    return parse_program("vocab {\n  " + decls + "\n}\n" + body + "\n")


def _state(prog, text):
    return load_state(text, prog.vocabulary, source="<test>")


def _answers(prog, answers):
    return ScriptedPolicy.from_answers(answers)


INT2 = "var a, b : Integer"


def test_par_reads_pre_state_swap():
    prog = _program(INT2, "do until false { par { a := b; b := a } }")
    init = _state(prog, "a := 1\nb := 2")
    updates, interactions = step(init, prog.step_rule)
    assert {loc.render(): v for loc, v in updates.items()} == {"a": 2, "b": 1}
    assert interactions == []


def test_guard_needs_literal_true():
    prog = _program("var x : Integer\n  var flag : Boolean",
                    "do until false { if flag then x := 1 else x := 2 }")
    yes, _ = step(_state(prog, "flag := true"), prog.step_rule)
    no, _ = step(_state(prog, "flag := false"), prog.step_rule)
    unknown, _ = step(_state(prog, ""), prog.step_rule)  # flag is undef
    assert [v for _, v in yes.items()] == [1]
    assert [v for _, v in no.items()] == [2]
    assert [v for _, v in unknown.items()] == [2]


def test_undef_equality_is_total_in_guards():
    prog = _program(INT2, "do until false { if a = b then a := 7 }")
    both_undef, _ = step(_state(prog, ""), prog.step_rule)
    one_undef, _ = step(_state(prog, "a := 1"), prog.step_rule)
    assert [v for _, v in both_undef.items()] == [7]
    assert list(one_undef.items()) == []


def test_strict_static_propagates_undef():
    prog = _program(INT2, "do until false { a := b + 1 }")
    updates, _ = step(_state(prog, ""), prog.step_rule)
    assert [v for _, v in updates.items()] == [UNDEF]


def test_assigning_undef_removes_the_location():
    prog = _program(INT2, "do until a = undef { a := undef }")
    trace = run(prog, _state(prog, "a := 5"), ScriptedPolicy())
    assert trace.outcome.kind == "halted"
    assert "a" not in state_bindings(trace.final_state)


def test_clashing_updates_fail_the_step():
    prog = _program(INT2, "do until false { par { a := 1; a := 2 } }")
    trace = run(prog, _state(prog, ""), ScriptedPolicy())
    assert trace.outcome.kind == "error"
    assert trace.outcome.error == "clash"
    assert len(trace.steps) == 1
    assert list(trace.steps[0].updates.items()) == []


def test_consistent_duplicate_updates_are_fine():
    prog = _program(INT2, "do until a = 1 { par { a := 1; a := 1 } }")
    trace = run(prog, _state(prog, ""), ScriptedPolicy())
    assert trace.outcome.kind == "halted"
    assert len(trace.steps) == 1


ORACLE_DECLS = "var a, b, c : Integer\n  oracle R(Integer, Integer) : Integer"


def test_oracle_answers_flow_into_updates():
    prog = _program(ORACLE_DECLS, "do until a = 7 { a := R(0, 5) }")
    trace = run(prog, _state(prog, ""), _answers(prog, [7]))
    assert trace.outcome.kind == "halted"
    assert trace.steps[0].interactions == (Interaction("R", (0, 5), 7),)
    assert state_bindings(trace.final_state)["a"] == "7"


def test_same_query_in_one_step_is_asked_once():
    prog = _program(ORACLE_DECLS, "do until a = 3 { par { a := R(0, 5); b := R(0, 5) } }")
    trace = run(prog, _state(prog, ""), _answers(prog, [3]))
    assert trace.outcome.kind == "halted"
    (record,) = trace.steps
    assert len(record.interactions) == 1
    got = state_bindings(trace.final_state)
    assert got["a"] == got["b"] == "3"


def test_distinct_queries_in_one_step_are_separate():
    prog = _program(ORACLE_DECLS, "do until a = 1 { par { a := R(0, 5); b := R(0, 6) } }")
    trace = run(prog, _state(prog, ""), _answers(prog, [1, 9]))
    assert len(trace.steps[0].interactions) == 2


def test_next_step_asks_again():
    prog = _program(ORACLE_DECLS, "do until a = 2 { a := R(0, 5) }")
    trace = run(prog, _state(prog, ""), _answers(prog, [1, 2]))
    assert trace.outcome.kind == "halted"
    assert [r.interactions[0].answer for r in trace.steps] == [1, 2]


def test_halt_checked_before_first_step():
    prog = _program(INT2, "do until a = 1 { a := 2 }")
    trace = run(prog, _state(prog, "a := 1"), ScriptedPolicy())
    assert trace.outcome.kind == "halted"
    assert trace.steps == []
    assert trace.final_state == trace.initial_state


def test_halt_runtime_error_has_no_step_record():
    prog = _program(INT2, "do until a mod b = 0 { a := a + 1 }")
    trace = run(prog, _state(prog, "a := 1\nb := 0"), ScriptedPolicy())
    assert trace.outcome.kind == "error"
    assert trace.outcome.error == "arith"
    assert trace.steps == []


def test_iterate_stops_at_fixpoint_and_records_it():
    prog = _program(INT2, "iterate { a := a }")
    trace = run(prog, _state(prog, "a := 4"), ScriptedPolicy())
    assert trace.outcome.kind == "halted"
    assert len(trace.steps) == 1
    assert trace.steps[0].halted_after


def test_step_limit_outcome():
    prog = _program(INT2, "do until a < 0 { a := a + 1 }")
    trace = run(prog, _state(prog, "a := 0"), ScriptedPolicy(), max_steps=10)
    assert trace.outcome.kind == "step-limit"
    assert len(trace.steps) == 10


def test_env_var_sets_default_step_budget(monkeypatch):
    monkeypatch.setenv("ASM_MAX_STEPS", "3")
    assert default_max_steps() == 3
    prog = _program(INT2, "do until a < 0 { a := a + 1 }")
    trace = run(prog, _state(prog, "a := 0"), ScriptedPolicy())
    assert trace.outcome.kind == "step-limit"
    assert len(trace.steps) == 3


def test_failing_step_is_recorded_with_its_interactions():
    prog = _program(ORACLE_DECLS,
                    "do until false { par { a := R(0, 5); b := b mod c } }")
    trace = run(prog, _state(prog, "b := 1\nc := 0"), _answers(prog, [4]))
    assert trace.outcome.kind == "error"
    assert trace.outcome.error == "arith"
    (record,) = trace.steps
    assert list(record.updates.items()) == []
    assert record.interactions == (Interaction("R", (0, 5), 4),)


def test_eval_term_without_session_cannot_query():
    prog = _program(ORACLE_DECLS, "do until false { a := R(0, 5) }")
    term = parse_term_in("R(0, 5)", prog.vocabulary)
    with pytest.raises(BasmError) as e:
        eval_term(_state(prog, ""), term)
    assert e.value.kind == "oracle-domain"


def test_eval_term_records_interactions():
    prog = _program(ORACLE_DECLS, "do until false { a := R(0, 5) }")
    term = parse_term_in("R(0, 5) + R(0, 5)", prog.vocabulary)
    session = OracleSession(_answers(prog, [3]), prog.vocabulary)
    session.begin_step()
    value, interactions = eval_term(_state(prog, ""), term, session)
    assert value == 6
    assert len(interactions) == 1


@pytest.mark.parametrize("op, decided, value", [("and", "false", 2), ("or", "true", 1)])
def test_a_decided_connective_still_evaluates_its_right_operand(op, decided, value):
    """No short-circuiting: when the left operand already decides `and` or
    `or`, the right operand still reads its location and asks its oracle."""
    prog = _program(ORACLE_DECLS, f"do until false {{ "
                    f"if {decided} {op} b = R(0, 5) then a := 1 else a := 2 }}")
    reads = []

    class RecordingState(State):
        def read(self, location):
            reads.append(location.render())
            return super().read(location)

    init = _state(prog, "b := 3")
    session = OracleSession(_answers(prog, [3]), prog.vocabulary)
    session.begin_step()
    updates, interactions = step(RecordingState(init.vocabulary, init.interp),
                                 prog.step_rule, session)
    assert reads == ["b"]
    assert interactions == [Interaction("R", (0, 5), 3)]
    assert [v for _, v in updates.items()] == [value]


def test_run_leaves_the_initial_state_alone():
    """The run commits into its own copy of the initial bindings, `undef`
    writes included, and hands that copy out as the final state."""
    prog = _program(INT2, "do until a = undef { par { a := undef; b := b + 1 } }")
    init = _state(prog, "a := 5\nb := 0")
    before = dict(init.interp)
    trace = run(prog, init, ScriptedPolicy())
    assert trace.outcome.kind == "halted"
    assert trace.initial_state is init and init.interp == before
    assert trace.final_state.interp is not init.interp
    assert state_bindings(trace.final_state) == {"b": "1"}
    assert replay(trace, prog) and init.interp == before


# --- replay and trace serialisation -----------------------------------------


def _uniform_trace():
    prog = _program(ORACLE_DECLS, "do until a = 3 { a := R(0, 3) }")
    trace = run(prog, _state(prog, ""), UniformRandomPolicy(11), max_steps=500)
    assert trace.outcome.kind == "halted"
    return prog, trace


def test_replay_reproduces_a_random_run():
    prog, trace = _uniform_trace()
    assert replay(trace, prog)


def test_replay_detects_tampering():
    prog, trace = _uniform_trace()
    record = trace.steps[0]
    (loc, _value), = record.updates.items()
    tampered = type(record.updates)()
    tampered.add(loc, 12345)
    record.updates = tampered
    assert not replay(trace, prog)


def test_replay_rejects_wrong_program():
    prog, trace = _uniform_trace()
    other = _program(ORACLE_DECLS, "do until a = 3 { a := R(0, 4) }")
    with pytest.raises(BasmError) as e:
        replay(trace, other)
    assert e.value.kind == "program-id"


def test_replay_covers_error_traces():
    prog = _program(ORACLE_DECLS,
                    "do until false { par { a := R(0, 5); b := b mod c } }")
    trace = run(prog, _state(prog, "b := 1\nc := 0"), _answers(prog, [4]))
    assert trace.outcome.kind == "error"
    assert replay(trace, prog)


def test_trace_round_trips_through_jsonl():
    prog, trace = _uniform_trace()
    text = render_trace(trace)
    again = read_trace(text.splitlines(), prog)
    assert render_trace(again) == text
    assert replay(again, prog)


def test_trace_field_order_is_fixed():
    par = _program("var x : Integer\n  var f(Integer) : Integer",
                   "do until x = 1 { par { x := 1; f(2) := 20; f(1) := 10 } }")
    par_trace = run(par, _state(par, ""), _answers(par, []))
    # An update set keeps the order the rule made its updates in; a written
    # trace sorts them by rendered location.
    made = [loc.render() for loc, _ in par_trace.steps[0].updates.items()]
    assert made == ["x", "f(2)", "f(1)"]
    for trace in (_uniform_trace()[1], par_trace):
        lines = render_trace(trace).splitlines()
        assert lines[0].startswith('{"programId": ')
        assert '"initialState"' in lines[0]
        assert lines[1].startswith('{"index": 0, "updates": ')
        assert lines[-1].startswith('{"outcome": ')
    updates = json.loads(render_trace(par_trace).splitlines()[1])["updates"]
    assert [u["loc"] for u in updates] == ["f(1)", "f(2)", "x"]


def test_script_lines_replay_the_same_answers():
    prog, trace = _uniform_trace()
    policy = load_script(script_lines(trace), prog.vocabulary, mode="strict")
    rerun = run(prog, trace.initial_state, policy, max_steps=len(trace.steps) + 1)
    assert rerun.outcome.kind == "halted"
    assert render_trace(rerun) == render_trace(trace)


# --- one location object per variable ----------------------------------------


def test_a_variable_is_one_location_object_wherever_it_is_built():
    """`Location(sym, ())` is the symbol's one 0-ary location, so every
    builder of a variable's location hands out the same object, and the
    store and update sets find it by identity."""
    prog = load_entry_program("euclid")
    init = load_entry_state("euclid")
    reads = []

    class RecordingState(State):
        def read(self, location):
            reads.append(location)
            return super().read(location)

    updates, _ = step(RecordingState(init.vocabulary, init.interp), prog.step_rule)
    golden = (entry_dir("euclid") / "golden" / "a12b8.jsonl").read_text().splitlines()
    trace = read_trace(golden, prog)
    x, _ = junk_state_sampler(prog, State(prog.vocabulary, {}))(random.Random(1))
    built = {
        "compiled reads": reads,
        "compiled updates": [loc for loc, _ in updates.items()],
        "load_state": list(init.interp),
        "read_trace": [*trace.initial_state.interp, *trace.final_state.interp,
                       *(loc for record in trace.steps for loc, _ in record.updates.items())],
        "junk_state_sampler": list(x.interp),
        "corpus override": list(corpus_run("euclid", d=5).initial_state.interp),
        "transport": list(transport(init, {}).interp),
    }
    for source, locations in built.items():
        variables = [loc for loc in locations if loc.symbol.name in ("a", "b", "d")]
        assert variables, source
        for loc in variables:
            assert loc is Location(prog.vocabulary.symbol(loc.symbol.name), ()), source
    assert {loc.symbol.name for loc in built["corpus override"]} == {"a", "b", "d"}


def test_a_location_of_an_equal_symbol_still_compares_equal():
    one, other = (_program(INT2, "do until a = 0 { a := 0 }") for _ in range(2))
    a, same_a = (Location(p.vocabulary.symbol("a"), ()) for p in (one, other))
    assert a is not same_a
    assert a == same_a and hash(a) == hash(same_a)
    assert a != Location(one.vocabulary.symbol("b"), ())


FIBONACCI = "a := 832040\nb := 514229"  # the longest remainder chain below 10^6


def test_a_run_and_its_trace_round_trip_compare_no_locations(monkeypatch):
    """Reads, commits, trace reading and replay of a machine of variables
    match every location key by identity, never by `Location.__eq__`."""
    prog = load_entry_program("euclid_while")
    init = _state(prog, FIBONACCI)
    calls = []
    eq = Location.__eq__
    monkeypatch.setattr(Location, "__eq__", lambda self, other: calls.append(1) or eq(self, other))
    trace = run(prog, init, ScriptedPolicy())
    again = read_trace(render_trace(trace).splitlines(), prog)
    assert len(again.steps) == 28 and replay(again, prog)
    assert calls == []


def test_a_trace_parses_each_location_text_once(monkeypatch):
    prog = load_entry_program("euclid_while")
    text = render_trace(run(prog, _state(prog, FIBONACCI), ScriptedPolicy()))
    parsed = []
    parse_location = literals.parse_location
    monkeypatch.setattr(literals, "parse_location",
                        lambda text, vocab: parsed.append(text) or parse_location(text, vocab))
    read_trace(text.splitlines(), prog)
    assert parsed == ["a", "b"]
