"""Step semantics: pre-state reads, update atomicity, halting, and replay."""
import io
import json
import math
import random
import re
import tokenize

import pytest

from basm import literals, semantics
from basm.checks import junk_state_sampler
from basm.corpus import corpus_run, entry_dir, load_entry_program, load_entry_state
from basm.errors import BasmError
from basm.literals import load_state, state_bindings
from basm.oracles import Interaction, OracleSession, ScriptedPolicy, UniformRandomPolicy
from basm.semantics import default_max_steps, eval_term, replay, run, step
from basm.syntax import parse_program, parse_term_in
from basm.traceio import load_script, read_trace, render_trace, script_lines
from basm.state import UNDEF, Location, State, render_key, transport


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
    assert {render_key(key): v for key, v in updates.items()} == {"a": 2, "b": 1}
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

    class RecordingStore(dict):
        def get(self, key, default=None):
            reads.append(render_key(key))
            return super().get(key, default)

    init = _state(prog, "b := 3")
    session = OracleSession(_answers(prog, [3]), prog.vocabulary)
    session.begin_step()
    updates, interactions = step(State(init.vocabulary, RecordingStore(init.store)),
                                 prog.step_rule, session)
    assert reads == ["b"]
    assert interactions == [Interaction("R", (0, 5), 3)]
    assert [v for _, v in updates.items()] == [value]


def test_run_leaves_the_initial_state_alone():
    """The run commits into its own copy of the initial bindings, `undef`
    writes included, and hands that copy out as the final state."""
    prog = _program(INT2, "do until a = undef { par { a := undef; b := b + 1 } }")
    init = _state(prog, "a := 5\nb := 0")
    before = dict(init.store)
    trace = run(prog, init, ScriptedPolicy())
    assert trace.outcome.kind == "halted"
    assert trace.initial_state is init and init.store == before
    assert trace.final_state.store is not init.store
    assert state_bindings(trace.final_state) == {"b": "1"}
    assert replay(trace, prog) and init.store == before


# --- replay and trace serialisation -----------------------------------------


def _uniform_trace():
    prog = _program(ORACLE_DECLS, "do until a = 3 { a := R(0, 3) }")
    trace = run(prog, _state(prog, ""), UniformRandomPolicy(11), max_steps=500)
    assert trace.outcome.kind == "halted"
    return prog, trace


def test_replay_reproduces_a_random_run():
    prog, trace = _uniform_trace()
    assert replay(trace, prog)


@pytest.mark.parametrize("max_steps", [0, 1, 2])
def test_a_step_limit_trace_replays(max_steps):
    """Replay runs a step-limit trace for exactly its recorded steps, even none."""
    prog = _program(ORACLE_DECLS, "do until a = 3 { a := R(0, 2) }")
    trace = run(prog, _state(prog, ""), UniformRandomPolicy(11), max_steps=max_steps)
    assert (trace.outcome.kind, len(trace.steps)) == ("step-limit", max_steps)
    read = read_trace(render_trace(trace).splitlines(), prog)
    assert replay(read, prog)


def test_replay_detects_tampering():
    prog, trace = _uniform_trace()
    record = trace.steps[0]
    (loc, _value), = record.updates.items()
    tampered = type(record.updates)()
    tampered.add(loc, 12345)
    record.updates = tampered
    assert not replay(trace, prog)


def test_a_negative_zero_coordinate_reads_as_zero():
    """A point has one zero (docs/formats.md): a tangent trace edited from
    `point(5.0,0.0)` to `point(5.0,-0.0)` reads as the unedited golden, on
    purpose, so it replays and renders as the golden does."""
    program = load_entry_program("tangent")
    golden = (entry_dir("tangent") / "golden" / "choice0.jsonl").read_text()
    edited = golden.replace('"point(5.0,0.0)"', '"point(5.0,-0.0)"', 1)
    assert edited != golden
    trace = read_trace(edited.splitlines(), program)
    (_, r), = trace.steps[0].updates.items()
    assert r.y == 0.0 and math.copysign(1.0, r.y) == 1.0
    assert replay(trace, program) and render_trace(trace) == golden


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
    made = [render_key(key) for key, _ in par_trace.steps[0].updates.items()]
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


# --- the store is keyed by location pairs ------------------------------------


def _plain_pair(key):
    return type(key) is tuple and type(key[1]) is tuple


def test_a_variable_is_one_location_object_wherever_it_is_built():
    """A variable's location is the one plain pair `(name, ())`, whoever
    builds it: the compiled reads and updates, state files, traces, the
    bexp sampler, corpus overrides and `transport` all key it by that
    tuple, which the store and update sets hash and compare in C."""
    prog = load_entry_program("euclid")
    init = load_entry_state("euclid")
    reads = []

    class RecordingStore(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    updates, _ = step(State(init.vocabulary, RecordingStore(init.store)), prog.step_rule)
    golden = (entry_dir("euclid") / "golden" / "a12b8.jsonl").read_text().splitlines()
    trace = read_trace(golden, prog)
    x, _ = junk_state_sampler(prog, State(prog.vocabulary, {}))(random.Random(1))
    built = {
        "compiled reads": reads,
        "compiled updates": [key for key, _ in updates.items()],
        "load_state": list(init.store),
        "read_trace": [*trace.initial_state.store, *trace.final_state.store,
                       *(key for record in trace.steps for key, _ in record.updates.items())],
        "junk_state_sampler": list(x.store),
        "corpus override": list(corpus_run("euclid", d=5).initial_state.store),
        "transport": list(transport(init, {}).store),
    }
    for source, keys in built.items():
        assert all(_plain_pair(key) for key in keys), source
        variables = [key for key in keys if key[0] in ("a", "b", "d")]
        assert variables, source
        assert all(key == (key[0], ()) for key in variables), source
    assert {name for name, _ in built["corpus override"]} == {"a", "b", "d"}
    assert {loc.symbol.name: loc for loc in init.interp} == {
        name: (name, ()) for name, _ in init.store}


FIBONACCI = "a := 832040\nb := 514229"  # the longest remainder chain below 10^6


def test_a_run_and_its_trace_round_trip_compare_no_locations(monkeypatch):
    """A run, its render, its trace reading and its replay key the store and
    every update set by plain `(name, args)` tuples, which hash and compare
    in C, and never build or compare a `Location`: only queries and
    messages do."""
    built, compared = [], []
    new, eq = Location.__new__, Location.__eq__
    monkeypatch.setattr(Location, "__new__",
                        lambda cls, symbol, args: built.append(symbol) or new(cls, symbol, args))
    monkeypatch.setattr(Location, "__eq__",
                        lambda self, other: compared.append(1) or eq(self, other))
    prog = load_entry_program("euclid_while")
    trace = run(prog, _state(prog, FIBONACCI), ScriptedPolicy())
    again = read_trace(render_trace(trace).splitlines(), prog)
    assert len(again.steps) == 28 and replay(again, prog)
    prog = _program("var t : Integer\n  var f(Integer) : Integer",
                    "do until t >= 6 { par { t := t + 1; f(t mod 3) := f(t) + t } }")
    trace = run(prog, _state(prog, "t := 0\nf(1) := 10\nf(2) := undef"), ScriptedPolicy())
    text = render_trace(trace)
    again = read_trace(text.splitlines(), prog)
    assert replay(again, prog) and render_trace(again) == text
    for t in (trace, again):
        keys = [*t.initial_state.store, *t.final_state.store,
                *(key for record in t.steps for key, _ in record.updates.items())]
        assert {render_key(key) for key in keys} == {"t", "f(0)", "f(1)", "f(2)"}
        assert all(_plain_pair(key) for key in keys)
    assert built == [] and compared == []


def test_a_location_of_an_equal_symbol_still_compares_equal():
    one, other = (_program(INT2, "do until a = 0 { a := 0 }") for _ in range(2))
    a, same_a = (Location(p.vocabulary.symbol("a"), ()) for p in (one, other))
    assert a is not same_a
    assert a == same_a and hash(a) == hash(same_a)
    assert a != Location(one.vocabulary.symbol("b"), ())


def test_a_trace_parses_each_location_text_once(monkeypatch):
    prog = load_entry_program("euclid_while")
    text = render_trace(run(prog, _state(prog, FIBONACCI), ScriptedPolicy()))
    parsed = []
    location = literals._Readers.location
    monkeypatch.setattr(literals._Readers, "location",
                        lambda readers, text: parsed.append(text) or location(readers, text))
    read_trace(text.splitlines(), prog)
    assert parsed == ["a", "b"]


# --- the generated kernel ----------------------------------------------------

# The names the generator writes itself: keywords, the function (`rule` or
# `term`), its parameters, and the two fixed namespace entries `U` (undef)
# and `Location`.
GENERATED_NAMES = {"def", "return", "if", "else", "is", "or", "True", "pass",
                   "rule", "term", "get", "ask", "add", "U", "Location"}


def test_no_program_text_reaches_the_generated_source():
    """Every name, symbol and literal of a program reaches its generated
    functions only as a namespace constant `c<i>`: the source holds generated
    names and fixed keywords, and no number or string."""
    widest = "9" * 640
    text = (entry_dir("tangent") / "program.basm").read_text()
    text = text.replace("var T : Line", "var T : Line\n  var n : Integer")
    text = text.replace("r := M(p, q);", f"r := M(p, q);\n    n := {widest};")
    prog = parse_program(text)
    program_names = {"p", "q", "C", "D", "r", "s", "T", "n", "I", "M", "Cl", "L"}
    assert int(widest) in semantics._generate(prog.step_rule)[1].values()
    for node in (prog.step_rule, prog.halt):
        source, _ = semantics._generate(node)
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        names = {t.string for t in tokens if t.type == tokenize.NAME}
        assert {n for n in names if not re.fullmatch(r"[ct]\d+", n)} <= GENERATED_NAMES
        assert not names & program_names
        assert not [t.string for t in tokens if t.type in (tokenize.NUMBER, tokenize.STRING)]
        assert widest not in source and "undef" not in source


def test_a_node_generates_its_function_once(monkeypatch):
    generated = []

    def counting(node):
        generated.append(node)
        return original(node)

    original = semantics._generate
    monkeypatch.setattr(semantics, "_generate", counting)
    prog = _program(INT2, "do until a > 9 { a := a + 1 }")
    init = _state(prog, "a := 1")
    assert step(init, prog.step_rule)[0] == step(init, prog.step_rule)[0]
    assert eval_term(init, prog.halt) == eval_term(init, prog.halt) == (False, [])
    assert generated == [prog.step_rule, prog.halt]
