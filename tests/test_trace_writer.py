"""The trace writer against the dict-plus-`json.dumps` writer it replaced.

`reference_trace_lines` and `reference_script_lines` are that writer, kept
here as the reference: each row is a fresh dict passed to `json.dumps`.
`traceio` writes the same rows as text directly and must give the same bytes
on random traces whose shapes no golden has: n-ary locations keyed by
integers, points and enum members, `undef` writes, negative and 640-digit
integers, steps asking 0, 1 or 3 interactions, and every outcome kind with
and without an error, whose texts may need JSON escapes.
"""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from basm.geometry import Circle, Line, Point
from basm.literals import state_bindings
from basm.oracles import Interaction
from basm.semantics import Outcome, StepRecord, Trace
from basm.state import (MAX_INT_DIGITS, UNDEF, State, UpdateSet, Vocabulary, render_value,
                        rendered_bindings)
from basm.traceio import render_trace, script_lines


def _reference_interaction(i: Interaction) -> dict:
    return {
        "oracle": i.oracle,
        "args": [render_value(a) for a in i.args],
        "answer": render_value(i.answer),
    }


def reference_trace_lines(trace: Trace) -> list[str]:
    texts: dict = {}
    lines = [json.dumps({"programId": trace.program_id,
                         "initialState": state_bindings(trace.initial_state, texts)})]
    for record in trace.steps:
        lines.append(json.dumps({
            "index": record.index,
            "updates": [{"loc": loc, "value": value}
                        for loc, value in rendered_bindings(record.updates, texts)],
            "interactions": [_reference_interaction(i) for i in record.interactions],
            "halted": record.halted_after,
        }))
    final: dict = {"outcome": trace.outcome.kind}
    if trace.outcome.error is not None:
        final["error"] = trace.outcome.error
    final["finalState"] = state_bindings(trace.final_state, texts)
    lines.append(json.dumps(final))
    return lines


def reference_script_lines(trace: Trace) -> list[str]:
    return [json.dumps(_reference_interaction(i))
            for record in trace.steps for i in record.interactions]


LONGEST = 10 ** MAX_INT_DIGITS - 1
integers = st.one_of(st.integers(-10**6, 10**6), st.integers(LONGEST // 10 + 1, LONGEST),
                     st.integers(-LONGEST, -(LONGEST // 10 + 1)))
points = st.builds(Point, st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False))
members = st.sampled_from(["red", "green", "blue"])
values = st.one_of(integers, st.booleans(), points, members,
                   st.builds(Circle, points, points), st.builds(Line, points, points))
keys = st.one_of(
    st.sampled_from([("a", ()), ("b", ()), ("c", ())]),
    st.tuples(st.just("cell"), st.tuples(integers)),
    st.tuples(st.just("at"), st.tuples(points, members)),
    st.tuples(st.just("succ"), st.tuples(members)),
)
stores = st.dictionaries(keys, values, max_size=6)
interactions = st.builds(Interaction, st.sampled_from(["Pick", "I", "R"]),
                         st.lists(values, max_size=3).map(tuple), values)


@st.composite
def steps(draw, index: int) -> StepRecord:
    updates = UpdateSet()
    for key, value in draw(st.dictionaries(keys, st.one_of(st.just(UNDEF), values),
                                           max_size=4)).items():
        updates.add(key, value)
    asked = draw(st.sampled_from([0, 1, 3]))
    return StepRecord(index, updates, tuple(draw(st.lists(interactions, min_size=asked,
                                                          max_size=asked))),
                      draw(st.booleans()))


@st.composite
def traces(draw) -> Trace:
    vocabulary = Vocabulary()
    records = [draw(steps(index)) for index in range(draw(st.integers(0, 4)))]
    outcome = Outcome(draw(st.sampled_from(["halted", "step-limit", "error"])),
                      draw(st.one_of(st.none(), st.sampled_from(["clash", "arith"]), st.text())))
    return Trace(draw(st.text()), State(vocabulary, draw(stores)), records,
                 State(vocabulary, draw(stores)), outcome)


@settings(max_examples=60, deadline=None)
@given(traces())
def test_the_writer_spells_every_row_as_json_dumps_does(trace):
    assert render_trace(trace) == "\n".join(reference_trace_lines(trace)) + "\n"
    assert script_lines(trace) == reference_script_lines(trace)
