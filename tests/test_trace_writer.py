"""The trace writer against the dict-plus-`json.dumps` writer it replaced.

`reference_trace_lines` and `reference_script_lines` are that writer, kept
here as the reference: each row is a fresh dict passed to `json.dumps`. The
reference spells each location text itself, from `render_value` alone, and
sorts by location text, then literal text; so a mistake in `render_key` or
`rendered_bindings`, which spell integers inline, cannot pass on both sides.
`traceio` writes the same rows as text directly and must give the same bytes
on random traces whose shapes no golden has: locations keyed by one or two
integers, by a Boolean, by a point and an enum member; `true` and `false`
values under an integer-keyed symbol; `undef` writes; negative and 640-digit
integers, as values and as arguments; steps asking 0, 1 or 3 interactions;
and every outcome kind with and without an error, whose texts may need JSON
escapes.
"""
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from basm.geometry import Circle, Line, Point
from basm.oracles import Interaction
from basm.semantics import Outcome, StepRecord, Trace
from basm.state import MAX_INT_DIGITS, UNDEF, State, UpdateSet, Vocabulary, render_value
from basm.traceio import render_trace, script_lines


def _reference_interaction(i: Interaction) -> dict:
    return {
        "oracle": i.oracle,
        "args": [render_value(a) for a in i.args],
        "answer": render_value(i.answer),
    }


def _location(key) -> str:
    name, args = key
    return f"{name}({','.join(render_value(a) for a in args)})" if args else name


def _bindings(bindings) -> list[tuple[str, str]]:
    return sorted((_location(key), render_value(value)) for key, value in bindings.items())


def reference_trace_lines(trace: Trace) -> list[str]:
    lines = [json.dumps({"programId": trace.program_id,
                         "initialState": dict(_bindings(trace.initial_state.store))})]
    for index, record in enumerate(trace.steps):
        lines.append(json.dumps({
            "index": index,
            "updates": [{"loc": loc, "value": value} for loc, value in _bindings(record.updates)],
            "interactions": [_reference_interaction(i) for i in record.interactions],
            "halted": index == len(trace.steps) - 1 and trace.outcome.kind == "halted",
        }))
    final: dict = {"outcome": trace.outcome.kind}
    if trace.outcome.error is not None:
        final["error"] = trace.outcome.error
    final["finalState"] = dict(_bindings(trace.final_state.store))
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
    st.sampled_from([("a", ()), ("b", ()), ("c", ()), ("cell", (-LONGEST,))]),
    st.tuples(st.just("cell"), st.tuples(integers)),
    st.tuples(st.just("flag"), st.tuples(st.booleans())),
    st.tuples(st.just("pair"), st.tuples(integers, integers)),
    st.tuples(st.just("at"), st.tuples(points, members)),
    st.tuples(st.just("succ"), st.tuples(members)),
)
stores = st.dictionaries(keys, values, max_size=6)
interactions = st.builds(Interaction, st.sampled_from(["Pick", "I", "R"]),
                         st.lists(values, max_size=3).map(tuple), values)


def _updates(bindings: dict) -> UpdateSet:
    updates = UpdateSet()
    for key, value in bindings.items():
        updates.add(key, value)
    return updates


@st.composite
def steps(draw) -> StepRecord:
    updates = _updates(draw(st.dictionaries(keys, st.one_of(st.just(UNDEF), values), max_size=4)))
    asked = draw(st.sampled_from([0, 1, 3]))
    return StepRecord(updates, tuple(draw(st.lists(interactions, min_size=asked,
                                                   max_size=asked))))


@st.composite
def traces(draw) -> Trace:
    vocabulary = Vocabulary()
    records = [draw(steps()) for _ in range(draw(st.integers(0, 4)))]
    outcome = Outcome(draw(st.sampled_from(["halted", "step-limit", "error"])),
                      draw(st.one_of(st.none(), st.sampled_from(["clash", "arith"]), st.text())))
    return Trace(draw(st.text()), State(vocabulary, draw(stores)), records,
                 State(vocabulary, draw(stores)), outcome)


# Each key shape above, with booleans under the integer-keyed `cell`.
EVERY_SHAPE = Trace(
    "p", State(Vocabulary(), {("cell", (3,)): True, ("cell", (-4,)): False, ("flag", (True,)): 1,
                              ("pair", (12, -7)): -LONGEST, ("cell", (-LONGEST,)): LONGEST}),
    [StepRecord(_updates({("flag", (False,)): False, ("cell", (10,)): True, ("cell", (9,)): 0,
                          ("pair", (-LONGEST, 0)): UNDEF, ("a", ()): "red"}),
                (Interaction("Pick", (True, -3), False), Interaction("I", (LONGEST,), 2)))],
    State(Vocabulary(), {("flag", (True,)): -1, ("cell", (2,)): False}), Outcome("halted"))


@settings(max_examples=60, deadline=None)
@given(traces())
@example(EVERY_SHAPE)
def test_the_writer_spells_every_row_as_json_dumps_does(trace):
    assert render_trace(trace) == "\n".join(reference_trace_lines(trace)) + "\n"
    assert script_lines(trace) == reference_script_lines(trace)
