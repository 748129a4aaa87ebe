"""Hostile trace and script files, made by damaging the committed goldens.

Each example starts from a golden trace under `corpus/*/golden/` and damages
it line by line: a row is dropped, duplicated, swapped with another or cut
short, or one of its fields is given a value of another JSON type or another
field's text. `read_trace` and `load_script` must then read the file or
raise `BasmError`, never another exception. A bad location text spliced into
a row after the text's first good use fails on that row's line, with the
kind its text has on its own. A faulty interaction fails with a pinned
kind, message and line, as does one that holds no one answer or refusal.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basm.corpus import load_entry_program
from basm.errors import BasmError, ParseError
from basm.literals import parse_location, parse_value
from basm.oracles import REFUSALS, Refused
from basm.state import CIRCLE, POINT
from basm.traceio import load_script, read_trace, render_trace

REPO = Path(__file__).resolve().parents[1]
GOLDENS = sorted((REPO / "corpus").glob("*/golden/*.jsonl"))


def _golden(path: Path):
    return load_entry_program(path.parent.parent.name), path.read_text().splitlines()


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_an_undamaged_golden_re_renders_byte_for_byte(path):
    program, lines = _golden(path)
    trace = read_trace(lines, program)
    assert render_trace(trace) == path.read_text()
    script = load_script(lines, program.vocabulary)
    assert script.entries == [i for record in trace.steps for i in record.interactions]


def _paths(obj, prefix=()):
    """The path of every value inside a JSON row, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _texts(obj):
    """Every string in a JSON row, keys included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _texts(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _texts(value)
    elif isinstance(obj, str):
        yield obj


OTHER_VALUES = [None, True, 0, 1, -1, 2.5, "", "undef", "(", [], {}, ["a"], {"a": "1"}]


@st.composite
def damaged_goldens(draw):
    program, lines = _golden(draw(st.sampled_from(GOLDENS)))
    texts = sorted({t for line in lines for t in _texts(json.loads(line))})
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        damage = draw(st.sampled_from(("drop", "duplicate", "swap", "cut", "retype")))
        if damage == "drop":
            del lines[i]
        elif damage == "duplicate":
            lines.insert(i, lines[i])
        elif damage == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif damage == "cut":
            lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        else:
            try:
                row = json.loads(lines[i])
            except ValueError:
                continue  # a row cut short earlier
            paths = list(_paths(row))
            if not paths:
                continue
            *parents, key = draw(st.sampled_from(paths))
            holder = row
            for p in parents:
                holder = holder[p]
            holder[key] = draw(st.sampled_from(OTHER_VALUES + texts))
            lines[i] = json.dumps(row)
    return program, lines


@settings(max_examples=200, deadline=None)
@given(damaged_goldens())
def test_a_damaged_golden_reads_or_fails_with_a_kind(case):
    program, lines = case
    for read in (lambda: read_trace(lines, program),
                 lambda: load_script(lines, program.vocabulary),
                 lambda: load_script(lines, program.vocabulary, mode="by-symbol")):
        try:
            read()
        except BasmError:
            pass


def _later_uses(lines):
    """(row, field, text) for each location text a step or final row names
    after an earlier row named it; field is an update's position or None for
    a final-state key."""
    seen = set(json.loads(lines[0])["initialState"])
    for row_index, line in enumerate(lines[1:], start=1):
        row = json.loads(line)
        named = ([(k, u["loc"]) for k, u in enumerate(row["updates"])] if "updates" in row
                 else [(None, loc) for loc in row["finalState"]])
        for field, text in named:
            if text in seen:
                yield row_index, field, text
        seen.update(text for _, text in named)


SPLICES = [(path, use) for path in GOLDENS for use in _later_uses(_golden(path)[1])]
BREAKS = [lambda t: t + "(", lambda t: "(" + t, lambda t: t + "_zz",
          lambda t: t + "(1)", lambda t: "zz_" + t, lambda t: "1" + t]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPLICES), st.sampled_from(BREAKS))
def test_a_bad_location_text_fails_on_its_own_line(splice, breaking):
    path, (row_index, field, text) = splice
    program, lines = _golden(path)
    bad = breaking(text)
    with pytest.raises(ParseError) as alone:
        parse_location(bad, program.vocabulary)
    row = json.loads(lines[row_index])
    if field is None:
        row["finalState"] = {bad if k == text else k: v for k, v in row["finalState"].items()}
    else:
        row["updates"][field]["loc"] = bad
    lines[row_index] = json.dumps(row)
    with pytest.raises(ParseError) as e:
        read_trace(lines, program)
    assert (e.value.line, e.value.kind) == (row_index + 1, alone.value.kind)


TANGENT = REPO / "corpus" / "tangent" / "golden" / "choice0.jsonl"
# (field, value, kind, message) of one damaged interaction of the tangent
# golden's fourth row. Its args are read before their count is tested, so a
# short list holding a bad literal fails on the literal.
INTERACTION_FAULTS = [
    ("args", ["circle(point(0.0,0.0),point(nan,0.0))"], "parse", "bad number: 'nan'"),
    ("args", 5, "parse", "bad {what} line: 'int' object is not iterable"),
    ("args", "05", "parse", "bad {what} line: an interaction's args must be a list"),
    ("args", {"0": "1"}, "parse", "bad {what} line: an interaction's args must be a list"),
    ("answer", 2.5, "parse", "bad {what} line: 'float' object has no attribute 'strip'"),
    ("answer", "point(2.5,1e999)", "parse", "coordinate out of the float range: '1e999'"),
]


@pytest.mark.parametrize("field, value, kind, message", INTERACTION_FAULTS,
                         ids=["short-args-bad-literal", "args-not-a-list", "args-a-string",
                              "args-an-object", "answer-not-a-string", "answer-not-finite"])
def test_a_faulty_interaction_fails_with_its_kind_message_and_line(field, value, kind, message):
    program, lines = _golden(TANGENT)
    row = json.loads(lines[3])
    row["interactions"][0][field] = value
    lines[3] = json.dumps(row)
    for what, read in (("trace", lambda: read_trace(lines, program)),
                       ("script", lambda: load_script(lines, program.vocabulary))):
        with pytest.raises(ParseError) as e:
            read()
        text = message.format(what=what)
        assert (e.value.kind, e.value.message, e.value.line) == \
            (kind, f"{text} (line 4, column 1)", 4)


@pytest.mark.parametrize("kind", sorted(REFUSALS))
def test_a_refusal_reads_back_in_a_trace_and_a_script(kind):
    program, lines = _golden(TANGENT)
    row = json.loads(lines[3])
    interaction = row["interactions"][0]
    del interaction["answer"]
    interaction["refused"] = kind
    lines[3] = json.dumps(row)
    trace = read_trace(lines, program)
    assert trace.steps[2].interactions[0].answer == Refused(kind)
    assert render_trace(trace).splitlines() == lines
    script = load_script(lines, program.vocabulary)
    assert script.entries == [i for record in trace.steps for i in record.interactions]


# The fields after "args" of an interaction that holds no one answer or
# refusal kind, and the message it fails with.
REFUSAL_FAULTS = [
    ({"refused": "clash"}, "bad {what} line: unknown refusal kind 'clash'"),
    ({"refused": None}, "bad {what} line: unknown refusal kind None"),
    ({"refused": ["script"]}, "bad {what} line: unhashable type: 'list'"),
    ({"answer": "point(2.5,4.330127018922194)", "refused": "script"},
     "bad {what} line: an interaction holds both an answer and a refusal"),
    ({}, "bad {what} line: 'answer'"),
]


@pytest.mark.parametrize("tail, message", REFUSAL_FAULTS,
                         ids=["other-kind", "null-kind", "list-kind", "both", "neither"])
def test_an_interaction_without_one_answer_or_refusal_is_a_bad_line(tail, message):
    program, lines = _golden(TANGENT)
    row = json.loads(lines[3])
    interaction = row["interactions"][0]
    row["interactions"][0] = {"oracle": interaction["oracle"], "args": interaction["args"], **tail}
    lines[3] = json.dumps(row)
    for what, read in (("trace", lambda: read_trace(lines, program)),
                       ("script", lambda: load_script(lines, program.vocabulary))):
        with pytest.raises(ParseError) as e:
            read()
        assert (e.value.kind, e.value.message) == \
            ("parse", f"{message.format(what=what)} (line 4, column 1)")


@pytest.mark.parametrize("args", ["05", {"0": "1"}], ids=["string", "object"])
def test_a_by_symbol_script_refuses_args_that_are_no_list_or_null(args):
    program, lines = _golden(TANGENT)
    row = json.loads(lines[3])
    row["interactions"][0]["args"] = args
    lines[3] = json.dumps(row)
    with pytest.raises(ParseError) as e:
        load_script(lines, program.vocabulary, mode="by-symbol")
    assert (e.value.kind, e.value.message) == \
        ("parse", "bad script line: an interaction's args must be a list (line 4, column 1)")


# Outcome rows whose "error" field is missing, not a string, or present
# on an outcome other than "error".
OUTCOME_FAULTS = [
    {"outcome": "error"},
    {"outcome": "error", "error": 5},
    {"outcome": "error", "error": None},
    {"outcome": "halted", "error": "clash"},
    {"outcome": "step-limit", "error": None},
]


@pytest.mark.parametrize("head", OUTCOME_FAULTS,
                         ids=["error-without-kind", "error-kind-a-number", "error-kind-null",
                              "halted-with-kind", "step-limit-with-null-kind"])
def test_an_outcome_row_with_a_malformed_error_field_is_a_bad_line(head):
    program, lines = _golden(TANGENT)
    lines[-1] = json.dumps({**head, "finalState": json.loads(lines[-1])["finalState"]})
    with pytest.raises(ParseError) as e:
        read_trace(lines, program)
    assert (e.value.kind, e.value.message) == \
        ("parse", "bad trace line: expected an error kind string exactly when the outcome is "
                  f"error (line {len(lines)}, column 1)")



def test_an_outcome_row_with_an_unknown_error_kind_is_a_bad_line():
    program, lines = _golden(TANGENT)
    final = json.loads(lines[-1])["finalState"]
    lines[-1] = json.dumps({"outcome": "error", "error": "clash", "finalState": final})
    assert read_trace(lines, program).outcome.error == "clash"
    lines[-1] = json.dumps({"outcome": "error", "error": "no-such-kind", "finalState": final})
    with pytest.raises(ParseError) as e:
        read_trace(lines, program)
    assert (e.value.kind, e.value.message) == \
        ("parse", f"bad trace line: unknown error kind 'no-such-kind' (line {len(lines)}, column 1)")


# --- each text once per file, and no error hidden by it ----------------------
#
# A trace keeps what it has read of each location text, geometry literal
# text, oracle name and oracle argument list; only what read is kept. The
# tangent golden names the circle D on rows 3 to 6 and asks the oracle I on
# rows 4 and 5 (lines counted from 1).

def _damage(row: dict, field: str, bad: str):
    if field == "value":
        next(u for u in row["updates"] if u["loc"] == "D")["value"] = bad
    elif field == "arg":
        row["interactions"][0]["args"][1] = bad
    else:
        row["interactions"][0]["answer"] = bad


def _damaged(field: str, bad: str, rows: tuple):
    program, lines = _golden(TANGENT)
    for i in rows:
        row = json.loads(lines[i])
        _damage(row, field, bad)
        lines[i] = json.dumps(row)
    return program, lines


# (field, sort, bad text): a text out of the float range, and a text that
# the same file reads elsewhere under another sort (p is point(0.0,0.0), C
# is the circle below).
GEOMETRY_FAULTS = [
    ("value", CIRCLE, "circle(point(5.0,0.0),point(1e999,0.0))"),
    ("value", CIRCLE, "point(0.0,0.0)"),
    ("arg", CIRCLE, "circle(point(5.0,0.0),point(nan,0.0))"),
    ("arg", CIRCLE, "point(0.0,0.0)"),
    ("answer", POINT, "point(2.5,1e999)"),
    ("answer", POINT, "circle(point(0.0,0.0),point(5.0,0.0))"),
]


@pytest.mark.parametrize("field, sort, bad", GEOMETRY_FAULTS)
def test_a_bad_geometry_text_on_two_rows_fails_at_the_first(field, sort, bad):
    with pytest.raises(ParseError) as alone:
        parse_value(bad, sort)
    for rows, line in (((3, 4), 4), ((4,), 5)):
        program, lines = _damaged(field, bad, rows)
        readers = [read_trace] if field == "value" else [
            read_trace, lambda lines, program: load_script(lines, program.vocabulary)]
        for read in readers:
            with pytest.raises(ParseError) as e:
                read(lines, program)
            assert (e.value.line, e.value.kind) == (line, alone.value.kind)


@pytest.mark.parametrize("args", [
    ["circle(point(0.0,0.0),point(5.0,0.0))"],
    ["circle(point(0.0,0.0),point(5.0,0.0))", "circle(point(5.0,0.0),point(10.0,0.0))",
     "circle(point(5.0,0.0),point(10.0,0.0))"],
], ids=["one", "three"])
def test_a_known_oracle_with_a_wrong_arg_count_on_a_later_row_is_a_sort_error(args):
    program, lines = _golden(TANGENT)
    row = json.loads(lines[4])
    row["interactions"][0]["args"] = args
    lines[4] = json.dumps(row)
    for read in (lambda: read_trace(lines, program),
                 lambda: load_script(lines, program.vocabulary)):
        with pytest.raises(ParseError) as e:
            read()
        assert (e.value.kind, e.value.message) == \
            ("sort", "arity mismatch in trace interaction for I (line 5, column 1)")


@pytest.mark.parametrize("name, message", [
    ("p", "not an oracle symbol: p"),
    ("M", "not an oracle symbol: M"),
    ("zz", "unknown oracle in trace: zz"),
])
@pytest.mark.parametrize("row_index", [3, 4])
def test_a_name_that_is_no_oracle_fails_on_every_row_that_uses_it(row_index, name, message):
    program, lines = _golden(TANGENT)
    row = json.loads(lines[row_index])
    row["interactions"][0]["oracle"] = name
    lines[row_index] = json.dumps(row)
    for read in (lambda: read_trace(lines, program),
                 lambda: load_script(lines, program.vocabulary),
                 lambda: load_script(lines, program.vocabulary, mode="by-symbol")):
        with pytest.raises(ParseError) as e:
            read()
        assert (e.value.kind, e.value.message) == \
            ("sort", f"{message} (line {row_index + 1}, column 1)")


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_a_whitespace_padded_row_still_reads(path):
    program, lines = _golden(path)
    padded = [f" \t{line}\r\n " for line in lines]
    assert render_trace(read_trace(padded, program)) == path.read_text()
    assert load_script(padded, program.vocabulary).entries == \
        load_script(lines, program.vocabulary).entries


@pytest.mark.parametrize("damage", [lambda line: f"{line} {line}", lambda line: f'{line}{{"a": 1}}',
                                    lambda line: "\ufeff" + line],
                         ids=["two-rows", "extra-object", "bom"])
@pytest.mark.parametrize("row_index", [0, 3, 5])
def test_a_row_that_is_not_one_json_value_fails_as_json_says_at_its_line(row_index, damage):
    program, lines = _golden(TANGENT)
    lines[row_index] = damage(lines[row_index])
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(lines[row_index])
    for what, read in (("trace", lambda: read_trace(lines, program)),
                       ("script", lambda: load_script(lines, program.vocabulary))):
        with pytest.raises(ParseError) as e:
            read()
        assert (e.value.kind, e.value.message) == \
            ("parse", f"bad {what} line: {decoded.value} (line {row_index + 1}, column 1)")
