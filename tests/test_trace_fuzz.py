"""Hostile trace and script files, made by damaging the committed goldens.

Each example starts from a golden trace under `corpus/*/golden/` and damages
it line by line: a row is dropped, duplicated, swapped with another or cut
short, or one of its fields is given a value of another JSON type or another
field's text. `read_trace` and `load_script` must then read the file or
raise `BasmError`, never another exception. A bad location text spliced into
a row after the text's first good use fails on that row's line, with the
kind its text has on its own. A faulty interaction fails with a pinned
kind, message and line.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basm.corpus import load_entry_program
from basm.errors import BasmError, ParseError
from basm.literals import parse_location
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
    ("answer", 2.5, "parse", "bad {what} line: 'float' object has no attribute 'strip'"),
    ("answer", "point(2.5,1e999)", "parse", "coordinate out of the float range: '1e999'"),
]


@pytest.mark.parametrize("field, value, kind, message", INTERACTION_FAULTS,
                         ids=["short-args-bad-literal", "args-not-a-list", "answer-not-a-string",
                              "answer-not-finite"])
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
