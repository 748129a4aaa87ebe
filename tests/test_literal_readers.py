"""The literal and location readers against the per-binding reader they replaced.

`reference_parse_value`, `reference_parse_location` and `reference_load_state`
are that reader, kept here as the reference: each binding went through
`parse_binding`, which read its location text with one generic pattern and a
character-by-character argument split, then its literal through a chain of
sort tests. `literals` reads a canonical text with one pattern per symbol and
one reader per sort, and sends every other text to the general reader. Both
must give the same location pair and value, or the same error kind and
message, on texts made of every `str.isspace` character, names of each kind,
`name()`, `undef`, signed, zero-padded, 640- and 641-digit and non-ASCII
integers, Boolean, enum and geometry arguments, and stray parentheses and
commas; `load_state` must fail on the same line. Points, circles and lines
are read by one pattern per sort, checked the same way on padded, signed,
infinite, non-ASCII, wrong-headed and unbalanced spellings and on texts of
`repr` floats; the committed goldens and scripts never reach the general
reader.
"""
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basm import literals
from basm.corpus import load_entry_program
from basm.errors import BasmError, ParseError
from basm.literals import (_call_body, _parse_point, _split_args, load_state, parse_location,
                           parse_value, readers_of)
from basm.geometry import Circle, Line
from basm.oracles import ScriptedPolicy
from basm.semantics import run
from basm.state import (ANY, BOOLEAN, CIRCLE, DYNAMIC, INTEGER, LINE, MAX_INT_DIGITS, POINT,
                        UNDEF, State, Vocabulary, render_key)
from basm.syntax import parse_program
from basm.traceio import _interaction_text, load_script, read_trace, render_trace

# --- the reference reader ----------------------------------------------------

_INT_RE = re.compile(rf"[-+]?[0-9]{{1,{MAX_INT_DIGITS}}}")
_LOCATION_RE = re.compile(rf"({literals.NAME})\s*(\((.*)\))?")


def reference_parse_value(text, sort, vocabulary=None):
    text = text.strip()
    if text == "undef":
        return UNDEF
    if sort is ANY:
        return _reference_infer_value(text, vocabulary)
    if sort is INTEGER:
        if not _INT_RE.fullmatch(text):
            raise ParseError(
                f"expected an integer literal of at most {MAX_INT_DIGITS} digits, got {text!r}"
            )
        return int(text)
    if sort is BOOLEAN:
        if text == "true":
            return True
        if text == "false":
            return False
        raise ParseError(f"expected true or false, got {text!r}")
    if sort is POINT:
        return _parse_point(text)
    if sort is CIRCLE or sort is LINE:
        head, make = ("circle", Circle) if sort is CIRCLE else ("line", Line)
        body = _call_body(text, head)
        if body is None:
            raise ParseError(f"expected {head}(point(..),point(..)), got {text!r}")
        args = _split_args(body, text)
        if len(args) != 2:
            raise ParseError(f"{head} takes two points, got {text!r}")
        return make(_parse_point(args[0]), _parse_point(args[1]))
    if sort.is_enum:
        if text in sort.members:
            return text
        raise ParseError(f"{text!r} is not a member of {sort.name}")
    raise BasmError("sort", f"cannot parse a literal of sort {sort.name}")


def _reference_infer_value(text, vocabulary):
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.fullmatch(text):
        return int(text)
    for head, sort in (("point", POINT), ("circle", CIRCLE), ("line", LINE)):
        if text.startswith(head + "("):
            return reference_parse_value(text, sort, vocabulary)
    if vocabulary is not None and vocabulary.member_sort(text) is not None:
        return text
    raise ParseError(f"cannot read literal {text!r}")


def reference_parse_location(text, vocabulary):
    text = text.strip()
    m = _LOCATION_RE.fullmatch(text)
    if not m:
        raise ParseError(f"bad location: {text!r}")
    name, _, argtext = m.groups()
    sym = vocabulary.symbol(name)
    if sym is None:
        raise ParseError(f"unknown symbol: {name}", kind="sort")
    if sym.kind != DYNAMIC:
        raise ParseError(f"not a dynamic symbol: {name}", kind="sort")
    parts = _split_args(argtext, text) if argtext and argtext.strip() else []
    if len(parts) != sym.arity:
        raise ParseError(f"arity mismatch at {text!r}", kind="sort")
    return name, tuple(reference_parse_value(p, s, vocabulary)
                       for p, s in zip(parts, sym.arg_sorts))


def _reference_binding(loc_text, lit, vocabulary, locations):
    key = locations.get(loc_text)
    if key is None:
        key = locations[loc_text] = reference_parse_location(loc_text, vocabulary)
    return key, reference_parse_value(lit, vocabulary.symbols[key[0]].result_sort, vocabulary)


def reference_load_state(text, vocabulary, source="<state>"):
    lineno, store, cleared, locations = 0, {}, set(), {}
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":=" not in line:
                raise ParseError("expected `location := literal`")
            key, value = _reference_binding(*line.split(":=", 1), vocabulary, locations)
            if key in store or key in cleared:
                raise ParseError(f"repeated binding for {render_key(key)}")
            if value is UNDEF:
                cleared.add(key)
            else:
                store[key] = value
    except ParseError as e:
        raise ParseError(f"{source}: {e.message}", line=lineno, column=1, kind=e.kind) from None
    return State(vocabulary, store)


# --- texts to read -------------------------------------------------------------

PROGRAM_TEXT = """vocab {
  enum Color { red, green, blue, bluer }
  var t : Integer
  var on : Boolean
  var c : Color
  var p : Point
  var cell(Integer) : Integer
  var flag(Boolean) : Color
  var paint(Color) : Boolean
  var mix(Integer, Color, Boolean) : Integer
  var at(Point) : Integer
  oracle R(Integer, Integer) : Integer
}
do until t > 1 { par { t := t + 1; cell(t) := R(0, 9) } }
"""
PROGRAM = parse_program(PROGRAM_TEXT)
VOCAB = PROGRAM.vocabulary
COLOR = VOCAB.sort("Color")

# A vocabulary built in Python may hold names no program text can spell:
# members that `str.strip` changes, that hold a comma, or that read as undef.
ODD = Vocabulary()
ODD_SORT = ODD.declare_enum("Odd", ["undef", "a b", " x", "y,z", "ok", "true"])
ODD.declare("odd", (ODD_SORT,), ODD_SORT, DYNAMIC)
ODD.declare("we ird", (), INTEGER, DYNAMIC)
ODD.declare("pair", (ODD_SORT, INTEGER), BOOLEAN, DYNAMIC)
for _vocabulary in (VOCAB, ODD):  # each symbol's pattern is in use from the first text
    for _name in _vocabulary.symbols:
        readers_of(_vocabulary).symbol(_name)

SPACES = [chr(c) for c in range(0x3001) if chr(c).isspace()]
DIGITS = "9" * MAX_INT_DIGITS
INTEGERS = ["0", "7", "-12", "+1", "01", "-0", "-00", DIGITS, "-" + DIGITS]
BAD_INTEGERS = ["1_0", "٣", "²", "1.0", "", "-", "+-1", DIGITS + "9", "+" + DIGITS + "9"]
WORDS = ["true", "false", "undef", "red", "blue", "bluer", "Red", "purple"] + list(ODD_SORT.members)
GEOMETRY = ["point(1.0,-2.5)", "point(0,0)", "point(1e999,0)", "point(1.0)",
            "circle(point(0.0,0.0),point(1.0,0.0))", "line(point(0.0,0.0),point(1.0,0.0))",
            "line(point(0.0,0.0))"]
LITERALS = INTEGERS + BAD_INTEGERS + WORDS + GEOMETRY
# The literals of each argument sort, so that most texts are locations.
FITTING = {INTEGER: INTEGERS + ["undef"], BOOLEAN: ["true", "false", "undef"],
           COLOR: list(COLOR.members) + ["undef"], ODD_SORT: list(ODD_SORT.members)}
NAMES = ["t", "on", "c", "p", "cell", "flag", "paint", "mix", "at", "R", "mod", "Color", "red",
         "zz", "cel", "cells", "_t", "1t", "odd", "we ird", "pair"]
PUNCTUATION = ["(", ")", ",", "()", ",,", "((", "))"]

# A newline is read as a space around a name but not inside parentheses.
spaces = st.lists(st.sampled_from(SPACES + ["\n"] * 3), max_size=2).map("".join)


@st.composite
def literal_texts(draw, literals=LITERALS):
    return draw(spaces) + draw(st.sampled_from(literals)) + draw(spaces)


@st.composite
def location_texts(draw, vocabulary):
    """A name and zero or more arguments, most often of the symbol's own
    argument sorts, spaced at random, now and then with a fragment out of
    place."""
    dynamic = [sym.name for sym in vocabulary.symbols.values() if sym.kind == DYNAMIC]
    name = draw(st.sampled_from(dynamic if draw(st.integers(0, 3)) else NAMES))
    parts = [draw(spaces), name, draw(spaces)]
    sym = vocabulary.symbol(name)
    if sym is not None and draw(st.integers(0, 3)):
        args = [draw(literal_texts(FITTING.get(sort, LITERALS))) for sort in sym.arg_sorts]
    else:
        args = draw(st.lists(literal_texts(), max_size=3))
    if args or draw(st.booleans()):
        parts += ["(", ",".join(args), ")"]
    parts.append(draw(spaces))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        fragment = draw(st.sampled_from(PUNCTUATION + SPACES + NAMES + LITERALS))
        parts.insert(draw(st.integers(0, len(parts))), fragment)
    return "".join(parts)


vocabularies = st.sampled_from([VOCAB, ODD])


def _outcome(read, *args):
    """What a reader gives: its value, typed so that `1` and `True` differ,
    or the kind and message of its error."""
    try:
        value = read(*args)
    except BasmError as e:
        return "error", e.kind, e.message
    return "value", repr(value), value


SORTS = [INTEGER, BOOLEAN, POINT, CIRCLE, LINE, COLOR, ANY]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SORTS + [ODD_SORT]), literal_texts())
def test_a_literal_reads_as_the_reference_reads_it(sort, text):
    assert _outcome(parse_value, text, sort, VOCAB) == \
        _outcome(reference_parse_value, text, sort, VOCAB)


@settings(max_examples=250, deadline=None)
@given(st.data(), vocabularies, literal_texts())
def test_a_location_and_its_literal_read_as_the_reference_reads_them(data, vocabulary, lit):
    text = data.draw(location_texts(vocabulary))
    want = _outcome(reference_parse_location, text, vocabulary)
    assert _outcome(parse_location, text, vocabulary) == want
    if want[0] == "value":
        key, read = readers_of(vocabulary).location(text)
        sort = vocabulary.symbol(key[0]).result_sort
        assert _outcome(read, lit) == _outcome(reference_parse_value, lit, sort, vocabulary)


def _error(read, *args):
    try:
        read(*args)
    except BasmError as e:
        return e.kind, e.message, e.line
    except Exception as e:  # a value that is not text fails as it always did
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(location_texts(VOCAB), literal_texts(), st.booleans()), max_size=6))
def test_a_state_file_loads_as_the_reference_loads_it(bindings):
    text = "\n".join(f"{loc} := {lit}" if sep else f"{loc} {lit}" for loc, lit, sep in bindings)
    assert _error(load_state, text, VOCAB) == _error(reference_load_state, text, VOCAB)
    try:
        want = reference_load_state(text, VOCAB)
    except BasmError:
        return
    assert repr(load_state(text, VOCAB).store) == repr(want.store)


def test_the_any_sort_reads_true_and_false_as_booleans():
    assert parse_value("false", ANY) is False
    assert parse_value("true", ANY) is True


def test_values_that_are_not_text_fail_as_they_always_did():
    for sort in SORTS:
        for value in (5, None, [], {}, 2.5, True, 1e999, ["point(1.0,2.0)"], {"x": "1.0"}):
            assert _error(parse_value, value, sort, VOCAB) == \
                _error(reference_parse_value, value, sort, VOCAB)
    for value in (5, None, 2.5, True):
        assert _error(parse_location, value, VOCAB) == \
            _error(reference_parse_location, value, VOCAB)


def test_spellings_of_one_location_are_one_location():
    for text in ("cell(1)", "cell(+1)", "cell(01)", " cell ( 1 ) ", "cell(\x1c1\x1f)"):
        assert parse_location(text, VOCAB) == ("cell", (1,))
    assert parse_location("t()", VOCAB) == parse_location("t", VOCAB) == ("t", ())
    assert parse_location("cell(undef)", VOCAB) == ("cell", (UNDEF,))
    with pytest.raises(ParseError) as e:
        load_state("cell(1) := 2\ncell(+1) := 3", VOCAB)
    assert e.value.line == 2 and "repeated binding for cell(1)" in e.value.message
    assert parse_value("\x1c-12\x1c", INTEGER) == -12
    with pytest.raises(ParseError):  # inside the parentheses `\n` is no space
        parse_location("cell(\n1)", VOCAB)
    # A tab or newline before the name or the parenthesis reads as a space,
    # by the symbol's pattern or, as for `t\n()` and `undef`, the general
    # reader; `grid`'s two arguments take the general argument function.
    for text in ("\tcell(1)", "\ncell(1)", "cell\t(1)", "cell\n(1)", "\tt", "t\n()"):
        assert parse_location(text, VOCAB) == parse_location(text.strip(), VOCAB)
    assert parse_location("cell\t(1)", VOCAB) == ("cell", (1,))
    grid = parse_program("vocab { var t : Integer\n  var grid(Integer, Boolean) : Integer }\n"
                         "do until t > 0 { t := 1 }\n").vocabulary
    for text in ("grid(1,true)", "grid(+1,true)", "grid( 01 ,\ttrue )", "grid\t(1,true)",
                 "\ngrid(1, true)", "grid(1,true) "):
        assert parse_location(text, grid) == ("grid", (1, True)), text
    assert parse_location("grid(-2,false)", grid) == ("grid", (-2, False))
    assert parse_location("grid(undef,false)", grid) == ("grid", (UNDEF, False))
    with pytest.raises(ParseError) as e:
        parse_location("grid(1)", grid)
    assert e.value.kind == "sort" and "arity mismatch" in e.value.message


def _trace_with_initial_state(bindings: dict) -> list[str]:
    """The lines of a trace of `PROGRAM` whose header binds `bindings`."""
    init = load_state("t := 0", VOCAB)
    lines = render_trace(run(PROGRAM, init, ScriptedPolicy.from_answers([1, 2]))).splitlines()
    header = json.loads(lines[0])
    header["initialState"] = bindings
    lines[0] = json.dumps(header)
    return lines


@pytest.mark.parametrize("read, line, location", [
    (lambda: load_state("t := 5\nt := 5", VOCAB), 2, "t"),
    (lambda: load_state("cell(1) := 7\n\ncell(+1) := 7", VOCAB), 3, "cell(1)"),
    (lambda: read_trace(_trace_with_initial_state({"t": "0", "cell(1)": "7", "cell( 1 )": "7"}),
                        PROGRAM), 1, "cell(1)"),
], ids=["variable", "spellings", "trace-header"])
def test_a_location_bound_twice_to_one_value_is_a_repeated_binding(read, line, location):
    with pytest.raises(ParseError) as e:
        read()
    assert e.value.line == line and f"repeated binding for {location}" in e.value.message


def test_a_canonical_state_file_takes_the_fast_readers(monkeypatch):
    """`t := 0` and `cell(i) := digits` lines never reach the general
    location reader or the padded-integer pattern: each side of `:=` is
    stripped before its reader."""
    def general(*args):
        raise AssertionError(f"a general reader read {args[0]!r}")

    class NoPattern:
        fullmatch = staticmethod(general)

    monkeypatch.setattr(literals, "_spelled_location", general)
    monkeypatch.setattr(literals, "_INT_TEXT", NoPattern)
    values = [0, 7, 123456, 10 ** 30]
    text = "t := 0\n" + "".join(f"cell({i}) :=  {v}  \n" for i, v in enumerate(values))
    state = load_state(text, parse_program(PROGRAM_TEXT).vocabulary)
    assert state.store == {("t", ()): 0, **{("cell", (i,)): v for i, v in enumerate(values)}}


# --- readers are built once per vocabulary -----------------------------------

def test_a_second_read_under_one_program_builds_no_symbol_reader(monkeypatch):
    program = parse_program(PROGRAM_TEXT)
    init = load_state("t := 0\ncell(3) := 4\ncell(-5) := 6", program.vocabulary)
    lines = render_trace(run(program, init, ScriptedPolicy.from_answers([1, 2]))).splitlines()
    read_trace(lines, program)
    built = []
    location_pattern = literals._location_pattern
    monkeypatch.setattr(literals, "_location_pattern",
                        lambda sym: built.append(sym.name) or location_pattern(sym))
    read_trace(lines, program)
    load_state("t := 0\ncell(3) := 4\ncell(-5) := 6", program.vocabulary)
    load_script(lines, program.vocabulary)
    assert built == []
    copy = program.vocabulary.copy()
    load_state("t := 0\ncell(3) := 4", copy)
    assert sorted(built) == ["cell", "t"]


# --- an interaction names an oracle ---------------------------------------------

@pytest.mark.parametrize("name", ["t", "mod"])
def test_an_interaction_naming_a_symbol_that_is_no_oracle_is_a_sort_error(name):
    init = load_state("t := 0", PROGRAM.vocabulary)
    lines = render_trace(run(PROGRAM, init, ScriptedPolicy.from_answers([1, 2]))).splitlines()
    row = json.loads(lines[2])
    row["interactions"][0]["oracle"] = name
    lines[2] = json.dumps(row)
    script = [json.dumps({"oracle": "R", "args": ["0", "9"], "answer": "1"}),
              json.dumps({"oracle": name, "args": ["0", "9"], "answer": "1"})]
    for read, line in ((lambda: read_trace(lines, PROGRAM), 3),
                       (lambda: load_script(lines, PROGRAM.vocabulary), 3),
                       (lambda: load_script(script, PROGRAM.vocabulary, mode="by-symbol"), 2)):
        with pytest.raises(ParseError) as e:
            read()
        assert (e.value.kind, e.value.line) == ("sort", line)
        assert e.value.message.startswith(f"not an oracle symbol: {name} ")


def test_an_unknown_script_mode_is_a_script_error():
    with pytest.raises(BasmError) as e:
        load_script([], VOCAB, mode="bogus")
    assert (e.value.kind, e.value.message) == ("script", "unknown script mode: bogus")


def test_a_trace_of_another_program_is_refused_before_its_rows():
    """A `mod` interaction is a sort error under a program where `mod` is
    static, but the header already names another program."""
    euclid = ("vocab { var a, b, d : Integer }\n"
              "do until d = a { if b = 0 then d := a else par { a := b; b := a mod b } }\n")
    reclassified, plain = parse_program(euclid, ["mod"]), parse_program(euclid)
    init = load_state("a := 12\nb := 8", reclassified.vocabulary)
    trace = run(reclassified, init, ScriptedPolicy.from_answers([4, 0]))
    lines = render_trace(trace).splitlines()
    assert '"oracle": "mod"' in lines[1]
    assert read_trace(lines, reclassified).steps == trace.steps
    with pytest.raises(BasmError) as e:
        read_trace(lines, plain)
    assert e.value.kind == "program-id"


# --- points, circles and lines ---------------------------------------------------

# The fast geometry readers read only the spelling `render_value` writes; each
# of these texts, read directly or passed on to the general reader, must give
# what the reference gives. The padded, signed, `E`, infinite, `nan`,
# non-ASCII, wrong-headed and unbalanced spellings are the edges of that split.
GEOMETRY_SPELLINGS = [
    "point(1.0,2.0)", " point(1.0,2.0)", "point(1.0,2.0)\n", "point( 1.0,2.0)", "point(1.0 ,2.0)",
    "point(1.0,\t2.0)", "point (1.0,2.0)", "point(+1.5,1E5)", "point(1e+16,-0.0)",
    "point(-0.0,0.0)", "point(1e999,0.0)", "point(0.0,-1e999)", "point(1e-999,5e-324)",
    "point(٣,0.0)", "point(1.0,١)", "point(nan,0.0)", "point(inf,0.0)", "point(0.0,-inf)",
    "point(1,2)", "point(.5,1.0)", "point(1.,2.0)", "point(1.0,2.0", "point(1.0,2.0))",
    "point((1.0,2.0)", "point(1.0,2.0,3.0)", "point()", "point", "Point(1.0,2.0)",
    "circle(point(0.0,0.0),point(5.0,0.0))", " circle(point(0.0,0.0), point(5.0,0.0)) ",
    "circle(point(0.0,0.0),point(1e999,0.0))", "circle(point(nan,0.0),point(5.0,0.0))",
    "circle(line(point(0.0,0.0),point(1.0,0.0)),point(1.0,0.0))",
    "circle(point(0.0,0.0),point(5.0,0.0)", "circle(point(0.0,0.0)),point(5.0,0.0))",
    "circle(point(0.0,0.0),point(5.0,0.0)))", "circle(point(0.0,0.0))",
    "circle(point(0.0,0.0),point(5.0,0.0),point(1.0,1.0))",
    "line(point(10.0,0.0),point(2.5,-4.330127018922194))", "line(point(1.0,2.0) ,point(3.0,4.0))",
    "line(circle(point(0.0,0.0),point(5.0,0.0)),point(1.0,0.0))",
    "line(point(0.0,0.0),point(+0.0,1E-5))",
    "line(point(0.0,0.0),point(1.0,0.0)", "line(point(0.0,0.0)),point(1.0,0.0))",
    "line(point(1e308,0.0),point(-1e308,0.0))", "line(point(0.0,0.0),point(-inf,0.0))",
    "circle(point(0.0,0.0),point(5.0,0.0))x", "undef", " undef ", "",
]
GEOMETRY_SORTS = [POINT, CIRCLE, LINE, ANY]


@pytest.mark.parametrize("sort", GEOMETRY_SORTS, ids=lambda s: s.name)
def test_each_geometry_spelling_reads_as_the_reference_reads_it(sort):
    for text in GEOMETRY_SPELLINGS:
        assert _outcome(parse_value, text, sort, VOCAB) == \
            _outcome(reference_parse_value, text, sort, VOCAB), text


coordinates = st.floats().map(repr)  # `nan`, `inf`, `-0.0`, `5e-324`, `1e+16` and all between


@st.composite
def geometry_texts(draw):
    point = st.builds("point({},{})".format, coordinates, coordinates)
    head = draw(st.sampled_from(["point", "circle", "line"]))
    text = draw(point) if head == "point" else f"{head}({draw(point)},{draw(point)})"
    return draw(st.sampled_from(["", " "])) + text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GEOMETRY_SORTS), geometry_texts())
def test_a_geometry_literal_of_repr_floats_reads_as_the_reference_reads_it(sort, text):
    assert _outcome(parse_value, text, sort, VOCAB) == \
        _outcome(reference_parse_value, text, sort, VOCAB)


CORPUS = Path(__file__).resolve().parents[1] / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*/golden/*.jsonl")) + sorted(CORPUS.glob("*/scripts/*.jsonl"))


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_a_golden_trace_or_script_reads_without_the_general_reader(monkeypatch, path):
    """Every literal and location text the corpus writes is canonical, so
    reading it never reaches `_parse_literal` or the argument splitter."""
    def general(*args):
        raise AssertionError(f"the general reader read {args[0]!r}")

    program = load_entry_program(path.parent.parent.name)
    monkeypatch.setattr(literals, "_parse_literal", general)
    monkeypatch.setattr(literals, "_split_args", general)
    text = path.read_text()
    lines = text.splitlines()
    script = load_script(lines, program.vocabulary)
    if path.parent.name == "scripts":
        assert "".join(f"{_interaction_text(i)}\n" for i in script.entries) == text
    else:
        assert render_trace(read_trace(lines, program)) == text
