"""Reading values, locations, and initial-state files back from text.

The same literal syntax is used everywhere a value crosses a boundary: state
files, trace files, oracle scripts, and interactive answers. This module reads
it; `state.render_value` writes it (imported here, so `literals.render_value`
names the same function), and `state.rendered_bindings` writes bindings.

  42   -7   true   false   undef
  point(2.5,-4.330127018922193)
  circle(point(0.0,0.0),point(5.0,0.0))
  line(point(10.0,0.0),point(2.5,4.330127018922193))
  red                                   (enum member)

A state file holds one binding per line, `symbol := literal` for a variable or
`symbol(literal, ...) := literal` for an entry of an n-ary dynamic function.
Blank lines and `#` comments are ignored. Unlisted locations are undef.

Each sort has one reader function, and each dynamic symbol one compiled
pattern for its location texts and one function from a match to the argument
tuple; a vocabulary builds them once, on first use (see `_Readers`). A state
file's line is split at its first `:=` and each side stripped, so that a
canonical location and literal each cost one reader call. A point, circle or
line is read by one pattern of exactly the spelling `render_value` writes,
with no whitespace. A text outside these patterns, such as `name()`, an
`undef` or geometry location argument, a whitespace-padded or malformed
text, is read by the general reader (`_spelled_location`, `_parse_literal`),
which gives every error message.

A trace or script keeps one `Locations` map per file: each location text
and each point, circle or line literal text is read once per file, as the
same circle or point recurs on many rows. Geometry values are `namedtuple`s
(see `geometry`), so a circle and a line through the same points compare
equal as plain tuples; each is read by its own sort's reader, and the
per-file maps are kept per reader.
"""
from __future__ import annotations

import math
import re
import weakref
from typing import Callable, Iterable, NamedTuple

from .errors import BasmError, ParseError
from .geometry import Circle, Line, Point
from .state import (
    ANY,
    BOOLEAN,
    CIRCLE,
    DYNAMIC,
    INTEGER,
    LINE,
    MAX_INT_DIGITS,
    ORACLE,
    POINT,
    UNDEF,
    Sort,
    State,
    Symbol,
    Vocabulary,
    as_builtin,
    render_key,
    render_value,
    rendered_bindings,
)

# A name and an unsigned number, spelled the same in program text, which
# `syntax.tokenize` reads with these patterns, and in the literals read here.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"

_INT = rf"[-+]?[0-9]{{1,{MAX_INT_DIGITS}}}"
_INT_RE = re.compile(_INT)
_INT_TEXT = re.compile(rf"\s*({_INT})\s*")
_FLOAT_RE = re.compile(rf"[-+]?{NUMBER}")
_LOCATION_RE = re.compile(rf"({NAME})\s*(\((.*)\))?")


def _split_args(text: str, where: str) -> list[str]:
    """Split a comma-separated argument list at depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {where}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {where}")
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _call_body(text: str, head: str) -> str | None:
    if text.startswith(head + "(") and text.endswith(")"):
        return text[len(head) + 1 : -1]
    return None


def _parse_float(text: str) -> float:
    if not _FLOAT_RE.fullmatch(text):
        raise ParseError(f"bad number: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"coordinate out of the float range: {text!r}")
    return value


def _parse_point(text: str) -> Point:
    body = _call_body(text, "point")
    if body is None:
        raise ParseError(f"expected point(x,y), got {text!r}")
    args = _split_args(body, text)
    if len(args) != 2:
        raise ParseError(f"point takes two coordinates, got {text!r}")
    return Point(_parse_float(args[0]), _parse_float(args[1]))


def _parse_literal(text: str, sort: Sort, vocabulary: Vocabulary | None):
    """The general reader of a literal of `sort`, and of all its errors;
    `undef` is accepted at any sort."""
    text = text.strip()
    if text == "undef":
        return UNDEF
    if sort is ANY:
        return _infer_value(text, vocabulary)
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


def _infer_value(text: str, vocabulary: Vocabulary | None):
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.fullmatch(text):
        return int(text)
    for head, sort in (("point", POINT), ("circle", CIRCLE), ("line", LINE)):
        if text.startswith(head + "("):
            return _parse_literal(text, sort, vocabulary)
    if vocabulary is not None and vocabulary.member_sort(text) is not None:
        return text
    raise ParseError(f"cannot read literal {text!r}")


def _spelled_location(text: str, vocabulary: Vocabulary) -> tuple:
    """The general reader of `name` or `name(literal, ...)`, and of all its
    errors: the location pair `(name, args)` a store is keyed by."""
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
    return name, tuple(_parse_literal(p, s, vocabulary) for p, s in zip(parts, sym.arg_sorts))


def _read_integer(text):
    """Plain ASCII digits go to `int` as they are; any other text is read
    from its matched digits, never whole: `int()` strips another set of
    characters than `str.strip` does, so `int("\x1c-12\x1c")` fails where
    the literal reads as -12."""
    try:
        if text.isdecimal() and text.isascii() and len(text) <= MAX_INT_DIGITS:
            return int(text)
        return int(_INT_TEXT.fullmatch(text)[1])
    except (AttributeError, TypeError):  # not a string, or no match
        pass
    return _parse_literal(text, INTEGER, None)


def _geometry_reader(pattern: str, sort: Sort, make: Callable):
    """The reader of a point, circle or line: a text of `pattern`, one group
    per coordinate, whose coordinates are all finite is read at once; any
    other text goes to `_parse_literal`."""
    match = re.compile(pattern).fullmatch

    def read(text):
        try:
            coords = [*map(float, match(text).groups())]
        except (AttributeError, TypeError):  # not a string, or no match
            pass
        else:
            if all(map(math.isfinite, coords)):
                return make(*coords)
        return _parse_literal(text, sort, None)

    return read


_POINT = rf"point\(({_FLOAT_RE.pattern}),({_FLOAT_RE.pattern})\)"
_read_point = _geometry_reader(_POINT, POINT, Point)
_read_circle = _geometry_reader(rf"circle\({_POINT},{_POINT}\)", CIRCLE,
                                lambda x1, y1, x2, y2: Circle(Point(x1, y1), Point(x2, y2)))
_read_line = _geometry_reader(rf"line\({_POINT},{_POINT}\)", LINE,
                              lambda x1, y1, x2, y2: Line(Point(x1, y1), Point(x2, y2)))


def _table_reader(table: dict, sort: Sort, vocabulary: Vocabulary | None):
    """The reader of a sort whose canonical literals are the keys of `table`."""

    def read(text):
        try:
            return table[text]
        except (KeyError, TypeError):  # not a key, or not hashable
            pass
        return _parse_literal(text, sort, vocabulary)

    return read


_BOOLEANS = {"true": True, "false": False}
_read_boolean = _table_reader(_BOOLEANS, BOOLEAN, None)


def _is_name(text: str) -> bool:
    """Whether `text` is a `NAME`: an ASCII identifier."""
    return text.isascii() and text.isidentifier()


def _plain_members(sort: Sort) -> list[str]:
    """The members the fast readers may read: names other than `undef`, so
    that each reads as itself under the general reader too."""
    return [m for m in sort.members if _is_name(m) and m != "undef"]


def _value_reader(sort: Sort, vocabulary: Vocabulary | None):
    """The one function that reads a literal of `sort` from its text. A
    canonical literal is read at once; any other text (surrounding
    whitespace, `undef`, a malformed literal) goes to `_parse_literal`."""
    if sort is INTEGER:
        return _read_integer
    if sort is BOOLEAN:
        return _read_boolean
    if sort is POINT:
        return _read_point
    if sort is CIRCLE:
        return _read_circle
    if sort is LINE:
        return _read_line
    if sort.is_enum:
        members = _plain_members(sort)
        return _table_reader(dict(zip(members, members)), sort, vocabulary)
    if (builtin := as_builtin(sort)) is not sort:  # equal to a builtin sort, not that object
        return _value_reader(builtin, vocabulary)
    return lambda text: _parse_literal(text, sort, vocabulary)


def parse_value(text: str, sort: Sort, vocabulary: Vocabulary | None = None):
    """Parse one literal of the given sort; `undef` is accepted at any sort."""
    return _value_reader(sort, vocabulary)(text)


def _call(convert, text):
    return convert(text)


# `_Readers.location` finds the symbol of a text by the part before its first
# parenthesis, stripped, so a pattern reads that part as any text without a
# parenthesis; for a symbol of no arguments that is the whole check. (The
# symbol's escaped name in place of `_HEAD` matched `cell(12345)` 20-30 ns
# sooner, but loaded no state file measurably faster.) Inside the
# parentheses, whitespace is any but a newline, which the general reader's
# `(.*)` does not match either. A symbol whose pattern is `_NO_TEXT` has each
# of its texts read by the general reader.
_HEAD = r"[^(]*"
_GAP = r"[^\S\n]*"
_NO_ARGUMENTS = re.compile(_HEAD).fullmatch, lambda m: ()
_NO_TEXT = re.compile(r"(?!)").fullmatch, None


def _argument(sort: Sort):
    """The pattern of a location argument of `sort` and the converter of its
    text, or None for a sort the location patterns do not read."""
    if sort is INTEGER:
        return _INT, int
    if sort is BOOLEAN:
        return "true|false", _BOOLEANS.__getitem__
    members = _plain_members(sort) if sort.is_enum else None
    return ("|".join(members), str) if members else None


def _arguments(converters: tuple) -> Callable:
    """The function from a location match to its argument tuple, converting
    group i by `converters[i]`; a one-argument symbol's, the common case,
    makes no call per argument."""
    if len(converters) == 1:
        convert, = converters
        return lambda m: (convert(m[1]),)
    return lambda m: tuple(map(_call, converters, m.groups()))


def _location_pattern(sym: Symbol) -> tuple:
    """The `fullmatch` of the symbol's location texts, with a group per
    argument, and the function from its match to the arguments."""
    if sym.kind != DYNAMIC or not _is_name(sym.name):
        return _NO_TEXT
    if not sym.arg_sorts:
        return _NO_ARGUMENTS
    arguments = list(map(_argument, sym.arg_sorts))
    if None in arguments:
        return _NO_TEXT
    args = ",".join(f"{_GAP}({arg}){_GAP}" for arg, _ in arguments)
    return (re.compile(rf"{_HEAD}\({args}\)\s*").fullmatch,
            _arguments(tuple(convert for _, convert in arguments)))


class _SymbolReaders(NamedTuple):
    symbol: Symbol
    match: Callable  # the `fullmatch` of the symbol's location pattern
    args: Callable  # from its match to the argument tuple
    read: Callable  # the reader of the result sort
    read_args: tuple  # the reader of each argument sort, for an oracle


class _Readers:
    """The readers of one vocabulary's symbols, each built on first use and
    kept, so every file read under one program shares them. They depend on
    the symbol's signature alone, so a symbol declared later gets its own,
    and a copy of the vocabulary starts with none (see `readers_of`).

    A location text is read by its symbol's pattern, and a text the pattern
    does not match by `_spelled_location`, which reads a text the pattern
    matches alike."""

    __slots__ = ("vocabulary", "symbols")

    def __init__(self, vocabulary: Vocabulary):
        # A proxy, so that the vocabulary, which keeps its readers, forms no
        # reference cycle with them and is freed as soon as it is dropped.
        self.vocabulary = weakref.proxy(vocabulary)
        self.symbols: dict[str, _SymbolReaders] = {}

    def symbol(self, name: str) -> _SymbolReaders | None:
        """The readers of the symbol `name`, None if the vocabulary has none."""
        found = self.symbols.get(name)
        if found is None:
            sym = self.vocabulary.symbol(name)
            if sym is None:
                return None
            read_args = () if sym.kind != ORACLE else tuple(
                _value_reader(s, self.vocabulary) for s in sym.arg_sorts)
            found = self.symbols[name] = _SymbolReaders(
                sym, *_location_pattern(sym), _value_reader(sym.result_sort, self.vocabulary),
                read_args)
        return found

    def location(self, text: str) -> tuple:
        """The entry `(key, read)` of a location text: its location pair and
        the reader of its symbol's result sort."""
        if type(text) is str:
            name = text.partition("(")[0].strip()
            found = self.symbols.get(name) or self.symbol(name)
            m = found and found.match(text)
            if m:
                return (found.symbol.name, found.args(m)), found.read
        key = _spelled_location(text, self.vocabulary)
        return key, self.symbol(key[0]).read


def _read_once(read: Callable) -> Callable:
    """`read`, keeping each text it read and the value, so a text is read
    once; a text that fails is not kept, and fails again wherever it is."""
    values = {}

    def read_once(text):
        try:
            return values[text]
        except (KeyError, TypeError):  # not read yet, or not hashable
            pass
        value = values[text] = read(text)
        return value

    return read_once


class Locations(dict):
    """The location texts of one file, each mapped to its entry `(key, read)`:
    `readers.location(text)` with `read` replaced by `reads.get(read, read)`.
    An entry is built on first use and kept, so a text is read once per
    file; a text that fails is not kept. `reads` maps the point, circle and
    line readers to the file's own copies, which read each literal text once
    too; integer, boolean and enum texts are read afresh, as keeping them
    costs more than reading them. The readers fill the map inline
    (`state_from_bindings`, `read_trace`): a method call per new text costs
    a 20 000-entry state about 3% of its read time."""

    __slots__ = ("readers", "reads")

    def __init__(self, vocabulary: Vocabulary):
        self.readers = readers_of(vocabulary)
        self.reads = {read: _read_once(read) for read in (_read_point, _read_circle, _read_line)}

    def reader(self, read: Callable) -> Callable:
        """The file's reader in place of a sort's reader `read`."""
        return self.reads.get(read, read)


def readers_of(vocabulary: Vocabulary) -> _Readers:
    """The readers of a vocabulary, kept on it. `Vocabulary.copy` builds a
    new vocabulary, which gets readers of its own."""
    found = vars(vocabulary).get("_literal_readers")
    if found is None:
        found = vocabulary._literal_readers = _Readers(vocabulary)
    return found


def parse_location(text: str, vocabulary: Vocabulary) -> tuple:
    """Parse `name` or `name(literal, ...)` against the vocabulary, as the
    location pair `(name, args)` a store is keyed by."""
    return readers_of(vocabulary).location(text)[0]


def load_state(text: str, vocabulary: Vocabulary, source: str = "<state>") -> State:
    """The state a state file binds; an error names the file and the line."""
    lineno = 0

    def bindings():
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            loc_text, sep, lit = raw.partition("#")[0].partition(":=")
            if sep:
                yield loc_text.strip(), lit.strip()
            elif loc_text and not loc_text.isspace():
                raise ParseError("expected `location := literal`")

    try:
        return state_from_bindings(bindings(), vocabulary, Locations(vocabulary), keep=False)
    except ParseError as e:
        raise ParseError(f"{source}: {e.message}", line=lineno, column=1, kind=e.kind) from None


def state_bindings(state: State) -> dict[str, str]:
    """Rendered location -> literal map, sorted by location text."""
    return dict(rendered_bindings(state.store))


def state_from_bindings(bindings: Iterable[tuple[str, str]], vocabulary: Vocabulary,
                        locations: Locations, keep: bool = True) -> State:
    """The state binding each location text to its literal text, in order;
    `undef` leaves its location unbound. Binding one location twice, under
    any spelling and with any values, is an error. `locations` is the file's
    map of location texts, which a trace shares across its rows. With `keep`
    false the map is read but not filled: a state file names each location
    once, and keeping the texts of a 20 000-line file cost about a sixth of
    its load time."""
    store = {}
    cleared = set()  # locations bound to `undef`, which stay out of the store
    get, location, reads = locations.get, locations.readers.location, locations.reads
    for loc_text, lit in bindings:
        entry = get(loc_text)
        if entry is None:
            key, read = location(loc_text)
            entry = key, reads.get(read, read)
            if keep:
                locations[loc_text] = entry
        key, read = entry
        value = read(lit)
        if key in store or key in cleared:
            raise ParseError(f"repeated binding for {render_key(key)}")
        if value is UNDEF:
            cleared.add(key)
        else:
            store[key] = value
    return State(vocabulary, store)
