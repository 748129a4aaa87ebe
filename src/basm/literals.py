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
"""
from __future__ import annotations

import math
import re
from typing import Iterable

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
    POINT,
    UNDEF,
    Sort,
    State,
    Vocabulary,
    render_key,
    render_value,
    rendered_bindings,
)

# A name and an unsigned number, spelled the same in program text, which
# `syntax.tokenize` reads with these patterns, and in the literals read here.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"

_INT_RE = re.compile(rf"[-+]?[0-9]{{1,{MAX_INT_DIGITS}}}")
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


def parse_value(text: str, sort: Sort, vocabulary: Vocabulary | None = None):
    """Parse one literal of the given sort; `undef` is accepted at any sort."""
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
            return parse_value(text, sort, vocabulary)
    if vocabulary is not None and vocabulary.member_sort(text) is not None:
        return text
    raise ParseError(f"cannot read literal {text!r}")


def parse_location(text: str, vocabulary: Vocabulary) -> tuple:
    """Parse `name` or `name(literal, ...)` against the vocabulary, as the
    location pair `(name, args)` a store is keyed by."""
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
    return name, tuple(parse_value(p, s, vocabulary) for p, s in zip(parts, sym.arg_sorts))


def load_state(text: str, vocabulary: Vocabulary, source: str = "<state>") -> State:
    """The state a state file binds; an error names the file and the line."""
    lineno = 0

    def bindings():
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                if ":=" not in line:
                    raise ParseError("expected `location := literal`")
                yield line.split(":=", 1)

    try:
        return state_from_bindings(bindings(), vocabulary, {})
    except ParseError as e:
        raise ParseError(f"{source}: {e.message}", line=lineno, column=1, kind=e.kind) from None


def state_bindings(state: State, texts: dict | None = None) -> dict[str, str]:
    """Rendered location -> literal map, sorted by location text (`texts` as
    in `rendered_bindings`)."""
    return dict(rendered_bindings(state.store, texts))


def parse_binding(loc_text: str, lit: str, vocabulary: Vocabulary,
                  locations: dict) -> tuple[tuple, object]:
    """A location text and its literal text, read at the location's sort.
    `locations` maps each location text already read to its location pair,
    so a text is parsed once per map; only texts that parse are kept in it."""
    key = locations.get(loc_text)
    if key is None:
        key = locations[loc_text] = parse_location(loc_text, vocabulary)
    return key, parse_value(lit, vocabulary.symbols[key[0]].result_sort, vocabulary)


def state_from_bindings(bindings: Iterable[tuple[str, str]], vocabulary: Vocabulary,
                        locations: dict) -> State:
    """The state binding each location text to its literal text, in order;
    `undef` leaves its location unbound. Binding one location twice, under
    any spelling and with any values, is an error. `locations` is the map of
    location texts read so far (see `parse_binding`); a trace shares one
    across its rows."""
    store = {}
    cleared = set()  # locations bound to `undef`, which stay out of the store
    for loc_text, lit in bindings:
        key, value = parse_binding(loc_text, lit, vocabulary, locations)
        if key in store or key in cleared:
            raise ParseError(f"repeated binding for {render_key(key)}")
        if value is UNDEF:
            cleared.add(key)
        else:
            store[key] = value
    return State(vocabulary, store)
