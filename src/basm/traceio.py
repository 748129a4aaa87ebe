"""Trace and script files.

A trace is JSON-lines with a fixed field order so equal runs give equal bytes:

  {"programId": "...", "initialState": {"a": "12", "b": "8"}}
  {"index": 0, "updates": [{"loc": "a", "value": "8"}], "interactions": [], "halted": false}
  ...
  {"outcome": "halted", "finalState": {"a": "4", "b": "0", "d": "4"}}

A step's updates are sorted by rendered location when the trace is written
(an update set itself keeps no order); state maps are sorted by key; all
values use the shared literal syntax. A step row's "halted" mark is written
from the outcome, true on the last step of a halted run and false on every
other step; a trace read back with any other marks is refused, and so is a
step row that lists one location twice, under any spelling and whatever the
two values. An error outcome carries the error kind:
{"outcome": "error", "error": "clash", "finalState": ...}. Rows are written
directly in `json.dumps`'s default spelling, with no dict built per row:
", " and ": " separators, each string through `json`'s own ASCII escaper.
Integers, most of the values, are the exception: a value or location
argument whose type is exactly `int` is spelled inline between quotes, with
no call, since a decimal's digits and sign need no JSON escape (a bool is an
`int` too, and takes `render_value`, which spells it true or false). Each
row and each map builds one list of (location text, JSON text) pairs and
sorts it once; under any vocabulary a program declares, the location texts
of one update set or store are distinct, so this is the order by location
text.

A script file is JSON-lines too, one {"oracle", "args", "answer"} object per
line, which is exactly the shape of a trace's interaction records; in
"by-symbol" mode "args" may be null. A trace is accepted as a script: its step
rows give their interactions in order, and its header and outcome rows give none.
A query the policy refused is spelled {"oracle", "args", "refused": kind},
where "refused" takes the place of "answer" and names one of
`oracles.REFUSALS`; an error outcome's kind is one of `errors.KINDS`.

Reading a file decodes each row with the C scanner `json.loads` runs, called
directly; a line it does not read whole goes to `json.loads` itself. A file
reads each repeated text once: it keeps its location texts, point, circle
and line literal texts (`literals.Locations`), oracle names and oracle
argument lists, each mapped to what it read, and only what read without
error. Integer, boolean and enum values are read afresh. Points, circles,
lines and interactions are tuples (see `geometry`).
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Optional, TextIO

from .errors import KINDS, BasmError, ParseError
from .literals import Locations, _call, state_from_bindings
from .oracles import REFUSALS, Interaction, Refused, ScriptedPolicy
from .semantics import Outcome, StepRecord, Trace
from .state import ORACLE, UpdateSet, Vocabulary, render_key, render_value
from .syntax import Program


def _interaction_text(i: Interaction) -> str:
    args = ", ".join([f'"{a}"' if type(a) is int else _quote(render_value(a)) for a in i.args])
    answer = i.answer
    if type(answer) is int:
        field = f'"answer": "{answer}"'
    elif type(answer) is Refused:
        field = f'"refused": {_quote(answer.kind)}'
    else:
        field = f'"answer": {_quote(render_value(answer))}'
    return f'{{"oracle": {_quote(i.oracle)}, "args": [{args}], {field}}}'


def trace_lines(trace: Trace) -> list[str]:
    texts: dict = {}  # location pair -> (its text, that text as a JSON string)
    known = texts.get

    def located(key) -> tuple[str, str]:
        text = render_key(key)
        texts[key] = pair = text, _quote(text)
        return pair

    def map_text(store) -> str:
        """A store as a JSON object, sorted by location text."""
        entries = [(loc, f'{q}: "{v}"' if type(v) is int else f"{q}: {_quote(render_value(v))}")
                   for key, v in store.items() for loc, q in (known(key) or located(key),)]
        entries.sort()
        return "{" + ", ".join([entry for _, entry in entries]) + "}"

    lines = [f'{{"programId": {_quote(trace.program_id)}, '
             f'"initialState": {map_text(trace.initial_state.store)}}}']
    # The last step of a halted run is marked halted, and no other.
    halted = len(trace.steps) - 1 if trace.outcome.kind == "halted" else -1
    for index, record in enumerate(trace.steps):
        updates = [(loc, f'{{"loc": {q}, "value": "{v}"}}' if type(v) is int
                    else f'{{"loc": {q}, "value": {_quote(render_value(v))}}}')
                   for key, v in record.updates.items() for loc, q in (known(key) or located(key),)]
        updates.sort()
        asked = record.interactions
        lines.append(f'{{"index": {index}, "updates": [{", ".join([u for _, u in updates])}], '
                     f'"interactions": [{", ".join(map(_interaction_text, asked)) if asked else ""}], '
                     f'"halted": {"true" if index == halted else "false"}}}')
    error = "" if trace.outcome.error is None else f'"error": {_quote(trace.outcome.error)}, '
    lines.append(f'{{"outcome": {_quote(trace.outcome.kind)}, {error}"finalState": '
                 f'{map_text(trace.final_state.store)}}}')
    return lines


def write_trace(trace: Trace, fp: TextIO):
    for line in trace_lines(trace):
        fp.write(line + "\n")


def render_trace(trace: Trace) -> str:
    return "\n".join(trace_lines(trace)) + "\n"


def _interaction_reader(locations: Locations, by_symbol: bool = False) -> Callable:
    """The reader of one file's interaction objects, with the file's
    `locations` readers. Each oracle name is looked up and checked once per
    file, and each list of argument texts of an oracle is read once, kept
    only after its count is checked; a name or list that fails is not kept,
    so it fails on every row that holds it. With `by_symbol` the args, which
    may then be null, become None and match any arguments."""
    oracles, known = {}, {}  # name -> its checked readers; (name, *texts) -> args

    def oracle(name):
        found = locations.readers.symbol(name)
        if found is None:
            raise ParseError(f"unknown oracle in trace: {name}", kind="sort")
        sym = found.symbol
        if sym.kind != ORACLE:
            raise ParseError(f"not an oracle symbol: {sym.name}", kind="sort")
        entry = oracles[name] = (sym, locations.reader(found.read),
                                 tuple(map(locations.reader, found.read_args)))
        return entry

    def read(obj) -> Interaction:
        name = obj["oracle"]
        sym, read_answer, read_args = oracles.get(name) or oracle(name)
        if "refused" not in obj:
            answer = read_answer(obj["answer"])
        elif "answer" in obj:
            raise ValueError("an interaction holds both an answer and a refusal")
        elif obj["refused"] not in REFUSALS:
            raise ValueError(f"unknown refusal kind {obj['refused']!r}")
        else:
            answer = Refused(obj["refused"])
        texts = obj["args"]
        if by_symbol and texts is None:
            return Interaction(sym.name, None, answer)
        if type(texts) is not list:  # a string or an object would unpack into a key
            raise ValueError("an interaction's args must be a list")
        key = (name, *texts)
        try:
            args = known[key]
        except (KeyError, TypeError):  # not read yet, or a text that is no string
            args = tuple(map(_call, read_args, texts))
            if len(texts) != sym.arity:
                raise ParseError(f"arity mismatch in trace interaction for {sym.name}", kind="sort")
            known[key] = args
        return Interaction(sym.name, None if by_symbol else args, answer)

    return read


# The C scanner `json.loads` itself runs; called directly, it skips the
# wrappers around it on every row.
_scan = json.JSONDecoder().scan_once


def _json(line: str):
    """The JSON value of a row. A line the scanner rejects or does not read
    to its end (surrounding whitespace, a BOM, two values, bad JSON) goes to
    `json.loads`, which reads it as it always has or raises its own error."""
    try:
        value, end = _scan(line, 0)
    except (StopIteration, ValueError, TypeError, RecursionError):
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


# The JSON type of each field a trace or script row may hold, and of the
# items of an array or the values of a state map.
_FIELDS = {"programId": (str, None), "initialState": (dict, str), "index": (int, None),
           "updates": (list, dict), "loc": (str, None), "value": (str, None),
           "interactions": (list, dict), "halted": (bool, None), "oracle": (str, None),
           "args": (list, str), "answer": (str, None), "refused": (str, None),
           "outcome": (str, None), "error": (str, None), "finalState": (dict, str)}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _misfit(row) -> Optional[str]:
    """Why a decoded row that failed with a Python type error is malformed:
    it is no object, or the first field in it, depth first, holds a JSON type
    other than its own (`_FIELDS`); None if neither. A null "args", as a
    by-symbol script holds, fits; the reader refuses it elsewhere."""
    if type(row) is not dict:
        return "expected a JSON object"
    for name, value in row.items():
        own, inner = _FIELDS.get(name, (None, None))
        if own is None or value is None and name == "args":
            continue
        if type(value) is not own:
            return f'"{name}" is {_JSON_TYPES[type(value)]}, not {_JSON_TYPES[own]}'
        for item in value.values() if own is dict else value if own is list else ():
            if type(item) is not inner:
                return f'"{name}" holds {_JSON_TYPES[type(item)]}, not {_JSON_TYPES[inner]}'
            if inner is dict and (found := _misfit(item)):
                return found
    return None


class _RowGuard:
    """Inside the block, a malformed row raises ParseError at line `lineno`,
    which the parser keeps current, as it keeps `row`, the row as decoded:
    bad JSON or JSON nested too deep to decode as the decoder says, a
    missing field by its name, an ill-typed one by `_misfit`, and what the
    reader itself refuses by its own message. A bad literal or location text
    in the row is reported at that line too, with its own kind."""

    def __init__(self, what: str):
        self.what = what
        self.lineno = 0
        self.row = None

    def __enter__(self):
        return self

    def __exit__(self, kind, e, tb):
        if isinstance(e, ParseError) and e.line is None:
            raise ParseError(e.message, line=self.lineno, column=1, kind=e.kind) from None
        if isinstance(e, KeyError):
            e = f'missing field "{e.args[0]}"'
        elif isinstance(e, (TypeError, AttributeError)):
            e = _misfit(self.row) or e
        elif not isinstance(e, (ValueError, RecursionError)):
            return False
        raise ParseError(f"bad {self.what} line: {e}", line=self.lineno, column=1) from None


def read_trace(lines: Iterable[str], program: Program) -> Trace:
    """The trace of a run of `program`; a trace whose header names another
    program is refused before any row is read (`program-id`)."""
    rows = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]
    if len(rows) < 2:
        raise ParseError("not a trace: expected a header line and a final outcome line")
    vocab = program.vocabulary
    locations = Locations(vocab)
    get, location, reads = locations.get, locations.readers.location, locations.reads
    interaction = _interaction_reader(locations)
    steps = []
    with _RowGuard("trace") as guard:
        guard.lineno, line = rows[0]
        header = guard.row = _json(line)
        program_id = header["programId"]
        if program_id != program.program_id:
            raise BasmError("program-id", "trace was not produced by this program")
        initial = state_from_bindings(header["initialState"].items(), vocab, locations)
        last = rows[-2][0]  # the line of the last step row, if there is one
        for guard.lineno, line in rows[1:-1]:
            row = guard.row = _json(line)
            updates = UpdateSet()
            for u in row["updates"]:
                text, lit = u["loc"], u["value"]
                entry = get(text)
                if entry is None:
                    key, read = location(text)
                    entry = locations[text] = key, reads.get(read, read)
                key, read = entry
                updates[key] = read(lit)
            if len(updates) != len(row["updates"]):
                keys = [get(u["loc"])[0] for u in row["updates"]]
                twice = next(key for n, key in enumerate(keys) if key in keys[:n])
                raise ValueError(f"repeated update for {render_key(twice)}")
            interactions = tuple(map(interaction, row["interactions"]))
            index, halted = row["index"], row["halted"]
            if type(index) is not int or index != len(steps) or type(halted) is not bool:
                raise ValueError(f"expected index {len(steps)} and a true or false halted")
            if halted and guard.lineno != last:
                raise ValueError("a step before the last is marked halted")
            steps.append(StepRecord(updates, interactions))
        guard.lineno, line = rows[-1]
        final = guard.row = _json(line)
        outcome = Outcome(final["outcome"], final.get("error"))
        if outcome.kind not in ("halted", "step-limit", "error"):
            raise ValueError(f"unknown outcome {outcome.kind!r}")
        kind_given = type(outcome.error) is str
        if kind_given != (outcome.kind == "error") or kind_given != ("error" in final):
            raise ValueError("expected an error kind string exactly when the outcome is error")
        if kind_given and outcome.error not in KINDS:
            raise ValueError(f"unknown error kind {outcome.error!r}")
        if steps and halted != (outcome.kind == "halted"):
            guard.lineno = last
            raise ValueError(f"the last step is {'' if halted else 'not '}marked halted, "
                             f"but the outcome is {outcome.kind}")
        final_state = state_from_bindings(final["finalState"].items(), vocab, locations)
    return Trace(program_id, initial, steps, final_state, outcome)


def script_lines(trace: Trace) -> list[str]:
    """A script replaying the trace's interactions, in order."""
    return [_interaction_text(i) for record in trace.steps for i in record.interactions]


def load_script(lines: Iterable[str], vocabulary: Vocabulary, mode: str = "strict") -> ScriptedPolicy:
    """A script file (or a trace) as a scripted policy. In "by-symbol" mode
    every entry matches its oracle with any arguments."""
    if mode not in ("strict", "by-symbol"):
        raise BasmError("script", f"unknown script mode: {mode}")
    entries = []
    interaction = _interaction_reader(Locations(vocabulary), mode == "by-symbol")
    with _RowGuard("script") as guard:
        for guard.lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            row = guard.row = _json(line)
            if type(row) is not dict:
                raise ValueError("expected a JSON object")
            if "programId" in row or "outcome" in row:
                continue
            entries.extend(map(interaction, row["interactions"] if "interactions" in row else [row]))
    return ScriptedPolicy(entries)
