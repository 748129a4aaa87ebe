"""Vocabularies, values, and states-as-structures.

A vocabulary fixes the typed function symbols a program may use: a predeclared
static core (integer arithmetic, comparisons, boolean connectives, and the
plane-geometry constructors), plus per-program dynamic and oracle symbols and
enum sorts. A state interprets the dynamic symbols over the builtin carriers
and the finite enum universes; static symbols are interpreted once and for all
by the table below, and oracle symbols are answered by a session at evaluation
time. An enum member is its name, a plain `str`: no name in a vocabulary
stands for two things, so a member name alone tells its sort.

`undef` is a value of every sort. Reading an absent location yields `undef`,
writing `undef` removes the location again, and `undef` compares equal only to
itself. Static functions other than equality are strict: any `undef` argument
gives an `undef` result, except that the boolean connectives use the usual
three-valued reading (false absorbs `and`, true absorbs `or`).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Callable, Iterable

from . import geometry
from .errors import BasmError, ParseError
from .geometry import Circle, Line, Point

STATIC = "static"
DYNAMIC = "dynamic"
ORACLE = "oracle"


@dataclass(frozen=True)
class Sort:
    """A builtin sort, or an enum sort whose `members` name its finite universe."""

    name: str
    members: tuple[str, ...] | None = None

    @property
    def is_enum(self) -> bool:
        return self.members is not None


INTEGER = Sort("Integer")
BOOLEAN = Sort("Boolean")
POINT = Sort("Point")
CIRCLE = Sort("Circle")
LINE = Sort("Line")
# Internal sort of the polymorphic equality operators and the undef literal.
ANY = Sort("Any")

BUILTIN_SORTS = {s.name: s for s in (INTEGER, BOOLEAN, POINT, CIRCLE, LINE)}


class _Undef:
    """The one `undef` value. It absorbs the integer operators the generated
    kernel writes inline: `+`, `-`, `*`, `%`, `abs` and the four orderings,
    with `undef` on either side, give `undef` itself, so a strict integer
    operator needs no undef test of its own. `undef` is truthy, so the bound
    test `abs(t) < B` passes it through, and it equals only itself."""

    def __repr__(self):
        return "undef"

    def _absorb(self, other=None):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _absorb
    __mod__ = __rmod__ = __lt__ = __le__ = __gt__ = __ge__ = __abs__ = _absorb


UNDEF = _Undef()


def value_conforms(value, sort: Sort) -> bool:
    """Whether a value belongs to a sort; an enum value is one of its members' names."""
    if value is UNDEF or sort is ANY:
        return True
    if sort is BOOLEAN:
        return isinstance(value, bool)
    if sort is INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    if sort is POINT:
        return type(value) is Point
    if sort is CIRCLE:
        return type(value) is Circle
    if sort is LINE:
        return type(value) is Line
    if sort.is_enum:
        return isinstance(value, str) and value in sort.members
    return False


def values_equal(a, b) -> bool:
    """The program's own value equality, for `=`, `!=`, clashes and
    `changes_nothing`: geometry payloads compare within the kernel EPS.
    States and update sets compare their values exactly, with `==`."""
    if a is UNDEF or b is UNDEF:
        return a is UNDEF and b is UNDEF
    kind = type(a)
    if kind is not type(b):  # so a circle never equals a line through the same points
        return False
    if kind is Point:
        return geometry.points_close(a, b)
    if kind is Circle or kind is Line:  # two points each, compared point by point
        return all(map(geometry.points_close, a, b))
    return a == b


def render_value(value) -> str:
    """The literal text of a value; floats render by `repr`, so they read back exactly."""
    if value is UNDEF:
        return "undef"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    kind = type(value)
    if kind is Point:
        return f"point({float(value.x)!r},{float(value.y)!r})"
    if kind is Circle:
        return f"circle({render_value(value.center)},{render_value(value.through)})"
    if kind is Line:
        return f"line({render_value(value.p1)},{render_value(value.p2)})"
    if isinstance(value, str):  # an enum member
        return value
    raise BasmError("sort", f"not a value: {value!r}")


@dataclass(frozen=True)
class Symbol:
    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort
    kind: str  # static | dynamic | oracle

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


# --- predeclared static core -------------------------------------------------

# The most decimal digits an integer may have. Integer literals are read up to
# this bound (state files, traces, scripts, answers and program text), and
# `+`, `-` and `*` fail with kind `arith` on a result past it, so every integer
# a run holds can be written and read back. Python's `int()` and `str()`
# refuse more digits than their `int_max_str_digits` setting, which is 4300 by
# default and never below 640, so an integer within this bound always converts.
MAX_INT_DIGITS = 640
_INT_BOUND = 10**MAX_INT_DIGITS


def _too_long():
    raise BasmError("arith", f"integer result of more than {MAX_INT_DIGITS} digits")


def _bounded(op: Callable) -> Callable:
    """The integer operator `op`, failing with `arith` on a result past the bound."""
    def bounded(a, b):
        r = op(a, b)
        return r if -_INT_BOUND < r < _INT_BOUND else _too_long()
    return bounded


def _mod_by_zero():
    raise BasmError("arith", "mod by zero")


def _mod(a, b):
    if b == 0:
        _mod_by_zero()
    return a % b


def _powmod(a, e, m):
    if m == 0:
        raise BasmError("arith", "powmod with zero modulus")
    if e < 0:
        raise BasmError("arith", "powmod with negative exponent")
    return pow(a, e, m)


def _and(a, b):
    if a is False or b is False:
        return False
    if a is UNDEF or b is UNDEF:
        return UNDEF
    return True


def _or(a, b):
    if a is True or b is True:
        return True
    if a is UNDEF or b is UNDEF:
        return UNDEF
    return False


def _not(a):
    return UNDEF if a is UNDEF else not a


# (name, arg sorts, result sort, implementation, strict-on-undef)
_STATIC_DEFS = [
    ("+", (INTEGER, INTEGER), INTEGER, _bounded(operator.add), True),
    ("-", (INTEGER, INTEGER), INTEGER, _bounded(operator.sub), True),
    ("*", (INTEGER, INTEGER), INTEGER, _bounded(operator.mul), True),
    ("mod", (INTEGER, INTEGER), INTEGER, _mod, True),
    ("powmod", (INTEGER, INTEGER, INTEGER), INTEGER, _powmod, True),
    ("<", (INTEGER, INTEGER), BOOLEAN, operator.lt, True),
    ("<=", (INTEGER, INTEGER), BOOLEAN, operator.le, True),
    (">", (INTEGER, INTEGER), BOOLEAN, operator.gt, True),
    (">=", (INTEGER, INTEGER), BOOLEAN, operator.ge, True),
    ("=", (ANY, ANY), BOOLEAN, values_equal, False),
    ("!=", (ANY, ANY), BOOLEAN, lambda a, b: not values_equal(a, b), False),
    ("and", (BOOLEAN, BOOLEAN), BOOLEAN, _and, False),
    ("or", (BOOLEAN, BOOLEAN), BOOLEAN, _or, False),
    ("not", (BOOLEAN,), BOOLEAN, _not, False),
    ("Cl", (POINT, POINT), CIRCLE, geometry.circle_through, True),
    ("L", (POINT, POINT), LINE, geometry.line_through, True),
    ("M", (POINT, POINT), POINT, geometry.midpoint, True),
    ("Inc", (POINT, CIRCLE), BOOLEAN, geometry.incident, True),
]

STATIC_SYMBOLS: dict[str, Symbol] = {
    name: Symbol(name, args, res, STATIC) for name, args, res, _fn, _strict in _STATIC_DEFS
}
STATIC_IMPL: dict[str, tuple[Callable, bool]] = {
    name: (fn, strict) for name, _args, _res, fn, strict in _STATIC_DEFS
}


class Vocabulary:
    """Symbol table for one program.

    Built once while declarations are loaded, then used read-only. Any name in
    `oracle_statics` reclassifies that predeclared static symbol as an oracle:
    it keeps its signature, but evaluation routes it through the session (so it
    is logged, cached per step, and forbidden in implicit-iteration programs).
    """

    def __init__(self, oracle_statics: Iterable[str] = ()):
        self.sorts: dict[str, Sort] = dict(BUILTIN_SORTS)
        self.symbols: dict[str, Symbol] = {}
        self.declarations: list[tuple[str, object]] = []
        self.oracle_statics = frozenset(oracle_statics)
        unknown = self.oracle_statics - set(STATIC_SYMBOLS)
        if unknown:  # a load-time error, like every other sort error: exit 2
            raise ParseError(
                "cannot reclassify unknown static: " + ", ".join(sorted(unknown)), kind="sort"
            )
        for name, sym in STATIC_SYMBOLS.items():
            if name in self.oracle_statics:
                sym = Symbol(sym.name, sym.arg_sorts, sym.result_sort, ORACLE)
            self.symbols[name] = sym
        self._members: dict[str, Sort] = {}  # each enum member's sort

    def _check_fresh(self, name: str):
        if name in self.sorts:
            raise BasmError("sort", f"name already used by a sort: {name}")
        if name in self.symbols:
            raise BasmError("sort", f"symbol already declared: {name}")
        if name in self._members:
            raise BasmError("sort", f"name already used by an enum member: {name}")

    def declare_enum(self, name: str, members: Iterable[str]) -> Sort:
        self._check_fresh(name)
        sort = Sort(name, tuple(members))
        if not sort.members:
            raise BasmError("sort", f"enum sort {name} needs at least one member")
        if len(set(sort.members)) != len(sort.members):
            raise BasmError("sort", f"enum sort {name} repeats a member")
        for m in sort.members:
            if m in self.symbols or m in self._members or m in self.sorts:
                raise BasmError("sort", f"enum member name already in use: {m}")
        self.sorts[name] = sort
        self._members.update(dict.fromkeys(sort.members, sort))
        self.declarations.append(("enum", sort))
        return sort

    def declare(self, name: str, arg_sorts: Iterable[Sort], result_sort: Sort, kind: str) -> Symbol:
        if kind not in (DYNAMIC, ORACLE):
            raise BasmError("sort", f"cannot declare symbol of kind {kind}")
        self._check_fresh(name)
        sym = Symbol(name, tuple(arg_sorts), result_sort, kind)
        self.symbols[name] = sym
        self.declarations.append(("var" if kind == DYNAMIC else "oracle", sym))
        return sym

    def redeclare_static(self, name: str, arg_sorts: Iterable[Sort], result_sort: Sort) -> Symbol:
        """Record an explicit mention of a predeclared static; the signature must match."""
        base = STATIC_SYMBOLS.get(name)
        if base is None:
            raise BasmError("sort", f"unknown static symbol: {name}")
        if base.arg_sorts != tuple(arg_sorts) or base.result_sort is not result_sort:
            raise BasmError("sort", f"static {name} redeclared with a different signature")
        sym = self.symbols[name]
        self.declarations.append(("static", sym))
        return sym

    def sort(self, name: str) -> Sort:
        try:
            return self.sorts[name]
        except KeyError:
            raise BasmError("sort", f"unknown sort: {name}") from None

    def symbol(self, name: str) -> Symbol | None:
        return self.symbols.get(name)

    def member_sort(self, name: str) -> Sort | None:
        """The enum sort that has `name` as a member, if any."""
        return self._members.get(name)

    def copy(self) -> "Vocabulary":
        clone = Vocabulary(self.oracle_statics)
        clone.sorts = dict(self.sorts)
        clone.symbols = dict(self.symbols)
        clone.declarations = list(self.declarations)
        clone._members = dict(self._members)
        return clone

    def __eq__(self, other):
        return (
            isinstance(other, Vocabulary)
            and self.sorts == other.sorts
            and self.symbols == other.symbols
            and self.declarations == other.declarations
        )

    def __repr__(self):  # each declaration holds a named sort or symbol
        return f"Vocabulary({', '.join(d[1].name for d in self.declarations)})"


def render_key(key) -> str:
    """The text of a location pair `(name, args)`: `name` or `name(literal, ...)`.
    An argument whose type is exactly `int` is spelled inline, with no call,
    as `render_value` spells it; a bool, an `int` too, takes `render_value`."""
    name, args = key
    if not args:
        return name
    spelled = []
    for a in args:
        spelled.append(f"{a}" if type(a) is int else render_value(a))
    return f"{name}({','.join(spelled)})"


class Location(tuple):
    """A symbol applied to evaluated arguments. With a dynamic symbol it names
    a place in the state; with an oracle symbol it is a query.

    It is the pair `(symbol name, args)` that keys a store and an update set,
    and it also carries its `symbol`. To a dict it is that plain tuple,
    hashed and compared in C, so `State.read` and `UpdateSet.add` take it as
    they take the pair; the kernel, stores and update sets hold plain pairs."""

    args = property(operator.itemgetter(1))
    render = __repr__ = render_key

    def __new__(cls, symbol: Symbol, args: tuple):
        loc = tuple.__new__(cls, (symbol.name, args))
        loc.symbol = symbol
        return loc


def clash(key: tuple, present, value) -> None:
    """Fail with "clash" unless a second write of `value` to `key`, where
    `present` is already written, agrees with it."""
    if not values_equal(present, value):
        raise BasmError("clash", f"clash at {render_key(key)}")


class UpdateSet(dict):
    """A consistent set of updates: a dict from location pairs `(name, args)`
    to values, in the order they were added. `add` raises "clash" on a
    second, different value for one location; the generated rule does the
    same with the dict's own `setdefault`."""

    __slots__ = ()

    def add(self, key: tuple, value):
        present = self.setdefault(key, value)
        if present is not value:
            clash(key, present, value)

    def __repr__(self):
        return "{" + ", ".join(f"{loc}:={v}" for loc, v in rendered_bindings(self)) + "}"


def rendered_bindings(bindings) -> list[tuple[str, str]]:
    """The (location text, literal text) pairs of a store or an update set,
    sorted by location text: the order traces and reprs use. As in
    `render_key`, a value whose type is exactly `int` is spelled inline, and
    any other value by `render_value`."""
    pairs = [(render_key(key), f"{v}" if type(v) is int else render_value(v))
             for key, v in bindings.items()]
    pairs.sort()
    return pairs


class _Bindings(Mapping):
    """A state's store as a read-only mapping keyed by `Location`s; nothing is copied."""

    __slots__ = ("_state",)

    def __init__(self, state: "State"):
        self._state = state

    def __getitem__(self, location):
        return self._state.store[location]

    def __iter__(self):
        symbols = self._state.vocabulary.symbols
        return (Location(symbols[name], args) for name, args in self._state.store)

    def __len__(self):
        return len(self._state.store)


class State:
    """Immutable snapshot: a vocabulary plus a finite interpretation of dynamic
    locations, held as one flat `store` dict from location pairs `(name, args)`
    to values; `interp` views it keyed by `Location`s.

    The one exception is the state a run steps through: the run commits each
    update set into its store in place, and hands it out only as the trace's
    final state, once the run is over.

    A state trusts its store: the mapping is kept as given, neither copied
    nor checked, and must hold no `undef`. Values are checked where they enter
    (the literal reader, oracle answers, corpus overrides); a parsed program's
    updates conform by its sort check.
    """

    __slots__ = ("vocabulary", "store")

    def __init__(self, vocabulary: Vocabulary, store: dict[tuple, object]):
        self.vocabulary = vocabulary
        self.store = store

    @property
    def interp(self) -> Mapping:
        return _Bindings(self)

    def read(self, location: tuple):
        return self.store.get(location, UNDEF)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        # Most states compared share one vocabulary object; its `__eq__`
        # compares every symbol.
        return ((self.vocabulary is other.vocabulary or self.vocabulary == other.vocabulary)
                and self.store == other.store)

    def __repr__(self):
        return "State(" + ", ".join(f"{loc}={v}" for loc, v in rendered_bindings(self.store)) + ")"


def commit(store: dict, updates: UpdateSet) -> None:
    """Write the updates into a store in place, under the update set's own
    keys; `undef` writes clear their locations."""
    for key, value in updates.items():
        if value is UNDEF:
            store.pop(key, None)
        else:
            store[key] = value


def apply_updates(state: State, updates: UpdateSet) -> State:
    """A fresh state with the updates applied; `state` is left as it was."""
    store = dict(state.store)
    commit(store, updates)
    return State(state.vocabulary, store)


def changes_nothing(state: State, updates: UpdateSet) -> bool:
    get = state.store.get
    return all(values_equal(get(key, UNDEF), value) for key, value in updates.items())


class Renaming(dict):
    """An enum-member renaming as its member table: a dict from each moved
    member to its image. Only members are keys, so `get(v, v)` moves any
    value in C: integers, booleans, geometry values, `undef` and refused
    answers pass through. Called, it moves a value or a location pair, whose
    arguments it moves."""

    __slots__ = ()

    def __call__(self, value):
        kind = type(value)
        if kind is tuple or kind is Location:  # a location pair; a geometry value is a tuple too
            get, args = self.get, value[1]
            return value[0], tuple(map(get, args, args))
        return self.get(value, value)

    def bindings(self, bindings: Mapping) -> dict:
        """A store or an update set with every location and value moved, as
        a dict in the same order; a bijection moves no two keys onto one."""
        get = self.get
        return {(name, tuple(map(get, args, args))): get(v, v)
                for (name, args), v in bindings.items()}


def renaming(vocabulary: Vocabulary, bijection: Mapping[str, Mapping[str, str]]) -> Renaming:
    """The member table of an enum-member renaming, checked against the
    vocabulary (see `Renaming`).

    `bijection` maps enum sort names to total member-to-member bijections.
    Sorts not mentioned are left alone; builtin sorts cannot be moved. A
    vocabulary gives each member name one sort, so the bijections merge into
    one member table.
    """
    table = Renaming()
    for sort_name, perm in bijection.items():
        sort = vocabulary.sorts.get(sort_name)
        if sort is None:
            raise BasmError("iso", f"unknown sort in bijection: {sort_name}")
        if not sort.is_enum:
            raise BasmError("unsupported-iso", f"bijection touches builtin sort {sort_name}")
        members = set(sort.members)
        if perm.keys() != members or set(perm.values()) != members:
            raise BasmError("iso", f"map on {sort_name} is not a bijection of its universe")
        table.update(perm)
    return table


def transport(state: State, bijection: Mapping[str, Mapping[str, str]]) -> State:
    """Rename enum universe members throughout a state (see `renaming`)."""
    return _moved(state, renaming(state.vocabulary, bijection))


def _moved(state: State, move: Renaming) -> State:
    """The state with `move`, a `renaming`, applied to every key and value."""
    return State(state.vocabulary, move.bindings(state.store))
