"""Values, vocabularies, states, update sets, and universe renaming."""
import ast
import inspect
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basm import checks, literals, state
from basm.errors import BasmError, ParseError
from basm.geometry import Circle, Line, Point
from basm.literals import load_state
from basm.oracles import BuiltinPolicy, Interaction, Refused
from basm.semantics import Outcome, StepRecord, Trace, replay_divergence, run
from basm.state import (
    BOOLEAN,
    CIRCLE,
    INTEGER,
    LINE,
    MAX_INT_DIGITS,
    STATIC,
    STATIC_IMPL,
    POINT,
    UNDEF,
    Location,
    Sort,
    State,
    UpdateSet,
    Vocabulary,
    apply_updates,
    changes_nothing,
    render_value,
    renaming,
    transport,
    value_conforms,
    values_equal,
)
from basm.syntax import parse_program
from basm.traceio import trace_lines

T, F, U = True, False, UNDEF

# Hand-written three-valued truth tables (strong Kleene).
AND_TABLE = {
    (T, T): T, (T, F): F, (T, U): U,
    (F, T): F, (F, F): F, (F, U): F,
    (U, T): U, (U, F): F, (U, U): U,
}
OR_TABLE = {
    (T, T): T, (T, F): T, (T, U): T,
    (F, T): T, (F, F): F, (F, U): U,
    (U, T): T, (U, F): U, (U, U): U,
}
NOT_TABLE = {T: F, F: T, U: U}


def _impl(name):
    return STATIC_IMPL[name][0]


def test_kleene_and_or_not_tables():
    for args, want in AND_TABLE.items():
        assert _impl("and")(*args) is want, f"and{args}"
    for args, want in OR_TABLE.items():
        assert _impl("or")(*args) is want, f"or{args}"
    for arg, want in NOT_TABLE.items():
        assert _impl("not")(arg) is want, f"not({arg})"


def test_equality_is_total_on_undef():
    eq = _impl("=")
    ne = _impl("!=")
    assert eq(U, U) is True
    assert eq(U, 1) is False
    assert ne(U, 1) is True
    assert ne(U, U) is False


def test_mod_and_powmod():
    assert _impl("mod")(12, 8) == 4
    assert _impl("mod")(-7, 3) == 2  # result carries the modulus sign
    assert _impl("powmod")(2, 8, 9) == 4  # 256 = 28*9 + 4
    with pytest.raises(BasmError) as e:
        _impl("mod")(1, 0)
    assert e.value.kind == "arith"
    with pytest.raises(BasmError) as e:
        _impl("powmod")(2, -1, 9)
    assert e.value.kind == "arith"


def test_integer_results_past_the_digit_bound_are_arith_errors():
    top = 10**MAX_INT_DIGITS - 1  # the largest integer that prints in the bound
    add, sub, mul = _impl("+"), _impl("-"), _impl("*")
    assert add(top - 1, 1) == top and sub(1 - top, 1) == -top and mul(-top, 1) == -top
    for op, a, b in ((add, top, 1), (add, -top, -1), (sub, -top, 1), (mul, top, -2)):
        with pytest.raises(BasmError) as e:
            op(a, b)
        assert e.value.kind == "arith"


def test_values_equal_separates_bool_from_int():
    assert not values_equal(True, 1)
    assert not values_equal(False, 0)
    assert values_equal(1, 1)
    assert not values_equal(1, 2)


def test_values_equal_geometry_uses_eps():
    a = Point(0.0, 0.0)
    b = Point(1e-12, 0.0)
    assert values_equal(a, b)
    assert values_equal(Circle(a, Point(1.0, 0.0)), Circle(b, Point(1.0, 0.0)))
    assert not values_equal(Line(a, Point(1.0, 0.0)), Line(a, Point(0.0, 1.0)))


def test_value_conforms():
    v = Vocabulary()
    assert value_conforms(UNDEF, INTEGER)
    assert value_conforms(3, INTEGER)
    assert not value_conforms(True, INTEGER)
    assert not value_conforms(3, BOOLEAN)
    node = v.declare_enum("Node", ["u", "w"])
    assert value_conforms("u", node)
    assert not value_conforms("z", node)
    # A sort that is neither builtin nor an enum holds undef and nothing else.
    real = Sort("Real")
    assert value_conforms(UNDEF, real)
    assert not any(value_conforms(x, real) for x in (0, 1.5, "u", True, Point(0.0, 0.0)))


def _vocab():
    v = Vocabulary()
    v.declare("x", (), INTEGER, "dynamic")
    v.declare("flag", (), BOOLEAN, "dynamic")
    v.declare("f", (INTEGER,), INTEGER, "dynamic")
    return v


def test_redeclaring_a_symbol_is_rejected():
    v = _vocab()
    with pytest.raises(BasmError) as e:
        v.declare("x", (), BOOLEAN, "dynamic")
    assert e.value.kind == "sort"


@pytest.mark.parametrize("declare, message", [
    (lambda v: v.declare_enum("E", []), "enum sort E needs at least one member"),
    (lambda v: v.declare("g", (), INTEGER, STATIC), "cannot declare symbol of kind static"),
    (lambda v: v.sort("Real"), "unknown sort: Real"),
], ids=["empty-enum", "static-kind", "unknown-sort"])
def test_a_vocabulary_refuses_what_no_program_can_declare(declare, message):
    """The library's own refusals: a program's text cannot write an empty
    enum or a declared static, and its parser names unknown sorts itself."""
    with pytest.raises(BasmError) as e:
        declare(_vocab())
    assert (e.value.kind, e.value.message) == ("sort", message)


def test_a_vocabulary_repr_names_its_declarations_in_order():
    v = parse_program("vocab {\n  enum Node { u, v }\n  var cur : Node\n  oracle Pick() : Node\n"
                      "  static M(Point, Point) : Point\n}\niterate { skip }\n").vocabulary
    assert repr(v) == "Vocabulary(Node, cur, Pick, M)"


def test_an_unknown_oracle_static_is_a_load_time_sort_error():
    with pytest.raises(ParseError) as e:
        Vocabulary(("mod", "nosuch", "bogus"))
    assert (e.value.kind, e.value.message) == \
        ("sort", "cannot reclassify unknown static: bogus, nosuch")


def test_update_set_clash():
    v = _vocab()
    x = Location(v.symbol("x"), ())
    ups = UpdateSet()
    ups.add(x, 1)
    ups.add(x, 1)  # same value is not a clash
    with pytest.raises(BasmError) as e:
        ups.add(x, 2)
    assert e.value.kind == "clash"
    assert "x" in e.value.message


def test_an_update_set_is_a_dict_that_adds_only_add_and_repr():
    assert [name for name in vars(UpdateSet) if name not in ("__module__", "__doc__", "__slots__")] \
        == ["add", "__repr__"]
    ups = UpdateSet()
    assert ups == {} and len(ups) == 0 and not hasattr(ups, "__dict__")
    ups.add(("x", ()), 1)
    ups.add(("f", (2,)), 5)
    assert ups == {("x", ()): 1, ("f", (2,)): 5}
    assert list(ups.items()) == [(("x", ()), 1), (("f", (2,)), 5)]  # the order they were added


def test_update_set_items_are_sorted_by_location():
    # The set keeps no order of its own; its written forms sort by location.
    v = _vocab()
    ups = UpdateSet()
    ups.add(Location(v.symbol("f"), (2,)), 20)
    ups.add(Location(v.symbol("f"), (1,)), 10)
    ups.add(Location(v.symbol("x"), ()), 0)
    assert repr(ups) == "{f(1):=10, f(2):=20, x:=0}"
    s = State(v, {})
    trace = Trace("p", s, [StepRecord(ups, ())], s, Outcome("halted"))
    step = json.loads(trace_lines(trace)[1])
    assert [u["loc"] for u in step["updates"]] == ["f(1)", "f(2)", "x"]


def test_load_state_leaves_undef_unbound():
    v = _vocab()
    s = load_state("x := 1\nflag := undef", v)
    flag = Location(v.symbol("flag"), ())
    assert s.read(Location(v.symbol("x"), ())) == 1
    assert s.read(flag) is UNDEF
    assert flag not in s.interp  # undef bindings are not stored


def test_load_state_rejects_ill_sorted_values():
    with pytest.raises(ParseError) as e:
        load_state("x := true", _vocab())
    assert e.value.kind == "parse"
    assert "expected an integer literal" in e.value.message


def test_apply_updates_assigning_undef_removes_location():
    v = _vocab()
    x = Location(v.symbol("x"), ())
    s = State(v, {x: 1})
    ups = UpdateSet()
    ups.add(x, UNDEF)
    s2 = apply_updates(s, ups)
    assert s2.read(x) is UNDEF
    assert s.read(x) == 1  # original untouched


def test_changes_nothing():
    v = _vocab()
    x = Location(v.symbol("x"), ())
    s = State(v, {x: 1})
    same = UpdateSet()
    same.add(x, 1)
    assert changes_nothing(s, same)
    diff = UpdateSet()
    diff.add(x, 2)
    assert not changes_nothing(s, diff)


def test_location_and_query_identity():
    v = _vocab()
    f = v.symbol("f")
    assert Location(f, (1,)) == Location(f, (1,))
    assert Location(f, (1,)) != Location(f, (2,))
    assert len({Location(f, (1,)), Location(f, (1,))}) == 1
    assert Location(f, (1,)).render() == "f(1)"


def _enum_state():
    v = Vocabulary()
    v.declare_enum("Node", ["u", "w"])
    v.declare("cur", (), v.sort("Node"), "dynamic")
    v.declare("succ", (v.sort("Node"),), v.sort("Node"), "dynamic")
    u, w = "u", "w"
    cur = Location(v.symbol("cur"), ())
    s = State(v, {
        cur: u,
        Location(v.symbol("succ"), (u,)): w,
        Location(v.symbol("succ"), (w,)): u,
    })
    return v, s, u, w


def test_transport_moves_args_and_values():
    v, s, u, w = _enum_state()
    moved = transport(s, {"Node": {"u": "w", "w": "u"}})
    cur = Location(v.symbol("cur"), ())
    assert moved.read(cur) == w
    # succ(u) := w maps to succ(w) := u, so the symmetric table is preserved
    assert moved.read(Location(v.symbol("succ"), (u,))) == w
    assert moved.read(Location(v.symbol("succ"), (w,))) == u
    assert moved != s  # cur moved


def test_renaming_moves_a_location_by_its_arguments():
    v, s, u, w = _enum_state()
    move = renaming(v, {"Node": {"u": "w", "w": "u"}})
    succ = v.symbol("succ")
    assert move(Location(succ, (u,))) == Location(succ, (w,))
    assert move(Location(v.symbol("cur"), ())) == Location(v.symbol("cur"), ())
    assert move(3) == 3 and move(u) == w


def test_transport_rejects_partial_maps_and_builtin_sorts():
    v, s, _, _ = _enum_state()
    with pytest.raises(BasmError) as e:
        transport(s, {"Node": {"u": "w"}})
    assert e.value.kind == "iso"
    with pytest.raises(BasmError) as e:
        transport(s, {"Integer": {}})
    assert e.value.kind == "unsupported-iso"
    with pytest.raises(BasmError) as e:  # a sort the vocabulary lacks
        transport(s, {"Nope": {}})
    assert (e.value.kind, e.value.message) == ("iso", "unknown sort in bijection: Nope")


def test_vocabulary_equality_and_copy():
    a = _vocab()
    b = _vocab()
    assert a == b
    c = a.copy()
    assert c == a
    c.declare("extra", (), INTEGER, "dynamic")
    assert c != a
    assert a.symbol("extra") is None


def test_states_over_equal_but_distinct_vocabularies_compare_equal():
    """A state compares its vocabulary by value when the two are not one
    object: two parses of one program text give equal states."""
    text = "vocab {\n  enum Node { u, v }\n  var cur : Node\n  var n : Integer\n}\niterate { skip }\n"
    a, b = (parse_program(text).vocabulary for _ in range(2))
    assert a is not b and a == b
    x, y = load_state("cur := u\nn := 3", a), load_state("cur := u\nn := 3", b)
    assert x == y and y == x
    assert x != load_state("cur := v\nn := 3", b)
    other = parse_program(text.replace("var n", "var m")).vocabulary
    assert x != State(other, x.store)
    # Against anything else a state defers, and so equals nothing else.
    assert x.__eq__(x.store) is NotImplemented
    assert x != x.store and x != None  # noqa: E711


def test_values_are_written_by_state_and_read_by_literals():
    """`state` writes values and imports nothing from `literals`, which reads them."""
    tree = ast.parse(inspect.getsource(state))
    top_level = set(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert node in top_level, f"import inside a function at line {node.lineno}"
            assert "literals" not in ast.dump(node)
    assert literals.render_value is state.render_value


# --- geometry values are tuples ----------------------------------------------

P, Q = Point(0.0, 0.0), Point(5.0, 0.0)


def test_a_circle_never_equals_a_line_through_the_same_points():
    assert Circle(P, Q) == Line(P, Q)  # as plain tuples they do
    assert not values_equal(Circle(P, Q), Line(P, Q))
    assert not values_equal(Line(P, Q), Circle(P, Q))
    assert not values_equal(P, (0.0, 0.0))
    assert not value_conforms(Circle(P, Q), LINE)
    assert not value_conforms(Line(P, Q), CIRCLE)
    assert not value_conforms((0.0, 0.0), POINT)


def test_render_value_writes_each_record_under_its_own_head():
    assert render_value(P) == "point(0.0,0.0)"
    assert render_value(Circle(P, Q)) == "circle(point(0.0,0.0),point(5.0,0.0))"
    assert render_value(Line(P, Q)) == "line(point(0.0,0.0),point(5.0,0.0))"
    with pytest.raises(BasmError) as e:
        render_value((0.0, 0.0))
    assert e.value.kind == "sort"


def test_a_negative_zero_coordinate_renders_as_zero():
    assert render_value(Point(-0.0, 0.0)) == "point(0.0,0.0)"
    assert render_value(Point(0.0, -0.0)) == "point(0.0,0.0)"
    assert render_value(Circle(Point(-0.0, -0.0), Q)) == "circle(point(0.0,0.0),point(5.0,0.0))"


def test_transport_leaves_geometry_values_whole():
    v = Vocabulary()
    node = v.declare_enum("Node", ["u", "w"])
    v.declare("cur", (), node, "dynamic")
    v.declare("mark", (POINT,), node, "dynamic")
    for name, sort in (("here", POINT), ("C", CIRCLE), ("T", LINE)):
        v.declare(name, (), sort, "dynamic")
    values = {("here", ()): P, ("C", ()): Circle(P, Q), ("T", ()): Line(P, Q)}
    s = State(v, {("cur", ()): "u", ("mark", (Q,)): "u", **values})
    moved = transport(s, {"Node": {"u": "w", "w": "u"}})
    assert moved.store == {("cur", ()): "w", ("mark", (Q,)): "w", **values}
    for key, value in values.items():
        assert type(moved.read(key)) is type(value)
    (key,) = [k for k in moved.store if k[0] == "mark"]
    assert type(key[1][0]) is Point


# --- the member table against the recursive move it replaced -----------------


def reference_renaming(table: dict):
    """The recursive `move` that `renaming` returned before it became its
    member table: an enum member by the table, a location pair by moving its
    arguments, any other value as it is."""
    def move(value):
        if isinstance(value, str):  # an enum member
            return table.get(value, value)
        kind = type(value)
        if kind is tuple or kind is Location:  # a location pair; a geometry value is a tuple too
            return value[0], tuple(map(move, value[1]))
        return value
    return move


POINTS = [Point(0.0, 0.0), Point(1.5, -2.0), Point(-0.5, 3.0)]


def _values(sort):
    if sort is INTEGER:
        return st.integers(-3, 3)
    if sort is BOOLEAN:
        return st.booleans()
    if sort is POINT:
        return st.sampled_from(POINTS)
    if sort in (CIRCLE, LINE):
        kind = Circle if sort is CIRCLE else Line
        return st.tuples(st.sampled_from(POINTS), st.sampled_from(POINTS)).map(
            lambda pq: kind(*pq))
    return st.sampled_from(sort.members)


@st.composite
def renamed_inputs(draw):
    """A vocabulary of one or two enum sorts and n-ary variables over mixed
    sorts; a state, an update set with an `undef` write, interactions with a
    `Refused` answer, and a bijection of some of the enum sorts."""
    vocab = Vocabulary()
    enums = [vocab.declare_enum(name, [f"{name.lower()}{i}"
                                       for i in range(draw(st.integers(1, 4)))])
             for name in ("A", "B")[:draw(st.integers(1, 2))]]
    arg_sorts = [*enums, INTEGER, BOOLEAN, POINT]
    result_sorts = [*enums, INTEGER, BOOLEAN, POINT, CIRCLE, LINE]
    symbols = [vocab.declare(f"v{i}", draw(st.lists(st.sampled_from(arg_sorts), max_size=3)),
                             draw(st.sampled_from(result_sorts)), "dynamic")
               for i in range(draw(st.integers(1, 4)))]
    oracle = vocab.declare("O", (enums[0], INTEGER), enums[-1], "oracle")

    def binding(value=None):
        sym = draw(st.sampled_from(symbols))
        key = (sym.name, tuple(draw(_values(s)) for s in sym.arg_sorts))
        return key, draw(_values(sym.result_sort)) if value is None else value

    store = dict(binding() for _ in range(draw(st.integers(0, 6))))
    updates = UpdateSet(binding() for _ in range(draw(st.integers(0, 4))))
    updates.update([binding(UNDEF)])
    queries = draw(st.lists(st.tuples(_values(enums[0]), _values(INTEGER)), min_size=1,
                            max_size=3))
    answers = [*(draw(_values(enums[-1])) for _ in queries[1:]), Refused("script")]
    interactions = tuple(Interaction(oracle.name, args, answer)
                         for args, answer in zip(queries, answers))
    moved = draw(st.lists(st.sampled_from(enums), unique=True))
    bijection = {s.name: dict(zip(s.members, draw(st.permutations(s.members)))) for s in moved}
    return State(vocab, store), StepRecord(updates, interactions), bijection


def _typed(pairs):
    """Keys and values with the exact type of each value and argument."""
    return [(key[0], [(type(a), a) for a in key[1]], type(v), v) for key, v in pairs]


@settings(max_examples=200, deadline=None)
@given(renamed_inputs())
def test_the_member_table_moves_as_the_recursive_move(inputs):
    state_in, record, bijection = inputs
    move = renaming(state_in.vocabulary, bijection)
    reference = reference_renaming({m: i for perm in bijection.values() for m, i in perm.items()})
    moved = state._moved(state_in, move)
    want = [(reference(k), reference(v)) for k, v in state_in.store.items()]
    assert _typed(moved.store.items()) == _typed(want)
    assert transport(state_in, bijection) == moved
    renamed = checks._rename(record, move)
    assert type(renamed.updates) is UpdateSet
    assert _typed(renamed.updates.items()) == \
        _typed((reference(k), reference(v)) for k, v in record.updates.items())
    assert renamed == StepRecord(renamed.updates, tuple(
        Interaction(i.oracle, tuple(map(reference, i.args)), reference(i.answer))
        for i in record.interactions))
    for i in record.interactions:
        assert [move(a) for a in (i.answer, *i.args)] == \
            [reference(a) for a in (i.answer, *i.args)]
        assert move.get(i.answer, i.answer) == reference(i.answer)


# One symbol of each value kind, and an integer-keyed binary symbol.
MIXED = parse_program(
    "vocab {\n  enum Color { red, green }\n  var n : Integer\n  var on : Boolean\n"
    "  var c : Color\n  var p : Point\n  var g(Integer, Integer) : Integer\n}\n"
    "do until n >= 0 { n := n + 7 }\n")
MIXED_INIT = "n := -7\non := true\nc := green\np := point(1.5,-2.0)\ng(3,-40) := 12\ng(10,2) := 0\n"


def test_a_state_and_an_update_set_spell_each_kind_of_value_in_their_reprs():
    init = load_state(MIXED_INIT, MIXED.vocabulary)
    assert repr(init) == "State(c=green, g(10,2)=0, g(3,-40)=12, n=-7, on=true, p=point(1.5,-2.0))"
    ups = UpdateSet()
    for key, value in ((("p", ()), Point(0.5, 0.0)), (("g", (3, -40)), -13), (("on", ()), False),
                       (("c", ()), "red"), (("n", ()), UNDEF), (("g", (-1, 1)), 10 ** 20)):
        ups.add(key, value)
    assert repr(ups) == ("{c:=red, g(-1,1):=100000000000000000000, g(3,-40):=-13, n:=undef, "
                         "on:=false, p:=point(0.5,0.0)}")


def test_replay_spells_the_final_bindings_that_differ_for_each_kind_of_value():
    trace = run(MIXED, load_state(MIXED_INIT, MIXED.vocabulary), BuiltinPolicy())
    store = dict(trace.final_state.store)
    store.update({("on", ()): False, ("c", ()): "red", ("p", ()): Point(0.5, 0.0),
                  ("g", (3, -40)): -13, ("g", (-1, 1)): 5})
    edited = replace(trace, final_state=State(MIXED.vocabulary, store))
    assert replay_divergence(edited, MIXED) == (
        "final-state: {c=red, g(-1,1)=5, g(3,-40)=-13, on=false, p=point(0.5,0.0)} "
        "vs {c=green, g(-1,1)=undef, g(3,-40)=12, on=true, p=point(1.5,-2.0)}")
