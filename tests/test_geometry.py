"""Geometry kernel checks against hand-derived configurations.

Expected values are derived independently of the kernel's radical-line
formula: equal-radius circles intersect on the perpendicular bisector of the
centre segment, so x is the midpoint and y follows from Pythagoras.
"""
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basm.errors import BasmError
from basm.geometry import (
    EPS,
    Circle,
    Line,
    Point,
    circle_through,
    dist,
    dist_point_line,
    incident,
    intersect_circles,
    line_through,
    midpoint,
    points_close,
)

# Equal radii 5, centres (0,0) and (6,0): x = 3, y = +-sqrt(25 - 9) = +-4,
# exact in binary floating point.
C_A = Circle(Point(0.0, 0.0), Point(5.0, 0.0))
C_B = Circle(Point(6.0, 0.0), Point(11.0, 0.0))

# The tangent-construction pair: radius-5 circles at (0,0) and (5,0).
# x = 2.5 by symmetry, y = +-sqrt(25 - 6.25) = +-(5/2)sqrt(3).
C_MAIN = Circle(Point(0.0, 0.0), Point(5.0, 0.0))
C_AUX = Circle(Point(5.0, 0.0), Point(10.0, 0.0))
Y_TOUCH = 2.5 * math.sqrt(3.0)  # 4.330127018922193


def test_intersect_equal_radii_exact():
    lo, hi = intersect_circles(C_A, C_B)
    assert (lo.x, lo.y) == (3.0, -4.0)
    assert (hi.x, hi.y) == (3.0, 4.0)


def test_intersect_tangent_pair():
    lo, hi = intersect_circles(C_MAIN, C_AUX)
    assert lo.x == pytest.approx(2.5, abs=1e-12)
    assert lo.y == pytest.approx(-Y_TOUCH, abs=1e-12)
    assert hi.y == pytest.approx(Y_TOUCH, abs=1e-12)


def test_intersect_order_is_lexicographic():
    lo, hi = intersect_circles(C_A, C_B)
    assert (lo.x, lo.y) <= (hi.x, hi.y)


def test_intersect_is_symmetric():
    assert intersect_circles(C_A, C_B) == intersect_circles(C_B, C_A)


def test_external_tangency_gives_double_point():
    # d = 8 = 3 + 5: circles touch at (3, 0).
    a = Circle(Point(0.0, 0.0), Point(3.0, 0.0))
    b = Circle(Point(8.0, 0.0), Point(3.0, 0.0))
    lo, hi = intersect_circles(a, b)
    assert lo == hi == Point(3.0, 0.0)


def test_internal_tangency_gives_double_point():
    # d = 2 = 5 - 3: the small circle touches from inside at (5, 0).
    a = Circle(Point(0.0, 0.0), Point(5.0, 0.0))
    b = Circle(Point(2.0, 0.0), Point(5.0, 0.0))
    lo, hi = intersect_circles(a, b)
    assert lo == hi == Point(5.0, 0.0)


@pytest.mark.parametrize(
    "a,b",
    [
        # disjoint
        (Circle(Point(0.0, 0.0), Point(1.0, 0.0)), Circle(Point(10.0, 0.0), Point(11.0, 0.0))),
        # nested
        (Circle(Point(0.0, 0.0), Point(5.0, 0.0)), Circle(Point(1.0, 0.0), Point(1.5, 0.0))),
        # concentric, equal radius
        (Circle(Point(0.0, 0.0), Point(5.0, 0.0)), Circle(Point(0.0, 0.0), Point(0.0, 5.0))),
    ],
)
def test_non_crossing_pairs_are_out_of_domain(a, b):
    with pytest.raises(BasmError) as e:
        intersect_circles(a, b)
    assert e.value.kind == "oracle-domain"


def test_degenerate_constructions_are_out_of_domain():
    p = Point(1.0, 2.0)
    with pytest.raises(BasmError) as e:
        circle_through(p, p)
    assert e.value.kind == "oracle-domain"
    with pytest.raises(BasmError) as e:
        line_through(p, Point(1.0, 2.0 + EPS / 2))
    assert e.value.kind == "oracle-domain"


def test_midpoint_and_dist():
    assert midpoint(Point(0.0, 0.0), Point(10.0, 4.0)) == Point(5.0, 2.0)
    assert dist(Point(0.0, 0.0), Point(3.0, 4.0)) == 5.0


def test_dist_point_line():
    horizontal = Line(Point(0.0, 0.0), Point(1.0, 0.0))
    assert dist_point_line(Point(5.0, 7.0), horizontal) == 7.0


def test_tangent_line_touches_at_radius():
    # Line from (10,0) through either touch point is at distance 5 from the
    # centre: that is what makes it a tangent.
    for s in intersect_circles(C_MAIN, C_AUX):
        t = line_through(Point(10.0, 0.0), s)
        assert dist_point_line(Point(0.0, 0.0), t) == pytest.approx(5.0, abs=1e-9)
        assert incident(s, C_MAIN)
        assert incident(s, C_AUX)


def test_points_close_tolerance():
    assert points_close(Point(0.0, 0.0), Point(EPS / 2, 0.0))
    assert not points_close(Point(0.0, 0.0), Point(3 * EPS, 0.0))


def test_non_finite_results_are_arith_errors():
    with pytest.raises(BasmError) as e:
        midpoint(Point(1.7e308, 0.0), Point(1.7e308, 0.0))
    assert e.value.kind == "arith"
    # Radii and centre distance 1e308: the radical-axis foot overflows to nan.
    a = Circle(Point(0.0, 0.0), Point(1e308, 0.0))
    b = Circle(Point(1e308, 0.0), Point(0.0, 0.0))
    with pytest.raises(BasmError) as e:
        intersect_circles(a, b)
    assert e.value.kind == "arith"


coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(coord, coord, coord, coord, coord, coord)
def test_circles_through_a_common_point_intersect(ax, ay, bx, by, tx, ty):
    """Two circles drawn through a shared point always intersect, and both
    reported intersection points lie on both circles."""
    c1, c2, t = Point(ax, ay), Point(bx, by), Point(tx, ty)
    assume(dist(c1, c2) > 1e-3)
    assume(dist(c1, t) > 1e-3 and dist(c2, t) > 1e-3)
    a = Circle(c1, t)
    b = Circle(c2, t)
    for s in intersect_circles(a, b):
        assert abs(dist(s, c1) - a.radius) < 1e-6
        assert abs(dist(s, c2) - b.radius) < 1e-6


def test_records_are_tuples_whose_reprs_name_their_fields():
    p, q = Point(1.0, 2.0), Point(3.0, 4.0)
    assert p == (1.0, 2.0) and not hasattr(p, "__dict__")
    assert hash(Circle(p, q)) == hash(((1.0, 2.0), (3.0, 4.0)))
    assert repr(Circle(p, q)) == "Circle(center=Point(x=1.0, y=2.0), through=Point(x=3.0, y=4.0))"
    assert repr(Line(p, q)) == "Line(p1=Point(x=1.0, y=2.0), p2=Point(x=3.0, y=4.0))"
    assert Circle(p, q).radius == dist(p, q)
