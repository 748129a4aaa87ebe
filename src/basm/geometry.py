"""Planar kernel for the ruler-and-compass corpus.

Circles are stored as (center, through-point); the radius is derived. All
kernel comparisons use EPS = 1e-9. End-to-end tests on top of the interpreter
use a looser 1e-6. A midpoint or intersection point with a coordinate that is
not finite is an `arith` error, so every point a run holds reads back.

`Point`, `Circle` and `Line` are `namedtuple` subclasses: they are hashed and
compared in C, built with no per-field `object.__setattr__`, and their reprs
name their fields. As plain tuples a circle and a line through the same two
points compare equal, and a point equals the pair of its coordinates; so
code that tells values apart (`state.values_equal`, `render_value`,
`value_conforms`, `renaming`, `corpus._coerce`) tests the exact type, never
`isinstance(value, tuple)`. The kernel below unpacks coordinates rather than
reading them by name.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import BasmError

EPS = 1e-9


class Point(namedtuple("Point", "x y")):
    """A point; a `-0.0` coordinate becomes `0.0`, so equal points render alike."""

    __slots__ = ()

    def __new__(cls, x: float, y: float):
        return tuple.__new__(cls, (x + 0.0, y + 0.0))


class Circle(namedtuple("Circle", "center through")):
    __slots__ = ()

    @property
    def radius(self) -> float:
        return dist(self.center, self.through)


class Line(namedtuple("Line", "p1 p2")):
    __slots__ = ()


def dist(p: Point, q: Point) -> float:
    (px, py), (qx, qy) = p, q
    return math.hypot(px - qx, py - qy)


def _finite(p: Point) -> Point:
    x, y = p
    if math.isfinite(x) and math.isfinite(y):
        return p
    raise BasmError("arith", "non-finite point coordinate")


def midpoint(p: Point, q: Point) -> Point:
    (px, py), (qx, qy) = p, q
    return _finite(Point((px + qx) / 2.0, (py + qy) / 2.0))


def circle_through(center: Point, through: Point) -> Circle:
    if dist(center, through) <= EPS:
        raise BasmError("oracle-domain", "degenerate circle: center equals through-point")
    return Circle(center, through)


def line_through(p: Point, q: Point) -> Line:
    if dist(p, q) <= EPS:
        raise BasmError("oracle-domain", "degenerate line: coincident endpoints")
    return Line(p, q)


def intersect_circles(a: Circle, b: Circle) -> tuple[Point, Point]:
    """Both intersection points, ordered lexicographically by (x, y).

    Tangent circles (internal or external, within EPS) give the touching point
    twice. Disjoint, nested, or concentric circles are outside the domain.
    """
    (a_center, a_through), (b_center, b_through) = a, b
    ra, rb = dist(a_center, a_through), dist(b_center, b_through)
    d = dist(a_center, b_center)
    if d <= EPS:
        raise BasmError("oracle-domain", "concentric circles do not intersect in two points")
    if d > ra + rb + EPS:
        raise BasmError("oracle-domain", "disjoint circles")
    if d < abs(ra - rb) - EPS:
        raise BasmError("oracle-domain", "nested circles")
    # Foot of the radical axis along the center line, then the half-chord.
    ax = (d * d + ra * ra - rb * rb) / (2.0 * d)
    h_sq = ra * ra - ax * ax
    h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
    (cx, cy), (ex, ey) = a_center, b_center
    ux = (ex - cx) / d
    uy = (ey - cy) / d
    fx = cx + ax * ux
    fy = cy + ax * uy
    p = _finite(Point(fx - h * uy, fy + h * ux))
    q = _finite(Point(fx + h * uy, fy - h * ux))
    if h <= EPS:
        double = Point(fx, fy)
        return (double, double)
    return (p, q) if p <= q else (q, p)


def incident(s: Point, c: Circle) -> bool:
    return abs(dist(s, c.center) - c.radius) < EPS


def dist_point_line(x: Point, l: Line) -> float:
    (px, py), ((x1, y1), (x2, y2)) = x, l
    dx = x2 - x1
    dy = y2 - y1
    length = math.hypot(dx, dy)
    return abs(dx * (py - y1) - dy * (px - x1)) / length


def points_close(p: Point, q: Point) -> bool:
    (px, py), (qx, qy) = p, q
    return abs(px - qx) <= EPS and abs(py - qy) <= EPS
