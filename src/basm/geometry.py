"""Planar kernel for the ruler-and-compass corpus.

Circles are stored as (center, through-point); the radius is derived. All
kernel comparisons use EPS = 1e-9. End-to-end tests on top of the interpreter
use a looser 1e-6. A midpoint or intersection point with a coordinate that is
not finite is an `arith` error, so every point a run holds reads back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BasmError

EPS = 1e-9


@dataclass(frozen=True)
class Point:
    """A point; a `-0.0` coordinate becomes `0.0`, so equal points render alike."""

    x: float
    y: float

    def __init__(self, x: float, y: float):
        object.__setattr__(self, "x", x + 0.0)
        object.__setattr__(self, "y", y + 0.0)


@dataclass(frozen=True)
class Circle:
    center: Point
    through: Point

    @property
    def radius(self) -> float:
        return dist(self.center, self.through)


@dataclass(frozen=True)
class Line:
    p1: Point
    p2: Point


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _finite(p: Point) -> Point:
    if math.isfinite(p.x) and math.isfinite(p.y):
        return p
    raise BasmError("arith", "non-finite point coordinate")


def midpoint(p: Point, q: Point) -> Point:
    return _finite(Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0))


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
    ra, rb = a.radius, b.radius
    d = dist(a.center, b.center)
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
    ux = (b.center.x - a.center.x) / d
    uy = (b.center.y - a.center.y) / d
    fx = a.center.x + ax * ux
    fy = a.center.y + ax * uy
    p = _finite(Point(fx - h * uy, fy + h * ux))
    q = _finite(Point(fx + h * uy, fy - h * ux))
    if h <= EPS:
        double = Point(fx, fy)
        return (double, double)
    return (p, q) if (p.x, p.y) <= (q.x, q.y) else (q, p)


def incident(s: Point, c: Circle) -> bool:
    return abs(dist(s, c.center) - c.radius) < EPS


def dist_point_line(x: Point, l: Line) -> float:
    dx = l.p2.x - l.p1.x
    dy = l.p2.y - l.p1.y
    length = math.hypot(dx, dy)
    return abs(dx * (x.y - l.p1.y) - dy * (x.x - l.p1.x)) / length


def points_close(p: Point, q: Point) -> bool:
    return abs(p.x - q.x) <= EPS and abs(p.y - q.y) <= EPS
