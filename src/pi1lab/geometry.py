"""Exact rational planar primitives.

Points, segments and piecewise-linear paths over arbitrary-precision
rationals, and the sup metric between parametrized paths. Points are kept
as int quads and path parameters as reduced int pairs. A path is built
from rationals (``PLPath``, ``pl_path``) or from int pairs (``_path``), and
the sup metric merges two paths' parameters in one pass. No
floating point participates in any predicate or returned value — distances
are carried as exact squared rationals, with decimal renderings
(round-half-even) provided for reports.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence, Union

from . import kernels
from .exactnum import dyadic_sqrt_bounds, sqrt_decimal
from .records import Record

DEFAULT_DIGITS = 40


def rat(value, den=None) -> Fraction:
    """Coerce ints, strings like ``'1/3'``, or Fractions to an exact rational."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an int, string or Fraction")
    return Fraction(value)


class GeometryError(Exception):
    """Base class for exact-geometry failures."""


class DegenerateSegmentError(GeometryError):
    """A segment was constructed with coincident endpoints."""


class ParameterRangeError(GeometryError):
    """A path parameter fell outside [0, 1]."""


class PathInvariantError(GeometryError):
    """A PLPath violated its breakpoint invariants."""


class Point2:
    """An exact planar point, stored as its kernel quad ``(xn, xd, yn, yd)``.

    The quad is the point: both coordinates are in lowest terms with a
    positive denominator, so two points are equal exactly when their quads
    are, and equality and hashing compare quads. ``Point2(x, y)`` takes
    ints, strings or Fractions. The coordinates ``x`` and ``y`` are
    Fractions built from the quad the first time they are read and kept;
    a point made from Fractions keeps those. A point made from a kernel
    result (``_from_quad``), such as an interpolated breakpoint, builds no
    Fraction unless one is read.
    """

    __slots__ = ("_q", "_x", "_y")

    def __init__(self, x, y):
        if type(x) is not Fraction:
            x = Fraction(x)
        if type(y) is not Fraction:
            y = Fraction(y)
        self._x = x
        self._y = y
        self._q = (x.numerator, x.denominator, y.numerator, y.denominator)

    @property
    def x(self) -> Fraction:
        try:
            return self._x
        except AttributeError:
            self._x = x = Fraction(self._q[0], self._q[1])
            return x

    @property
    def y(self) -> Fraction:
        try:
            return self._y
        except AttributeError:
            self._y = y = Fraction(self._q[2], self._q[3])
            return y

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._q == other._q
        return NotImplemented

    def __hash__(self):
        return hash(self._q)

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, y={self.y!r})"

    def quad(self) -> tuple:
        """Kernel wire format: (xn, xd, yn, yd)."""
        return self._q

    def dist_sq(self, other: "Point2") -> Fraction:
        n, d = kernels.point_dist_sq(self._q, other._q)
        return Fraction(n, d)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def point(x, y) -> Point2:
    return Point2(rat(x), rat(y))


ORIGIN = point(0, 0)


def _from_quad(q) -> Point2:
    """The point of a reduced kernel quad, without building its Fractions."""
    pt = object.__new__(Point2)
    pt._q = q
    return pt


class Segment(Record):
    """A nondegenerate closed segment; coincident endpoints are rejected.

    ``length_bracket`` is computed the first time it is read and kept, so
    an edge of a cached circle brackets its length once.
    """

    __slots__ = ("a", "b", "_length_bracket")
    _fields = ("a", "b")

    def __init__(self, a: Point2, b: Point2):
        if a == b:
            raise DegenerateSegmentError(f"degenerate segment at {a}")
        self.a = a
        self.b = b

    def quads(self) -> tuple:
        return self.a._q, self.b._q

    @property
    def length_sq(self) -> Fraction:
        return self.a.dist_sq(self.b)

    @property
    def length_bracket(self) -> tuple:
        """Exact dyadic (lo, hi) around the length, at most 2**-40 apart."""
        try:
            return self._length_bracket
        except AttributeError:
            self._length_bracket = bracket = dyadic_sqrt_bounds(self.length_sq)
            return bracket

    def contains(self, q: Point2) -> bool:
        return kernels.on_segment(q._q, self.a._q, self.b._q)

    def at(self, t: Fraction) -> Point2:
        t = Fraction(t)
        return _from_quad(kernels.lerp(self.a._q, self.b._q, t.numerator, t.denominator))

    def __str__(self) -> str:
        return f"[{self.a} -> {self.b}]"


def segment(ax, ay, bx, by) -> Segment:
    return Segment(point(ax, ay), point(bx, by))


class PLPath(Record):
    """A parametrized piecewise-linear path on [0, 1].

    The path is its breakpoint parameters and its points. Each parameter is
    stored as a reduced int pair ``(n, d)`` with d > 0; the pairs strictly
    increase from 0 to 1. Between breakpoints the path is the exact linear
    interpolation, and consecutive equal points denote a constant stretch.
    Equality and hashing compare the pairs and the points.

    ``PLPath(breakpoints)`` takes (t, point) pairs with t an int, string or
    Fraction. Builders that compute their parameters as int pairs call
    ``_path(ts, pts)`` and build no Fraction. Both run the same checks; the
    order is checked by cross-multiplying the pairs. ``params`` and
    ``breakpoints`` are Fractions built the first time they are read and
    kept; a path made from Fractions keeps those.
    """

    __slots__ = ("_ts", "_pts", "_params", "_bks")
    _fields = ("_ts", "_pts")

    def __init__(self, breakpoints):
        bks = tuple(breakpoints)
        params = tuple(t if type(t) is Fraction else Fraction(t) for t, _ in bks)
        _fill(self, tuple((t.numerator, t.denominator) for t in params), tuple(p for _, p in bks))
        self._params = params

    @property
    def params(self) -> tuple:
        """The breakpoint parameters as Fractions."""
        try:
            return self._params
        except AttributeError:
            self._params = ps = tuple(Fraction(n, d) for n, d in self._ts)
            return ps

    @property
    def breakpoints(self) -> tuple:
        """The (t, point) pairs, t a Fraction."""
        try:
            return self._bks
        except AttributeError:
            self._bks = bks = tuple(zip(self.params, self._pts))
            return bks

    @property
    def points(self) -> tuple:
        return self._pts

    def __repr__(self) -> str:
        return f"PLPath(breakpoints={self.breakpoints!r})"

    def at(self, t) -> Point2:
        """Exact evaluation by linear interpolation; t must lie in [0, 1]."""
        t = Fraction(t)
        if t < 0 or t > 1:
            raise ParameterRangeError(f"parameter {t} outside [0, 1]")
        i = bisect_right(self.params, t) - 1
        ts, pts = self._ts, self._pts
        tq = (t.numerator, t.denominator)
        if i == len(ts) - 1 or ts[i] == tq:
            return pts[i]
        return _from_quad(_quad_between(ts[i], pts[i], ts[i + 1], pts[i + 1], tq))

    def pieces(self):
        """Consecutive breakpoint pairs ((t0, p0), (t1, p1))."""
        bks = self.breakpoints
        return tuple(zip(bks, bks[1:]))

    def reversed(self) -> "PLPath":
        """The path run backwards: t = n/d goes to (d - n)/d, still reduced."""
        return _path(tuple((d - n, d) for n, d in reversed(self._ts)), self._pts[::-1])


def _fill(path: PLPath, ts: tuple, pts: tuple) -> None:
    """Check reduced parameter pairs and store them with their points: the
    one construction path of PLPath."""
    if len(ts) < 2:
        raise PathInvariantError("a path needs at least two breakpoints")
    if ts[0][0] != 0 or ts[-1] != (1, 1):
        raise PathInvariantError("path parameters must start at 0 and end at 1")
    n0, d0 = 0, 1
    for n, d in ts[1:]:
        if n * d0 <= n0 * d:
            raise PathInvariantError(
                f"breakpoint parameters not strictly increasing at t={Fraction(n, d)}"
            )
        n0, d0 = n, d
    path._ts = ts
    path._pts = pts


def _path(ts: tuple, pts: tuple) -> PLPath:
    """The path on reduced parameter pairs ``ts`` (d > 0) and points ``pts``."""
    path = object.__new__(PLPath)
    _fill(path, ts, pts)
    return path


def pl_path(raw: Sequence) -> PLPath:
    """Build a PLPath from (t, x, y) triples of rationals."""
    return PLPath(tuple((rat(t), point(x, y)) for t, x, y in raw))


class ExactDistance(Record):
    """A certified distance: exact squared rational plus decimal renderings."""

    __slots__ = _fields = ("squared", "attained_at")

    def __init__(self, squared: Fraction, attained_at: Fraction):
        self.squared = squared
        self.attained_at = attained_at

    def decimal(self, digits: int = DEFAULT_DIGITS) -> str:
        return sqrt_decimal(self.squared, digits)

    def __str__(self) -> str:
        return f"sqrt({self.squared})"


def sup_distance(f: PLPath, g: PLPath) -> ExactDistance:
    """Exact sup-metric distance between two paths, and where it is first attained."""
    n, d, arg = _sup_distance_sq(f, g)
    return ExactDistance(Fraction(n, d), Fraction(*arg))


def _sup_distance_sq(f: PLPath, g: PLPath) -> tuple:
    """``sup_distance`` as ints ``(n, d, t)``: squared distance n/d, d > 0,
    first attained at the parameter pair t. On each interval of the common
    parameter refinement the difference f - g is affine, so its norm is
    convex and maximized at an interval endpoint; the sup is the maximum of
    finitely many exact point distances. The refinement is one merge of the
    two breakpoint tuples on integers: parameters are compared by
    cross-multiplication, a parameter of one path only is interpolated on
    the other's current piece as a kernel quad, and the running maximum is
    a reduced int pair.
    """
    fts, fps, gts, gps = f._ts, f._pts, g._ts, g._pts
    best_n, best_d = 0, 1
    arg = (0, 1)
    i = j = 0
    while i < len(fts):
        tf, tg = fts[i], gts[j]
        c = tf[0] * tg[1] - tg[0] * tf[1]
        if c == 0:
            t, pq, qq = tf, fps[i]._q, gps[j]._q
            i += 1
            j += 1
        elif c < 0:
            t, pq, qq = tf, fps[i]._q, _quad_between(gts[j - 1], gps[j - 1], tg, gps[j], tf)
            i += 1
        else:
            t, pq, qq = tg, _quad_between(fts[i - 1], fps[i - 1], tf, fps[i], tg), gps[j]._q
            j += 1
        if pq == qq:  # distance 0 never raises the maximum
            continue
        n, d = kernels.point_dist_sq(pq, qq)
        if n * best_d > best_n * d:
            best_n, best_d, arg = n, d, t
    return best_n, best_d, arg


def _quad_between(t0: tuple, p0: Point2, t1: tuple, p1: Point2, t: tuple) -> tuple:
    """The kernel quad at t of the piece from (t0, p0) to (t1, p1), t0 < t < t1,
    all three parameters int pairs."""
    if p0 == p1:
        return p0._q
    # u = (t - t0) / (t1 - t0) as an unreduced pair with a positive denominator
    n, d = t
    n0, d0 = t0
    n1, d1 = t1
    return kernels.lerp(p0._q, p1._q, (n * d0 - n0 * d) * d1, d * (n1 * d0 - n0 * d1))


SegIntersection = Union[None, Point2, Segment]


def segments_intersect(s1: Segment, s2: Segment) -> SegIntersection:
    """Exact intersection classification: None, a single Point2, or a Segment."""
    res = kernels.seg_intersect(s1.a._q, s1.b._q, s2.a._q, s2.b._q)
    if res[0] == kernels.SEG_NONE:
        return None
    if res[0] == kernels.SEG_POINT:
        return _from_quad(res[1])
    return Segment(_from_quad(res[1]), _from_quad(res[2]))

