"""Exact rational planar primitives.

Points, segments and piecewise-linear paths over arbitrary-precision
rationals, and the sup metric between parametrized paths. A point is its
kernel quad ``(xn, xd, yn, yd)``: a path stores its points as bare quads
and its parameters as reduced int pairs, and a ``Point2`` wraps a quad
only where one is handed out. A path is built from rationals (``PLPath``,
``pl_path``) or from int pairs and quads (``_path``), and the sup metric
merges two paths' parameters in one pass, on quads. No
floating point participates in any predicate or returned value — distances
are carried as exact squared rationals, with decimal renderings
(round-half-even) provided for reports.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence, Union

from . import kernels
from .exactnum import dyadic_sqrt_bounds, rational_text, sqrt_decimal
from .records import Record


def rat(value) -> Fraction:
    """Coerce ints, strings like ``'1/3'``, or Fractions to an exact rational."""
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


class Point2(Record):
    """An exact planar point, stored as its kernel quad ``(xn, xd, yn, yd)``.

    The quad is the point and the record's one field: both coordinates are
    in lowest terms with a positive denominator, so two points are equal
    exactly when their quads are. ``Point2(x, y)`` takes
    ints, strings or Fractions, as ``rat`` does. The coordinates ``x`` and
    ``y`` are Fractions built from the quad on each read. Inside the package points
    travel as bare quads; a ``Point2`` is built only where one is handed
    out, such as a circle's vertices, a segment's ends or a path's
    ``points`` view.
    """

    __slots__ = _fields = ("_q",)

    def __init__(self, x, y):
        if type(x) is not Fraction:
            x = rat(x)
        if type(y) is not Fraction:
            y = rat(y)
        self._q = (x.numerator, x.denominator, y.numerator, y.denominator)

    @property
    def x(self) -> Fraction:
        return Fraction(self._q[0], self._q[1])

    @property
    def y(self) -> Fraction:
        return Fraction(self._q[2], self._q[3])

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, y={self.y!r})"

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


def _quad_str(q: tuple) -> str:
    """The text ``(x, y)`` of a reduced kernel quad's point, by ``rational_text``."""
    return f"({rational_text(Fraction(q[0], q[1]))}, {rational_text(Fraction(q[2], q[3]))})"


class Segment(Record):
    """A nondegenerate closed segment; coincident endpoints are rejected.
    It holds its two ends only: ``length_sq`` and ``length_bracket`` are
    computed on each read."""

    __slots__ = _fields = ("a", "b")

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
        return dyadic_sqrt_bounds(self.length_sq)

    def __str__(self) -> str:
        return f"[{self.a} -> {self.b}]"


def segment(ax, ay, bx, by) -> Segment:
    return Segment(point(ax, ay), point(bx, by))


class PLPath(Record):
    """A parametrized piecewise-linear path on [0, 1].

    The path is its breakpoint parameters and its points, both as ints:
    each parameter is a reduced pair ``(n, d)`` with d > 0, the pairs
    strictly increasing from 0 to 1, and each point is its kernel quad.
    Between breakpoints the path is the exact linear interpolation, and
    consecutive equal points denote a constant stretch. Equality and
    hashing compare the pairs and the quads.

    ``PLPath(breakpoints)`` takes (t, point) pairs with t an int, string or
    Fraction and the point a ``Point2``. Builders that compute their
    parameters and points as ints call ``_path(ts, qs)`` and build no
    Fraction and no ``Point2``. Both run the same checks; the order is
    checked by cross-multiplying the pairs. ``points`` and ``breakpoints``
    are views, built anew on each read.
    """

    __slots__ = _fields = ("_ts", "_qs")

    def __init__(self, breakpoints):
        bks = tuple(breakpoints)
        params = (t if type(t) is Fraction else rat(t) for t, _ in bks)
        _fill(self, tuple((t.numerator, t.denominator) for t in params), tuple(p._q for _, p in bks))

    @property
    def points(self) -> tuple:
        """The breakpoints' points, as Point2."""
        return tuple(map(_from_quad, self._qs))

    @property
    def breakpoints(self) -> tuple:
        """The (t, point) pairs, t a Fraction and the point a Point2."""
        return tuple((Fraction(n, d), _from_quad(q)) for (n, d), q in zip(self._ts, self._qs))

    def __repr__(self) -> str:
        return f"PLPath(breakpoints={self.breakpoints!r})"

    def at(self, t) -> Point2:
        """Exact evaluation by linear interpolation; t must lie in [0, 1]."""
        t = rat(t)
        if t < 0 or t > 1:
            raise ParameterRangeError(f"parameter {t} outside [0, 1]")
        tn, td = tq = (t.numerator, t.denominator)
        ts, qs = self._ts, self._qs
        # the last breakpoint at or before t
        i = bisect_right(ts, 0, key=lambda p: p[0] * td - tn * p[1]) - 1
        if i == len(ts) - 1 or ts[i] == tq:
            return _from_quad(qs[i])
        return _from_quad(_quad_between(ts[i], qs[i], ts[i + 1], qs[i + 1], tq))

    def reversed(self) -> "PLPath":
        """The path run backwards: t = n/d goes to (d - n)/d, still reduced."""
        return _path(tuple((d - n, d) for n, d in reversed(self._ts)), self._qs[::-1])


def _fill(path: PLPath, ts: tuple, qs: tuple) -> None:
    """Check reduced parameter pairs and store them with their quads: the
    one construction path of PLPath."""
    if len(ts) < 2:
        raise PathInvariantError("a path needs at least two breakpoints")
    if ts[0][0] != 0 or ts[-1] != (1, 1):
        raise PathInvariantError("path parameters must start at 0 and end at 1")
    n0, d0 = 0, 1
    for n, d in ts[1:]:
        if n * d0 <= n0 * d:
            raise PathInvariantError(
                f"breakpoint parameters not strictly increasing at t={rational_text(Fraction(n, d))}"
            )
        n0, d0 = n, d
    path._ts = ts
    path._qs = qs


def _path(ts: tuple, qs: tuple) -> PLPath:
    """The path on reduced parameter pairs ``ts`` (d > 0) and kernel quads ``qs``."""
    path = object.__new__(PLPath)
    _fill(path, ts, qs)
    return path


def pl_path(raw: Sequence) -> PLPath:
    """Build a PLPath from (t, x, y) triples of rationals."""
    return PLPath(tuple((rat(t), point(x, y)) for t, x, y in raw))


class ExactDistance(Record):
    """A certified distance: exact squared rational plus decimal renderings.
    The value goes through ``rat``, so a float is refused."""

    __slots__ = _fields = ("squared",)

    def __init__(self, squared: Fraction):
        if type(squared) is not Fraction:
            squared = rat(squared)
        self.squared = squared

    def decimal(self, digits: int) -> str:
        return sqrt_decimal(self.squared, digits)

    def __str__(self) -> str:
        return f"sqrt({self.squared})"


def sup_distance(f: PLPath, g: PLPath) -> ExactDistance:
    """Exact sup-metric distance between two paths: ``_sup_merge`` of their
    parameter pairs and quads."""
    return ExactDistance(Fraction(*_sup_merge(f._ts, f._qs, g._ts, g._qs)))


def _sup_merge(fts, fqs, gts, gqs) -> tuple:
    """The squared sup distance ``(n, d)`` of the paths with reduced
    parameter pairs ``fts`` and ``gts`` and kernel quads ``fqs`` and
    ``gqs``, which need not be built. On each interval of the common
    parameter refinement the difference f - g is affine, so its norm is
    convex and maximized at an interval endpoint; the sup is the maximum of
    finitely many exact point distances. The refinement is one merge of the
    two breakpoint sequences on integers: a parameter of both paths is
    matched by tuple equality, as reduced pairs are equal exactly when
    their values are, other parameters are compared by cross-multiplication,
    a parameter of one path only is interpolated on the other's current
    piece as a kernel quad, and the running maximum is a reduced int pair.
    """
    best_n, best_d = 0, 1
    i = j = 0
    while i < len(fts):
        tf, tg = fts[i], gts[j]
        if tf == tg:
            pq, qq = fqs[i], gqs[j]
            i += 1
            j += 1
        elif tf[0] * tg[1] < tg[0] * tf[1]:
            pq, qq = fqs[i], _quad_between(gts[j - 1], gqs[j - 1], tg, gqs[j], tf)
            i += 1
        else:
            pq, qq = _quad_between(fts[i - 1], fqs[i - 1], tf, fqs[i], tg), gqs[j]
            j += 1
        if pq == qq:  # distance 0 never raises the maximum
            continue
        n, d = kernels.point_dist_sq(pq, qq)
        if n * best_d > best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def _quad_between(t0: tuple, q0: tuple, t1: tuple, q1: tuple, t: tuple) -> tuple:
    """The kernel quad at t of the piece from (t0, q0) to (t1, q1), t0 < t < t1,
    all three parameters int pairs and both points kernel quads."""
    if q0 == q1:
        return q0
    # u = (t - t0) / (t1 - t0) as an unreduced pair with a positive denominator
    n, d = t
    n0, d0 = t0
    n1, d1 = t1
    return kernels.lerp(q0, q1, (n * d0 - n0 * d) * d1, d * (n1 * d0 - n0 * d1))


SegIntersection = Union[None, Point2, Segment]


def _segment_of(a: tuple, b: tuple) -> Segment:
    """The Segment between the points of two reduced kernel quads."""
    return Segment(_from_quad(a), _from_quad(b))


def _intersection_of(res: tuple) -> SegIntersection:
    """A ``kernels.seg_intersect`` result as None, a Point2 or a Segment."""
    if res[0] == kernels.SEG_NONE:
        return None
    if res[0] == kernels.SEG_POINT:
        return _from_quad(res[1])
    return _segment_of(res[1], res[2])


def segments_intersect(s1: Segment, s2: Segment) -> SegIntersection:
    """Exact intersection classification: None, a single Point2, or a Segment."""
    return _intersection_of(kernels.seg_intersect(s1.a._q, s1.b._q, s2.a._q, s2.b._q))

