"""Exact rational planar primitives.

Points, segments and piecewise-linear paths over arbitrary-precision
rationals, and the sup metric between parametrized paths. No floating point
participates in any predicate or returned value — distances are carried as
exact squared rationals, with decimal renderings (round-half-even) provided
for reports.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import kernels
from .exactnum import sqrt_decimal

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


@dataclass(frozen=True)
class Segment:
    """A nondegenerate closed segment; coincident endpoints are rejected."""

    a: Point2
    b: Point2

    def __post_init__(self):
        if self.a == self.b:
            raise DegenerateSegmentError(f"degenerate segment at {self.a}")

    def quads(self) -> tuple:
        return self.a._q, self.b._q

    @property
    def length_sq(self) -> Fraction:
        return self.a.dist_sq(self.b)

    def contains(self, q: Point2) -> bool:
        return kernels.on_segment(q._q, self.a._q, self.b._q)

    def at(self, t: Fraction) -> Point2:
        t = Fraction(t)
        return _from_quad(kernels.lerp(self.a._q, self.b._q, t.numerator, t.denominator))

    def __str__(self) -> str:
        return f"[{self.a} -> {self.b}]"


def segment(ax, ay, bx, by) -> Segment:
    return Segment(point(ax, ay), point(bx, by))


@dataclass(frozen=True)
class PLPath:
    """A parametrized piecewise-linear path on [0, 1].

    Breakpoints are (t, point) pairs with t strictly increasing from 0 to 1;
    between breakpoints the path is the exact linear interpolation.
    Consecutive equal points are allowed and denote a constant stretch.
    The tuple of breakpoint parameters is stored once, as ``params``.
    Parameters may be given as ints, strings or Fractions and are stored as
    Fractions; their order is checked on integers, by cross-multiplying
    numerators and denominators.
    """

    breakpoints: tuple
    params: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bks = self.breakpoints
        if type(bks) is not tuple or any(type(t) is not Fraction for t, _ in bks):
            bks = tuple((t if type(t) is Fraction else Fraction(t), p) for t, p in bks)
            object.__setattr__(self, "breakpoints", bks)
        ts = tuple(t for t, _ in bks)
        object.__setattr__(self, "params", ts)
        if len(bks) < 2:
            raise PathInvariantError("a path needs at least two breakpoints")
        if ts[0].numerator != 0 or ts[-1].numerator != 1 or ts[-1].denominator != 1:
            raise PathInvariantError("path parameters must start at 0 and end at 1")
        n0, d0 = 0, 1
        for t in ts[1:]:
            n, d = t.numerator, t.denominator
            if n * d0 <= n0 * d:
                raise PathInvariantError(f"breakpoint parameters not strictly increasing at t={t}")
            n0, d0 = n, d

    @property
    def points(self) -> tuple:
        return tuple(p for _, p in self.breakpoints)

    def at(self, t) -> Point2:
        """Exact evaluation by linear interpolation; t must lie in [0, 1]."""
        t = Fraction(t)
        if t < 0 or t > 1:
            raise ParameterRangeError(f"parameter {t} outside [0, 1]")
        return _point_on_piece(self.breakpoints, bisect_right(self.params, t) - 1, t)

    def pieces(self):
        """Consecutive breakpoint pairs ((t0, p0), (t1, p1))."""
        return tuple(zip(self.breakpoints, self.breakpoints[1:]))

    def with_params(self, extra: Iterable[Fraction]) -> "PLPath":
        """Same path with additional breakpoints inserted (geometry unchanged).

        One merge of the sorted extras into ``params``, compared on
        integers; a new point is interpolated on its piece as a kernel quad.
        """
        return _refine(self, extra)[0]

    def reversed(self) -> "PLPath":
        return PLPath(
            tuple(
                (Fraction(t.denominator - t.numerator, t.denominator), p)
                for t, p in reversed(self.breakpoints)
            )
        )


def _point_on_piece(bks: tuple, i: int, t: Fraction) -> Point2:
    """The point at t, which lies on piece i (t0 <= t < t1), or t = 1 at the last breakpoint."""
    t0, p0 = bks[i]
    if t == t0 or i == len(bks) - 1:
        return p0
    t1, p1 = bks[i + 1]
    u = (t - t0) / (t1 - t0)
    return _from_quad(kernels.lerp(p0._q, p1._q, u.numerator, u.denominator))


def _refine(path: PLPath, extra: Iterable) -> tuple:
    """``path.with_params(extra)``, and for each of its pieces the index of
    the piece of ``path`` it lies on.

    The sorted extras are merged into the breakpoints in one pass, compared
    by integer cross-multiplication; an extra equal to a breakpoint or to an
    earlier extra adds nothing.
    """
    ex = sorted(Fraction(t) for t in extra)
    if ex and (ex[0] < 0 or ex[-1] > 1):
        bad = ex[0] if ex[0] < 0 else ex[bisect_right(ex, 1)]
        raise ParameterRangeError(f"parameter {bad} outside [0, 1]")
    bks = path.breakpoints
    out, owner = [bks[0]], [0]
    i = 1  # the next breakpoint of the path; the current piece is i - 1
    for t in ex:
        n, d = t.numerator, t.denominator
        ti = bks[i][0]
        c = n * ti.denominator - ti.numerator * d
        while c > 0:
            out.append(bks[i])
            owner.append(i)
            i += 1
            ti = bks[i][0]
            c = n * ti.denominator - ti.numerator * d
        prev = out[-1][0]
        if c == 0 or (prev.numerator == n and prev.denominator == d):
            continue
        lo, hi = bks[i - 1], bks[i]
        p = lo[1] if lo[1] == hi[1] else _from_quad(_quad_between(lo, hi, t))
        out.append((t, p))
        owner.append(i - 1)
    out.extend(bks[i:])
    owner.extend(range(i, len(bks) - 1))
    return PLPath(tuple(out)), tuple(owner)


def pl_path(raw: Sequence) -> PLPath:
    """Build a PLPath from (t, x, y) triples of rationals."""
    return PLPath(tuple((rat(t), point(x, y)) for t, x, y in raw))


@dataclass(frozen=True)
class ExactDistance:
    """A certified distance: exact squared rational plus decimal renderings."""

    squared: Fraction
    attained_at: Fraction

    def decimal(self, digits: int = DEFAULT_DIGITS) -> str:
        return sqrt_decimal(self.squared, digits)

    def __str__(self) -> str:
        return f"sqrt({self.squared})"


def sup_distance(f: PLPath, g: PLPath) -> ExactDistance:
    """Exact sup-metric distance between two parametrized paths.

    On each interval of the common parameter refinement the difference
    f - g is affine, so its norm is convex and maximized at an interval
    endpoint; the sup is therefore the maximum of finitely many exact
    point distances. The refinement is one merge of the two breakpoint
    tuples on integers: parameters are compared by cross-multiplication,
    a parameter of one path only is interpolated on the other's current
    piece as a kernel quad, and the running maximum is a reduced int pair.
    The first parameter attaining the maximum is returned with it.
    """
    fb, gb = f.breakpoints, g.breakpoints
    best_n, best_d = 0, 1
    arg = fb[0][0]
    i = j = 0
    while i < len(fb):
        tf, p = fb[i]
        tg, q = gb[j]
        c = tf.numerator * tg.denominator - tg.numerator * tf.denominator
        if c == 0:
            t, pq, qq = tf, p._q, q._q
            i += 1
            j += 1
        elif c < 0:
            t, pq, qq = tf, p._q, _quad_between(gb[j - 1], gb[j], tf)
            i += 1
        else:
            t, pq, qq = tg, _quad_between(fb[i - 1], fb[i], tg), q._q
            j += 1
        n, d = kernels.point_dist_sq(pq, qq)
        if n * best_d > best_n * d:
            best_n, best_d, arg = n, d, t
    return ExactDistance(Fraction(best_n, best_d), arg)


def _quad_between(lo: tuple, hi: tuple, t: Fraction) -> tuple:
    """The kernel quad at t of the piece from breakpoint lo to hi, t0 < t < t1."""
    (t0, p0), (t1, p1) = lo, hi
    if p0 == p1:
        return p0._q
    # u = (t - t0) / (t1 - t0) as an unreduced pair with a positive denominator
    n, d = t.numerator, t.denominator
    n0, d0 = t0.numerator, t0.denominator
    n1, d1 = t1.numerator, t1.denominator
    return kernels.lerp(p0._q, p1._q, (n * d0 - n0 * d) * d1, d * (n1 * d0 - n0 * d1))


def point_segment_distance_sq(q: Point2, s: Segment) -> Fraction:
    """Exact squared distance from a point to a closed segment."""
    n, d = kernels.point_seg_dist_sq(q._q, s.a._q, s.b._q)
    return Fraction(n, d)


SegIntersection = Union[None, Point2, Segment]


def segments_intersect(s1: Segment, s2: Segment) -> SegIntersection:
    """Exact intersection classification: None, a single Point2, or a Segment."""
    res = kernels.seg_intersect(s1.a._q, s1.b._q, s2.a._q, s2.b._q)
    if res[0] == kernels.SEG_NONE:
        return None
    if res[0] == kernels.SEG_POINT:
        return _from_quad(res[1])
    return Segment(_from_quad(res[1]), _from_quad(res[2]))


def segment_segment_distance_sq(s1: Segment, s2: Segment) -> Fraction:
    n, den = kernels.seg_seg_dist_sq(s1.a._q, s1.b._q, s2.a._q, s2.b._q)
    return Fraction(n, den)

