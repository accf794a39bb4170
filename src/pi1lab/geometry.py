"""Exact rational planar primitives.

Points, segments and piecewise-linear paths over arbitrary-precision
rationals; the sup metric between parametrized paths; exact squared
Hausdorff distance between compact PL sets. No floating point participates
in any predicate or returned value — distances are carried as exact squared
rationals, with decimal renderings (round-half-even) provided for reports.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Sequence, Union

from . import kernels
from .exactnum import SqrtExt, rational_decimal, sqrt_decimal

Rational = Fraction

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


class ExactnessError(GeometryError):
    """The exact answer is a quadratic irrational and cannot be returned
    as a rational; carries a decimal enclosure for diagnosis."""


@dataclass(frozen=True, eq=False)
class Point2:
    """An exact planar point.

    Its kernel quad ``(xn, xd, yn, yd)`` is computed once, at construction.
    Fractions are always in lowest terms, so two points are equal exactly
    when their quads are, and equality and hashing compare quads.
    """

    x: Fraction
    y: Fraction
    _q: tuple = field(init=False, repr=False)

    def __post_init__(self):
        x, y = self.x, self.y
        if type(x) is not Fraction:
            x = Fraction(x)
            object.__setattr__(self, "x", x)
        if type(y) is not Fraction:
            y = Fraction(y)
            object.__setattr__(self, "y", y)
        object.__setattr__(self, "_q", (x.numerator, x.denominator, y.numerator, y.denominator))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._q == other._q
        return NotImplemented

    def __hash__(self):
        return hash(self._q)

    def quad(self) -> tuple:
        """Kernel wire format: (xn, xd, yn, yd)."""
        return self._q

    def dist_sq(self, other: "Point2") -> Fraction:
        n, d = kernels.point_dist_sq(self.quad(), other.quad())
        return Fraction(n, d)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def point(x, y) -> Point2:
    return Point2(rat(x), rat(y))


ORIGIN = point(0, 0)


def _from_quad(q) -> Point2:
    return Point2(Fraction(q[0], q[1]), Fraction(q[2], q[3]))


@dataclass(frozen=True)
class Segment:
    """A nondegenerate closed segment; coincident endpoints are rejected."""

    a: Point2
    b: Point2

    def __post_init__(self):
        if self.a == self.b:
            raise DegenerateSegmentError(f"degenerate segment at {self.a}")

    def quads(self) -> tuple:
        return self.a.quad(), self.b.quad()

    @property
    def length_sq(self) -> Fraction:
        return self.a.dist_sq(self.b)

    def contains(self, q: Point2) -> bool:
        aq, bq = self.quads()
        return kernels.on_segment(q.quad(), aq, bq)

    def at(self, t: Fraction) -> Point2:
        t = Fraction(t)
        return _from_quad(kernels.lerp(self.a.quad(), self.b.quad(), t.numerator, t.denominator))

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
    return _from_quad(kernels.lerp(p0.quad(), p1.quad(), u.numerator, u.denominator))


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


def evaluate(path: PLPath, t) -> Point2:
    """Exact point of the path at parameter t."""
    return path.at(t)


@dataclass(frozen=True)
class ExactDistance:
    """A certified distance: exact squared rational plus decimal renderings."""

    squared: Fraction
    attained_at: Fraction

    def decimal(self, digits: int = DEFAULT_DIGITS) -> str:
        return sqrt_decimal(self.squared, digits)

    def squared_decimal(self, digits: int = DEFAULT_DIGITS) -> str:
        return rational_decimal(self.squared, digits)

    def less_than(self, bound: Fraction) -> bool:
        """Exactly decide distance < bound for a nonnegative rational bound."""
        bound = Fraction(bound)
        if bound < 0:
            return False
        return self.squared < bound * bound

    def __str__(self) -> str:
        return f"sqrt({self.squared})"


def common_refinement(f: PLPath, g: PLPath) -> tuple:
    return tuple(sorted(set(f.params) | set(g.params)))


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
    aq, bq = s.quads()
    n, d = kernels.point_seg_dist_sq(q.quad(), aq, bq)
    return Fraction(n, d)


SegIntersection = Union[None, Point2, Segment]


def segments_intersect(s1: Segment, s2: Segment) -> SegIntersection:
    """Exact intersection classification: None, a single Point2, or a Segment."""
    a, b = s1.quads()
    c, d = s2.quads()
    res = kernels.seg_intersect(a, b, c, d)
    if res[0] == kernels.SEG_NONE:
        return None
    if res[0] == kernels.SEG_POINT:
        return _from_quad(res[1])
    return Segment(_from_quad(res[1]), _from_quad(res[2]))


def segment_segment_distance_sq(s1: Segment, s2: Segment) -> Fraction:
    a, b = s1.quads()
    c, d = s2.quads()
    n, den = kernels.seg_seg_dist_sq(a, b, c, d)
    return Fraction(n, den)


# -- exact Hausdorff distance ------------------------------------------------
#
# The directed distance from a source segment to a target set is the maximum
# of the lower envelope of finitely many convex quadratics of the source
# parameter (one per active target feature). The envelope is piecewise
# convex, so its maximum sits at an interval endpoint or at a crossing where
# the nearest feature changes. Crossing parameters can be quadratic
# irrationals; those are handled exactly through SqrtExt and only ever
# surface as an error if the final answer itself is irrational.


def _quad_at(c2: Fraction, c1: Fraction, c0: Fraction, t: Fraction) -> Fraction:
    return c2 * t * t + c1 * t + c0


def _quad_at_surd(c2, c1, c0, ta: Fraction, tb: Fraction, r: int) -> SqrtExt:
    # value at t = ta + tb*sqrt(r):  c2*t^2 + c1*t + c0
    a = c2 * (ta * ta + tb * tb * r) + c1 * ta + c0
    b = c2 * 2 * ta * tb + c1 * tb
    return SqrtExt(a, b, r)


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _feature_quads(p: Point2, v: tuple, target: Segment):
    """Quadratic coefficient triples for distance^2 from p + t*v to the
    target's three features (endpoint a, interior line, endpoint b)."""
    vx, vy = v
    c, d = target.a, target.b
    wx, wy = d.x - c.x, d.y - c.y
    ww = wx * wx + wy * wy

    def point_quad(e: Point2):
        dx, dy = p.x - e.x, p.y - e.y
        return (vx * vx + vy * vy, 2 * (vx * dx + vy * dy), dx * dx + dy * dy)

    cv = vx * wy - vy * wx
    c0 = (p.x - c.x) * wy - (p.y - c.y) * wx
    line_quad = (cv * cv / ww, 2 * cv * c0 / ww, c0 * c0 / ww)
    return point_quad(c), line_quad, point_quad(d)


def _directed_candidates(sources, targets):
    """All maximum candidates for the directed distance^2 from the union of
    ``sources`` to the union of ``targets``: (rational_max, irrational_list)."""
    best = Fraction(0)
    irrational = []
    targets = tuple(targets)
    for s in sources:
        p = s.a
        v = (s.b.x - s.a.x, s.b.y - s.a.y)
        feature_data = []
        cuts = {Fraction(0), Fraction(1)}
        for tg in targets:
            wx, wy = tg.b.x - tg.a.x, tg.b.y - tg.a.y
            ww = wx * wx + wy * wy
            alpha = (v[0] * wx + v[1] * wy) / ww
            beta = ((p.x - tg.a.x) * wx + (p.y - tg.a.y) * wy) / ww
            if alpha != 0:
                for target_u in (0, 1):
                    t = (target_u - beta) / alpha
                    if 0 < t < 1:
                        cuts.add(t)
            feature_data.append((alpha, beta, _feature_quads(p, v, tg)))
        ts = sorted(cuts)
        for ta, tb in zip(ts, ts[1:]):
            tm = (ta + tb) / 2
            quads = []
            for alpha, beta, (qa, ql, qb) in feature_data:
                u = alpha * tm + beta
                quads.append(qa if u <= 0 else (qb if u >= 1 else ql))
            env_at = lambda t: min(_quad_at(*q, t) for q in quads)
            for t in (ta, tb):
                val = env_at(t)
                if val > best:
                    best = val
            for i in range(len(quads)):
                for j in range(i + 1, len(quads)):
                    a2 = quads[i][0] - quads[j][0]
                    a1 = quads[i][1] - quads[j][1]
                    a0 = quads[i][2] - quads[j][2]
                    roots_rational = []
                    roots_surd = []
                    if a2 == 0:
                        if a1 != 0:
                            roots_rational.append(-a0 / a1)
                    else:
                        disc = a1 * a1 - 4 * a2 * a0
                        if disc < 0:
                            continue
                        root = _fraction_sqrt(disc)
                        if root is not None:
                            roots_rational.extend(
                                [(-a1 + root) / (2 * a2), (-a1 - root) / (2 * a2)]
                            )
                        else:
                            # t = -a1/(2*a2) +- (1/(2*a2)) * sqrt(disc)
                            base = -a1 / (2 * a2)
                            coef = Fraction(1, 2) / a2
                            rad = disc
                            for sgn in (1, -1):
                                roots_surd.append((base, sgn * coef, rad))
                    for t in roots_rational:
                        if ta < t < tb:
                            val = env_at(t)
                            if val > best:
                                best = val
                    for base, coef, rad in roots_surd:
                        # rad is a positive non-square rational; normalize to
                        # an integer radicand: sqrt(n/d) = sqrt(n*d)/d
                        rint = rad.numerator * rad.denominator
                        coef2 = coef / rad.denominator
                        tval = SqrtExt(base, coef2, rint)
                        if not (
                            tval.cmp_rational(ta) > 0 and tval.cmp_rational(tb) < 0
                        ):
                            continue
                        vstar = _quad_at_surd(*quads[i], base, coef2, rint)
                        on_envelope = all(
                            _quad_at_surd(*q, base, coef2, rint).cmp(vstar) >= 0
                            for q in quads
                        )
                        if on_envelope:
                            irrational.append(vstar)
    return best, irrational


def hausdorff_distance_sq(a_set: Iterable[Segment], b_set: Iterable[Segment]) -> Fraction:
    """Exact squared Hausdorff distance between two nonempty closed PL sets.

    Raises :class:`ExactnessError` in the (measure-zero) configurations where
    the true value is a quadratic irrational and therefore not expressible as
    a rational; none of the spaces this package constructs trigger it.
    """
    a_set, b_set = tuple(a_set), tuple(b_set)
    if not a_set or not b_set:
        raise GeometryError("Hausdorff distance needs nonempty segment sets")
    best_ab, irr_ab = _directed_candidates(a_set, b_set)
    best_ba, irr_ba = _directed_candidates(b_set, a_set)
    best = max(best_ab, best_ba)
    beating = [x for x in irr_ab + irr_ba if x.cmp_rational(best) > 0]
    if beating:
        top = beating[0]
        for x in beating[1:]:
            if x.cmp(top) > 0:
                top = x
        raise ExactnessError(
            "exact Hausdorff distance^2 is irrational; enclosure "
            f"~{top.decimal(50)}"
        )
    return best
