"""Independent reference implementations that tests check the package against.

* :func:`hausdorff_distance_sq`, the exact squared Hausdorff distance between
  two arbitrary finite sets of segments, by the lower envelope of the
  distance quadratics. The package computes d_H(C_n, alpha) by a closed form
  that holds only for its triangles; this general routine is the oracle for
  that closed form.
* :class:`SqrtExt`, exact numbers a + b*sqrt(r), which the envelope needs
  where the nearest feature changes at a quadratic-irrational parameter.
* :func:`sqrt_leq_sqrt_plus_sqrt`, an exact triangle-inequality check on
  squared distances.
* :func:`common_refinement`, the sorted union of two paths' parameters: the
  sup distance, evaluated pointwise on it, checks the package's one-pass
  merge.
* the helper-based integer kernels (:func:`orient`, :func:`on_segment`,
  :func:`point_dist_sq`, :func:`lerp`, :func:`foot_param`,
  :func:`point_seg_dist_sq`, :func:`seg_intersect`),
  written with a ``_dx``/``_dy`` call per coordinate difference and no
  cancelled factor: the reference for the flat kernels of
  ``pi1lab.kernels``, which must give the same signs and reduced results.
* :func:`refine`, :func:`subdivide` and :func:`reparametrize`, on
  Fractions: a path with breakpoints added and read off ``PLPath.at``, a
  loop so refined with each new piece charted on the edge of its old
  piece, and a loop precomposed with a monotone PL bijection of [0, 1]. The
  package has none of them; tests use them to vary a loop's
  parametrization and check that its class does not change.
* the excursion records that ``pi1lab.loops`` built before it read
  excursions as spans of one chart scan: :func:`excursions` slices a
  loop's breakpoints into :class:`Excursion` records, :func:`lift_degree`
  lifts each one's degree, :func:`apex_on_excursion` tests its pieces with
  ``Segment.contains``, and :func:`breakpoints` and :func:`subpath` read
  its slice. On them, :func:`spans`, :func:`classify`, :func:`cutoff` and
  :func:`collapse_to_x` are the reference for the span readers of
  ``pi1lab.pi1``.
* the discreteness perturbation in two steps, as ``pi1lab.pi1`` built it
  before its one walk: :func:`perturb_once` subdivides the loop with
  :func:`subdivide`, then slides the :func:`slide_candidates` of the
  subdivided loop and bounces off p, with the same random draws in the same order.
* the circles as ``pi1lab.spaces`` built them before it worked on int
  quads: :func:`build_circle` computes the vertices as Fractions and refuses
  collinear ones with ``orient``, and :func:`certify` reads both widths from
  the profile and tests the cone certificate with ``orient``.
  :func:`edges_containing` and :func:`membership` locate a point by testing
  alpha and all three edges of its candidate circle with :func:`on_segment`.
* a ``points`` literal as ``pi1lab.dsl`` parsed it before it kept int
  pairs: :func:`points_literal` parses each t, x and y to a Fraction with
  :func:`parse_rational` and weighs the triples over Fractions; the loop
  is then ``loop_from_breakpoints`` of the triples.
* the stability radius as ``pi1lab.pi1`` computed it before its proof
  that one distance per index-adjacent pair of touched circles is the
  least: :func:`stability_radius` measures every pair of touched circles,
  all nine pairs of their p-distal edge halves.

No floating point is involved anywhere. Tests import this module as
``oracles``; ``tests/`` has no ``__init__.py``, so pytest puts it on the path.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Optional

from pi1lab.dsl import MAX_CIRCLE_INDEX, DslError
from pi1lab.exactnum import _format_scaled, rational_decimal
from pi1lab.geometry import ORIGIN, GeometryError, PLPath, Point2, Segment, _from_quad, _path
from pi1lab.loops import InvalidLoopError, Loop, _charted
from pi1lab.pi1 import ClassificationError
from pi1lab.spaces import (
    ALPHA,
    ALPHA_EDGE,
    ALPHA_SEGMENT,
    POW10,
    Circle,
    Membership,
    SpaceConsistencyError,
    SpaceError,
    SpaceKind,
    candidate_circle,
    component_name,
)
from pi1lab.words import QUOTE_CHARS, cut, quote, reduce_letters


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sqrt_leq_sqrt_plus_sqrt(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Decide sqrt(a) <= sqrt(b) + sqrt(c) exactly, for nonnegative rationals.

    Used for triangle-inequality checks on squared distances. Equivalent to
    a - b - c <= 2*sqrt(b*c), squared once after a sign check.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("arguments must be nonnegative")
    t = a - b - c
    if t <= 0:
        return True
    return t * t <= 4 * b * c


def common_refinement(f: PLPath, g: PLPath) -> tuple:
    return tuple(sorted(set(f.params) | set(g.params)))


@dataclass(frozen=True)
class SqrtExt:
    """The exact real number a + b*sqrt(r), with a, b rational and r >= 0.

    Normalized so that r is 0 or a non-square positive integer and b == 0
    iff r == 0. Supports exact sign determination and total-order comparison
    against rationals and other SqrtExt values (including values written
    over different radicands).
    """

    a: Fraction
    b: Fraction
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("radicand must be nonnegative")
        a, b, r = self.a, self.b, self.r
        if b == 0 or r == 0:
            a, b, r = a, Fraction(0), 0
        else:
            root = isqrt(r)
            if root * root == r:
                a, b, r = a + b * root, Fraction(0), 0
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "r", r)

    @classmethod
    def sqrt_of(cls, q) -> "SqrtExt":
        """sqrt of a nonnegative rational: sqrt(n/d) = sqrt(n*d)/d."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("cannot take the square root of a negative value")
        return cls(Fraction(0), Fraction(1, q.denominator), q.numerator * q.denominator)

    @property
    def is_rational(self) -> bool:
        return self.r == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("value is irrational")
        return self.a

    def sign(self) -> int:
        if self.r == 0:
            return _sign(self.a)
        if self.a == 0:
            return _sign(self.b)
        sa, sb = _sign(self.a), _sign(self.b)
        if sa == sb:
            return sa
        t = self.a * self.a - self.b * self.b * self.r
        if t == 0:
            return 0
        return sa if t > 0 else sb

    def cmp_rational(self, q) -> int:
        return SqrtExt(self.a - Fraction(q), self.b, self.r).sign()

    def cmp(self, other: "SqrtExt") -> int:
        if self.r == other.r or other.r == 0:
            return SqrtExt(self.a - other.a, self.b - other.b, self.r).sign()
        if self.r == 0:
            return -other.cmp(self)
        # compare L = (a1-a2) + b1*sqrt(r1) against R = b2*sqrt(r2)
        left = SqrtExt(self.a - other.a, self.b, self.r)
        sl, sr = left.sign(), _sign(other.b)
        if sr == 0:
            return sl
        if sl == 0:
            return -sr
        if sl != sr:
            return sl
        # both sides share a sign; compare squares (order flips if negative)
        lsq = SqrtExt(
            left.a * left.a + left.b * left.b * left.r,
            2 * left.a * left.b,
            left.r,
        )
        d = lsq.cmp_rational(other.b * other.b * other.r)
        return d if sl > 0 else -d

    def __lt__(self, other: "SqrtExt") -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: "SqrtExt") -> bool:
        return self.cmp(other) <= 0

    def _floor_scaled(self, digits: int) -> int:
        """floor(value * 10**digits), exact via bracketed integer search."""
        scale = 10**digits
        av = self.a * scale
        if self.r == 0:
            return av.numerator // av.denominator
        bv = self.b * scale
        root_hi = isqrt(self.r) + 1
        mag = abs(av.numerator) // av.denominator + 1
        mag += (abs(bv.numerator) // bv.denominator + 1) * root_hi
        lo, hi = -mag - 1, mag + 1
        # invariant: lo <= value*scale < hi is false only before first shrink
        while hi - lo > 1:
            mid = (lo + hi) // 2
            scaled = SqrtExt(self.a * scale - mid, self.b * scale, self.r)
            if scaled.sign() >= 0:
                lo = mid
            else:
                hi = mid
        return lo

    def decimal(self, digits: int) -> str:
        """Fixed-point rendering with round-half-even, exact tie handling."""
        if self.r == 0:
            return rational_decimal(self.a, digits)
        scale = 10**digits
        fl = self._floor_scaled(digits)
        # compare value*scale with fl + 1/2
        d = SqrtExt(self.a * scale - (Fraction(2 * fl + 1, 2)), self.b * scale, self.r).sign()
        if d > 0 or (d == 0 and fl % 2 == 1):
            fl += 1
        return _format_scaled(fl, digits)


# -- exact Hausdorff distance ------------------------------------------------
#
# The directed distance from a source segment to a target set is the maximum
# of the lower envelope of finitely many convex quadratics of the source
# parameter (one per active target feature). The envelope is piecewise
# convex, so its maximum sits at an interval endpoint or at a crossing where
# the nearest feature changes. Crossing parameters can be quadratic
# irrationals; those are handled exactly through SqrtExt and only ever
# surface as an error if the final answer itself is irrational.


class ExactnessError(GeometryError):
    """The exact answer is a quadratic irrational and cannot be returned
    as a rational; carries a decimal enclosure for diagnosis."""


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
    a rational.
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

# -- helper-based integer kernels ----------------------------------------------

SEG_NONE = "none"
SEG_POINT = "point"
SEG_OVERLAP = "overlap"


def rred(n, d):
    """Reduce n/d to lowest terms with a positive denominator."""
    if d == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if d < 0:
        n, d = -n, -d
    if n == 0:
        return 0, 1
    g = gcd(n, d)
    return n // g, d // g


def rcmp(n1, d1, n2, d2):
    """Sign of n1/d1 - n2/d2 (positive denominators assumed)."""
    t = n1 * d2 - n2 * d1
    return (t > 0) - (t < 0)


def rdiv(n1, d1, n2, d2):
    return rred(n1 * d2, d1 * n2)


def _dx(p, q):
    # q.x - p.x as an unreduced pair
    return q[0] * p[1] - p[0] * q[1], p[1] * q[1]


def _dy(p, q):
    return q[2] * p[3] - p[2] * q[3], p[3] * q[3]


def orient(p, q, r):
    """Sign of the cross product (q - p) x (r - p): +1 left turn, -1 right, 0 collinear."""
    a1, b1 = _dx(p, q)
    a2, b2 = _dy(p, r)
    a3, b3 = _dy(p, q)
    a4, b4 = _dx(p, r)
    t = a1 * a2 * b3 * b4 - a3 * a4 * b1 * b2
    return (t > 0) - (t < 0)


def point_dist_sq(p, q):
    """Exact squared Euclidean distance between two points, as a reduced pair."""
    dxn, dxd = _dx(p, q)
    dyn, dyd = _dy(p, q)
    num = dxn * dxn * dyd * dyd + dyn * dyn * dxd * dxd
    den = dxd * dxd * dyd * dyd
    return rred(num, den)


def on_segment(q, a, b):
    """True iff q lies on the closed segment [a, b]."""
    if orient(a, b, q) != 0:
        return False
    lox, hix = (a, b) if rcmp(a[0], a[1], b[0], b[1]) <= 0 else (b, a)
    if rcmp(q[0], q[1], lox[0], lox[1]) < 0 or rcmp(q[0], q[1], hix[0], hix[1]) > 0:
        return False
    loy, hiy = (a, b) if rcmp(a[2], a[3], b[2], b[3]) <= 0 else (b, a)
    if rcmp(q[2], q[3], loy[2], loy[3]) < 0 or rcmp(q[2], q[3], hiy[2], hiy[3]) > 0:
        return False
    return True


def lerp(a, b, tn, td):
    """Point a + t*(b - a) for t = tn/td, coordinates reduced."""
    xn, xd = _dx(a, b)
    yn, yd = _dy(a, b)
    rxn, rxd = rred(a[0] * xd * td + tn * xn * a[1], a[1] * xd * td)
    ryn, ryd = rred(a[2] * yd * td + tn * yn * a[3], a[3] * yd * td)
    return rxn, rxd, ryn, ryd


def foot_param(q, a, b):
    """Unclamped projection parameter of q onto the line through a, b.

    Returns t with foot = a + t*(b - a); b must differ from a.
    """
    vxn, vxd = _dx(a, b)
    vyn, vyd = _dy(a, b)
    wxn, wxd = _dx(a, q)
    wyn, wyd = _dy(a, q)
    dot_n = wxn * vxn * wyd * vyd + wyn * vyn * wxd * vxd
    dot_d = wxd * vxd * wyd * vyd
    vv_n = vxn * vxn * vyd * vyd + vyn * vyn * vxd * vxd
    vv_d = vxd * vxd * vyd * vyd
    return rdiv(dot_n, dot_d, vv_n, vv_d)


def point_seg_dist_sq(q, a, b):
    """Exact squared distance from q to the closed segment [a, b]."""
    tn, td = foot_param(q, a, b)
    if tn <= 0:
        return point_dist_sq(q, a)
    if tn >= td:
        return point_dist_sq(q, b)
    # perpendicular case: cross(w, v)^2 / |v|^2
    vxn, vxd = _dx(a, b)
    vyn, vyd = _dy(a, b)
    wxn, wxd = _dx(a, q)
    wyn, wyd = _dy(a, q)
    cr_n = wxn * vyn * wyd * vxd - wyn * vxn * wxd * vyd
    cr_d = wxd * vyd * wyd * vxd
    vv_n = vxn * vxn * vyd * vyd + vyn * vyn * vxd * vxd
    vv_d = vxd * vxd * vyd * vyd
    return rdiv(cr_n * cr_n, cr_d * cr_d, vv_n, vv_d)


def seg_intersect(a, b, c, d):
    """Exact intersection of segments [a, b] and [c, d].

    Returns ``(SEG_NONE,)``, ``(SEG_POINT, p)`` or ``(SEG_OVERLAP, p, q)``
    with exact rational points; overlap endpoints are ordered along [a, b].
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 == 0 and o2 == 0:
        # collinear: overlap interval in [a,b]-parameters
        tc = foot_param(c, a, b)
        td_ = foot_param(d, a, b)
        lo, hi = (tc, td_) if rcmp(*tc, *td_) <= 0 else (td_, tc)
        lo = lo if rcmp(*lo, 0, 1) > 0 else (0, 1)
        hi = hi if rcmp(*hi, 1, 1) < 0 else (1, 1)
        s = rcmp(*lo, *hi)
        if s > 0:
            return (SEG_NONE,)
        if s == 0:
            return (SEG_POINT, lerp(a, b, *lo))
        return (SEG_OVERLAP, lerp(a, b, *lo), lerp(a, b, *hi))
    if o1 * o2 < 0 and o3 * o4 < 0:
        # proper crossing: t = cross(c-a, d-c) / cross(b-a, d-c) along [a,b]
        num = _cross_of_diffs(a, c, c, d)
        den = _cross_of_diffs(a, b, c, d)
        t = rdiv(num[0], num[1], den[0], den[1])
        return (SEG_POINT, lerp(a, b, *t))
    # touching configurations: a single shared point if any
    for q, s0, s1 in ((c, a, b), (d, a, b), (a, c, d), (b, c, d)):
        if on_segment(q, s0, s1):
            return (SEG_POINT, q)
    return (SEG_NONE,)


def _cross_of_diffs(p1, p2, p3, p4):
    # cross(p2 - p1, p4 - p3) as an unreduced pair
    axn, axd = _dx(p1, p2)
    ayn, ayd = _dy(p1, p2)
    bxn, bxd = _dx(p3, p4)
    byn, byd = _dy(p3, p4)
    num = axn * byn * ayd * bxd - ayn * bxn * axd * byd
    den = axd * byd * ayd * bxd
    return num, den


def seg_seg_dist_sq(a, b, c, d):
    """Exact squared distance between two closed segments."""
    if seg_intersect(a, b, c, d)[0] != SEG_NONE:
        return 0, 1
    best = point_seg_dist_sq(a, c, d)
    for cand in (
        point_seg_dist_sq(b, c, d),
        point_seg_dist_sq(c, a, b),
        point_seg_dist_sq(d, a, b),
    ):
        if rcmp(*cand, *best) < 0:
            best = cand
    return best


# -- refinement and reparametrization ------------------------------------------


def refine(path, extra):
    """The path with breakpoints added at the rationals ``extra``: the sorted
    union of its parameters and ``extra``, each point read by ``PLPath.at``."""
    ts = sorted(set(path.params).union(map(Fraction, extra)))
    return PLPath(tuple((t, path.at(t)) for t in ts))


def subdivide(loop, extra):
    """The loop refined at ``extra``, each piece charted on the edge of the
    piece of ``loop`` that holds it, found by bisection."""
    path, params = refine(loop.path, extra), loop.path.params
    chart = tuple(loop._chart[bisect_right(params, t) - 1] for t in path.params[:-1])
    return _charted(path, loop.space, chart)


def reparametrize(loop, pairs):
    """The loop precomposed with the monotone PL bijection of [0, 1] through
    the (s, t) ``pairs``, from (0, 0) to (1, 1): the same image with the same
    orientation. Its breakpoints are the s of the pairs and the preimages of
    the loop's parameters, and its path is located afresh by ``Loop``."""
    pairs = [(Fraction(s), Fraction(t)) for s, t in pairs]
    ss, pieces = {s for s, _ in pairs}, list(zip(pairs, pairs[1:]))
    for (s0, t0), (s1, t1) in pieces:
        ss.update(s0 + (t - t0) * (s1 - s0) / (t1 - t0) for t in loop.path.params if t0 <= t <= t1)

    def phi(s):
        (s0, t0), (s1, t1) = next(piece for piece in pieces if piece[0][0] <= s <= piece[1][0])
        return t0 + (s - s0) * (t1 - t0) / (s1 - s0)

    return Loop(PLPath(tuple((s, loop.path.at(phi(s))) for s in sorted(ss))), loop.space)


# -- excursion records ---------------------------------------------------------


@dataclass(frozen=True)
class Excursion:
    """A maximal sub-loop away from p: the loop's breakpoints from p to p,
    parameters ``ts`` as int pairs and ``points``, the edge of each piece,
    and the index ``first`` of its first breakpoint in the loop. Its
    ``component`` is its circle's index n, or ALPHA."""

    component: int
    ts: tuple
    points: tuple
    piece_edges: tuple
    space: object
    first: int

    @property
    def t_start(self):
        return Fraction(*self.ts[0])

    @property
    def t_end(self):
        return Fraction(*self.ts[-1])


def excursions(loop):
    """The loop's maximal excursions away from p, as ``Excursion`` records."""
    edges = loop._chart
    ts, pts, space = loop.path._ts, loop.path.points, loop.space
    base = ORIGIN._q
    p_idx = [i for i, q in enumerate(pts) if q._q == base]
    out = []
    for i, j in zip(p_idx, p_idx[1:]):
        if j == i + 1:
            continue
        piece_edges = edges[i:j]
        comps = {ref[0] for ref in piece_edges if ref is not None}
        if len(comps) != 1:
            raise InvalidLoopError(
                f"excursion on [{Fraction(*ts[i])}, {Fraction(*ts[j])}] spans components "
                f"{sorted(map(component_name, comps))}"
            )
        out.append(Excursion(comps.pop(), ts[i : j + 1], pts[i : j + 1], piece_edges, space, i))
    return tuple(out)


# The vertices p, B, D of a circle are numbered 0, 1, 2; edge j runs from
# vertex j to vertex _NEXT[j], and _SHARED[j][k] is the one vertex that the
# distinct edges j and k share.
_NEXT = (1, 2, 0)
_SHARED = ((None, 1, 0), (1, None, 2), (0, 2, None))


def _step(j, a, b):
    if a == b:
        return 0
    if a == j and b == _NEXT[j]:
        return 1
    if b == j and a == _NEXT[j]:
        return -1
    raise InvalidLoopError("excursion lift does not close up at p")


def lift_degree(exc):
    """The winding degree of a circle excursion: the steps of its vertex
    runs summed and divided by 3."""
    vertices = exc.space.circle(exc.component).vertices
    lift = 0
    at = 0
    run = None
    for q, ref in zip(exc.points, exc.piece_edges):
        if ref is None or ref[1] == run:
            continue
        j = ref[1]
        if run is not None:
            v = _SHARED[run][j]
            if q._q != vertices[v]._q:
                raise InvalidLoopError("discontinuous chart sequence in excursion")
            lift += _step(run, at, v)
            at = v
        run = j
    if run is None:
        return 0
    lift += _step(run, at, 0)
    if lift % 3 != 0:
        raise InvalidLoopError("excursion lift does not close up at p")
    return lift // 3


def apex_on_excursion(exc, apex):
    """Whether some piece of the excursion contains the point ``apex``."""
    pts = exc.points
    for p0, p1, ref in zip(pts, pts[1:], exc.piece_edges):
        if ref is None:
            if p0 == apex:
                return True
            continue
        if ref[1] == 2:
            continue
        if p0 == apex or p1 == apex or Segment(p0, p1).contains(apex):
            return True
    return False


def breakpoints(exc):
    """The excursion's (t, point) breakpoints, t as a Fraction."""
    return tuple((Fraction(n, d), q) for (n, d), q in zip(exc.ts, exc.points))


def subpath(exc):
    """The excursion's slice of its loop, renormalized to [0, 1]."""
    (n0, d0), (n1, d1) = exc.ts[0], exc.ts[-1]
    span_n, span_d = n1 * d0 - n0 * d1, d1 * d0
    ts = []
    for n, d in exc.ts:
        un, ud = (n * d0 - n0 * d) * span_d, d * d0 * span_n
        g = gcd(un, ud)
        ts.append((un // g, ud // g))
    return _path(tuple(ts), exc.points)


def spans(loop):
    """``(component, first, last, degree)`` of each excursion; alpha's is 0."""
    return tuple(
        (e.component, e.first, e.first + len(e.ts) - 1, 0 if e.component == ALPHA else lift_degree(e))
        for e in excursions(loop)
    )


def classify(loop, kind):
    """The word of the loop's circle excursions; an alpha excursion is an
    error in X."""
    letters = []
    for exc in excursions(loop):
        if exc.component == ALPHA:
            if kind is SpaceKind.BOUQUET_X:
                raise ClassificationError(
                    "loop leaves the bouquet: excursion into the limit segment "
                    f"on [{exc.t_start}, {exc.t_end}]"
                )
            continue
        d = lift_degree(exc)
        if d != 0:
            letters.append((exc.component, d))
    return reduce_letters(letters)


def cutoff(loop):
    """choose_n: one past the largest circle whose excursion has a nonzero
    degree or meets its apex, and at least 2."""
    worst = 1
    for exc in excursions(loop):
        n = exc.component
        if n <= worst:
            continue
        if lift_degree(exc) != 0 or apex_on_excursion(exc, loop.space.circle(n).apex):
            worst = n
    return max(2, worst + 1)


def collapse_to_x(loop):
    """The loop with its alpha excursions and its excursions at or past the
    cutoff replaced by one constant piece at p each, charted in X."""
    n_cut = cutoff(loop)
    edges = loop._chart
    ts, pts = loop.path._ts, loop.path.points
    new_ts, new_pts, new_edges = [], [], []
    k = 0
    for exc in excursions(loop):
        if exc.component != ALPHA and exc.component < n_cut:
            continue
        a, b = exc.first, exc.first + len(exc.ts) - 1
        new_ts += ts[k : a + 1]
        new_pts += pts[k : a + 1]
        new_edges += edges[k:a]
        new_edges.append(None)
        k = b
    new_ts += ts[k:]
    new_pts += pts[k:]
    new_edges += edges[k:]
    x_space = loop.space.sibling(SpaceKind.BOUQUET_X)
    return _charted(_path(tuple(new_ts), tuple(new_pts)), x_space, tuple(new_edges))


def slide_candidates(loop):
    """Interior breakpoints whose two adjacent pieces share one edge."""
    edges = loop._chart
    return [
        i
        for i in range(1, len(loop.path.points) - 1)
        if edges[i - 1] is not None and edges[i - 1] == edges[i]
    ]


def perturb_once(loop, rng, bound):
    """The perturbation of ``pi1lab.pi1._perturb_once`` in two steps: a
    subdivided copy of the loop at 1 to 3 drawn parameters, then slides of
    its candidates along their edges and one bounce at p, all on int
    pairs, with the reference kernels of this module."""
    grid = 64
    extra = []
    ts = loop.path._ts
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(ts) - 1)
        k = rng.randint(1, grid - 1)
        (n0, d0), (n1, d1) = ts[i], ts[i + 1]
        extra.append(Fraction(n0 * d1 * grid + (n1 * d0 - n0 * d1) * k, d0 * d1 * grid))
    work = subdivide(loop, extra)
    edges = work._chart
    pts = list(work.path.points)
    bn, bd = bound.numerator, bound.denominator
    for i in slide_candidates(work):
        if rng.random() < 0.5:
            continue
        seg = loop.space.edge_segment(edges[i - 1])
        _, hi_len = seg.length_bracket
        a, b = seg.a.quad(), seg.b.quad()
        un, ud = foot_param(pts[i].quad(), a, b)
        dd = bd * 2 * hi_len.numerator * grid
        n = un * dd + bn * hi_len.denominator * rng.randint(-grid, grid) * ud
        d = ud * dd
        if n <= 0:
            n, d = 0, 1
        elif n >= d:
            n, d = 1, 1
        pts[i] = _from_quad(lerp(a, b, n, d))
    qs = [q._q for q in pts]
    chart = [None if q0 == q1 else ref for q0, q1, ref in zip(qs, qs[1:], edges)]
    ts = list(work.path._ts)
    base = ORIGIN._q
    const_p = [i for i, (q0, q1) in enumerate(zip(qs, qs[1:])) if q0 == base == q1]
    if const_p and rng.random() < 0.75:
        i = rng.choice(const_p)
        touched = sorted({ref[0] for ref in edges if ref is not None} - {ALPHA})
        n = rng.choice(touched or [2])
        arm = 0 if rng.random() < 0.5 else 2
        arm_edge = loop.space.circle(n).edges[arm]
        _, hi_len = arm_edge.length_bracket
        dd = bd * 2 * hi_len.numerator * grid
        du = bn * hi_len.denominator * rng.randint(1, grid)
        u2 = (du, dd) if arm == 0 else (dd - du, dd)
        (n0, d0), (n1, d1) = ts[i], ts[i + 1]
        mn, md = n0 * d1 + n1 * d0, 2 * d0 * d1
        g = gcd(mn, md)
        ts.insert(i + 1, (mn // g, md // g))
        pts.insert(i + 1, _from_quad(lerp(arm_edge.a.quad(), arm_edge.b.quad(), *u2)))
        chart[i : i + 1] = [(n, arm)] * 2
    return _charted(_path(tuple(ts), tuple(pts)), loop.space, tuple(chart))


# -- circles -------------------------------------------------------------------


def width(profile, n):
    """w(n) as a Fraction, from the profile's ``fn`` itself: the oracles
    read no width pair the profile keeps."""
    w = profile.fn(n)
    return w if type(w) is Fraction else Fraction(w)


def build_circle(n, width_profile=POW10):
    """Exact triangle for index n: vertices p, (1/n, 1) and the cap point."""
    if n < 2:
        raise SpaceError(f"circle index must be >= 2, got {n}")
    w = width(width_profile, n)
    if w <= 0:
        raise SpaceConsistencyError(f"width profile {width_profile.name} gave w({n}) = {w} <= 0")
    apex = Point2(Fraction(1, n), Fraction(1))
    tail = Point2(apex.x + w * n, apex.y - w)
    if orient(ORIGIN.quad(), apex.quad(), tail.quad()) == 0:
        raise SpaceConsistencyError(f"degenerate circle {n}: vertices collinear")
    edges = (Segment(ORIGIN, apex), Segment(apex, tail), Segment(tail, ORIGIN))
    return Circle(n, apex, tail, edges)


def certify(circ, profile):
    """Refuse C_n (n >= 3) unless its width decreases and its cone certificate holds."""
    n = circ.index
    if not width(profile, n) < width(profile, n - 1):
        raise SpaceConsistencyError(
            f"width profile {profile.name} is not strictly decreasing between indices {n - 1} and {n}"
        )
    prev_apex = Point2(Fraction(1, n - 1), Fraction(1))
    if orient(ORIGIN.quad(), prev_apex.quad(), circ.tail.quad()) <= 0:
        raise SpaceConsistencyError(
            f"circles C{n} and C{n - 1} intersect beyond the base point: "
            f"the ray from p through {prev_apex} meets edge {circ.edges[1]}"
        )


@lru_cache(maxsize=None)
def _cached_circle(n, profile):
    return build_circle(n, profile)


@lru_cache(maxsize=None)
def edges_containing(space, q):
    """Every edge through q, a point other than p: alpha in Y, then each of
    the three edges of its candidate circle, all tested with on_segment.
    Kept per space and point, so ``membership`` reads it again for free."""
    qq = q.quad()
    out = []
    if space.has_alpha and on_segment(qq, *ALPHA_SEGMENT.quads()):
        out.append(ALPHA_EDGE)
    if qq[0] > 0:
        circ = _cached_circle(candidate_circle(qq), space.profile)
        out.extend((circ.index, j) for j, e in enumerate(circ.edges) if on_segment(qq, *e.quads()))
    return tuple(out)


def membership(space, q):
    """The stratum of q: p, alpha, the first edge through it, or outside."""
    if q == ORIGIN:
        return Membership("base")
    refs = edges_containing(space, q)
    if not refs:
        return Membership("outside")
    if refs[0] == ALPHA_EDGE:
        return Membership("alpha")
    return Membership("circle", *refs[0])


# -- points literals -------------------------------------------------------------

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text, line, col):
    """A rational literal as a Fraction, or the DslError that refuses it."""
    if not _RAT_RE.match(text):
        raise DslError(line, col, f"expected a rational like 3 or 1/10, got {quote(text)}")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise DslError(line, col, f"zero denominator in {quote(text)}") from None


def _bits(q):
    return q.numerator.bit_length() + q.denominator.bit_length()


def points_literal(parts, line=1, col=1):
    """(triples, circles, weight) of the points literal whose triples are
    the text triples ``parts``, or the DslError that refuses it: three
    ``parse_rational`` per triple, the candidate circle of each breakpoint
    with x > 0 under the index cap, and per piece the squared bit size of
    the longest breakpoint, in units of 2**16."""
    triples, circles = [], set()
    for texts in parts:
        t, x, y = (parse_rational(text, line, col) for text in texts)
        if x > 0:
            n = candidate_circle((x.numerator, x.denominator, y.numerator, y.denominator))
            if n > MAX_CIRCLE_INDEX:
                circle = f"C({n})" if n < 10**QUOTE_CHARS else "a circle"
                raise DslError(
                    line,
                    col,
                    f"breakpoint {cut(f'({x}, {y})')} can only lie on {circle}, which exceeds "
                    f"the limit {MAX_CIRCLE_INDEX} on circle indices",
                )
            circles.add(n)
        triples.append((t, x, y))
    if len(triples) < 2:
        raise DslError(line, col, "points needs at least two (t, x, y) triples")
    bits = max(_bits(t) + _bits(x) + _bits(y) for t, x, y in triples)
    return tuple(triples), frozenset(circles), (len(triples) - 1) * (bits * bits >> 16)


# -- the stability radius ------------------------------------------------------


def _distal_half(edge, edge_index):
    """The half of a base-incident edge away from p (whole cap otherwise)."""
    mid = lerp(edge.a.quad(), edge.b.quad(), 1, 2)
    if edge_index == 0:
        return mid, edge.b.quad()
    if edge_index == 2:
        return edge.a.quad(), mid
    return edge.quads()


def stability_radius(loop):
    """(1/8) * min(1/N^2, clearance), N the largest circle index the loop
    touches, with the clearance over all pairs of touched circles and all
    nine pairs of their p-distal edge halves: the dyadic floor of each
    distance by :func:`seg_seg_dist_sq`. The package reads one distance per
    index-adjacent pair of touched circles."""
    touched = sorted({exc.component for exc in excursions(loop)} - {ALPHA})
    n_top = touched[-1] if touched else 2
    best = Fraction(1, n_top * n_top)
    for i, n in enumerate(touched):
        cn = loop.space.circle(n)
        for m in touched[i + 1 :]:
            cm = loop.space.circle(m)
            for jn, en in enumerate(cn.edges):
                for jm, em in enumerate(cm.edges):
                    num, den = seg_seg_dist_sq(*_distal_half(en, jn), *_distal_half(em, jm))
                    lo = Fraction(isqrt((num << 80) // den), 1 << 40)
                    if lo < best:
                        best = lo
    return best / 8
