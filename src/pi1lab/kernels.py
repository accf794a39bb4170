"""Integer-arithmetic geometry kernels.

Every predicate and distance the package decides on funnels through the
functions here. Points cross this boundary as 4-tuples ``(xn, xd, yn, yd)``
of ints with positive denominators and each coordinate in lowest terms;
scalar rationals are reduced ``(n, d)`` pairs with ``d > 0``. Working on
plain ints keeps the hot loops free of Fraction object churn.

The kernels are flat: each unpacks its quads once and computes on the ints
inline, with no call per coordinate difference. A coordinate difference
q.x - p.x is carried as the numerator ``qxn*pxd - pxn*qxd`` over
``pxd*qxd``, and a positive denominator common to every term of a result is
cancelled before multiplying:

* ``orient(p, q, r)``: the cross product over its common denominator is
  ``pxd*pyd`` times the determinant computed, so only the smaller one is
  formed;
* ``lerp``: numerator and denominator of the x coordinate share the factor
  ``axd`` (of the y coordinate, ``ayd``);
* ``foot_param``: dot product and squared length share the denominators
  of b - a, which cancel, and ``axd*ayd`` then cancels against the
  denominators of q - a;
* ``point_seg_dist_sq``: likewise for cross product and squared length,
  with ``(axd*ayd)**2``; its endpoint cases compare the unreduced foot
  parameter with 0 and 1.

A positive factor changes no sign, and a reduced pair is unique, so the
results are those of the unflattened formulas; ``tests/oracles.py`` keeps
those as the reference. ``on_segment`` tests its bounding box by the signs
of q - a and q - b, and the y range only for a vertical (or degenerate)
segment: off one, a point on the line with its x in range lies between a
and b.
"""
from math import gcd

# perfbench/run.py prints this in the header of every run.
BACKEND = "pure"

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


def orient(p, q, r):
    """Sign of the cross product (q - p) x (r - p): +1 left turn, -1 right, 0 collinear."""
    pxn, pxd, pyn, pyd = p
    qxn, qxd, qyn, qyd = q
    rxn, rxd, ryn, ryd = r
    t = (qxn * pxd - pxn * qxd) * (ryn * pyd - pyn * ryd) * qyd * rxd - (
        qyn * pyd - pyn * qyd
    ) * (rxn * pxd - pxn * rxd) * qxd * ryd
    return (t > 0) - (t < 0)


def point_dist_sq(p, q):
    """Exact squared Euclidean distance between two points, as a reduced pair."""
    pxn, pxd, pyn, pyd = p
    qxn, qxd, qyn, qyd = q
    xd = pxd * qxd
    yd = pyd * qyd
    u = (qxn * pxd - pxn * qxd) * yd
    v = (qyn * pyd - pyn * qyd) * xd
    num = u * u + v * v
    den = xd * yd
    den *= den
    g = gcd(num, den)
    return num // g, den // g


def on_segment(q, a, b):
    """True iff q lies on the closed segment [a, b]."""
    qxn, qxd, qyn, qyd = q
    axn, axd, ayn, ayd = a
    bxn, bxd, byn, byd = b
    wx = qxn * axd - axn * qxd  # sign of q.x - a.x
    vx = qxn * bxd - bxn * qxd  # sign of q.x - b.x
    if wx and vx and (wx > 0) == (vx > 0):
        return False
    ux = bxn * axd - axn * bxd
    uy = byn * ayd - ayn * byd
    wy = qyn * ayd - ayn * qyd
    # orient(a, b, q) == 0, its determinant divided by axd*ayd
    if ux * wy * byd * qxd != uy * wx * bxd * qyd:
        return False
    if ux:
        return True
    vy = qyn * byd - byn * qyd
    return not (wy and vy and (wy > 0) == (vy > 0))


def lerp(a, b, tn, td):
    """Point a + t*(b - a) for t = tn/td, coordinates reduced."""
    if td <= 0:
        if td == 0:
            raise ZeroDivisionError("rational with zero denominator")
        tn, td = -tn, -td
    axn, axd, ayn, ayd = a
    bxn, bxd, byn, byd = b
    s = axn * bxd
    xn = s * td + tn * (bxn * axd - s)
    xd = axd * bxd * td
    g = gcd(xn, xd)
    s = ayn * byd
    yn = s * td + tn * (byn * ayd - s)
    yd = ayd * byd * td
    h = gcd(yn, yd)
    return xn // g, xd // g, yn // h, yd // h


def foot_param(q, a, b):
    """Unclamped projection parameter of q onto the line through a, b.

    Returns t with foot = a + t*(b - a); b must differ from a.
    """
    qxn, qxd, qyn, qyd = q
    axn, axd, ayn, ayd = a
    bxn, bxd, byn, byd = b
    wx = qxn * axd - axn * qxd
    wy = qyn * ayd - ayn * qyd
    vx = (bxn * axd - axn * bxd) * ayd * byd
    vy = (byn * ayd - ayn * byd) * axd * bxd
    num = (wx * ayd * qyd * vx + wy * axd * qxd * vy) * bxd * byd
    den = (vx * vx + vy * vy) * qxd * qyd
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    g = gcd(num, den)
    return num // g, den // g


def point_seg_dist_sq(q, a, b):
    """Exact squared distance from q to the closed segment [a, b]."""
    qxn, qxd, qyn, qyd = q
    axn, axd, ayn, ayd = a
    bxn, bxd, byn, byd = b
    wx = qxn * axd - axn * qxd
    wy = qyn * ayd - ayn * qyd
    ux = bxn * axd - axn * bxd
    uy = byn * ayd - ayn * byd
    vx = ux * ayd * byd
    vy = uy * axd * bxd
    vv = vx * vx + vy * vy
    if vv == 0:
        raise ZeroDivisionError("rational with zero denominator")
    # the foot parameter is dot / (vv * qxd * qyd)
    dot = (wx * ayd * qyd * vx + wy * axd * qxd * vy) * bxd * byd
    if dot <= 0:
        return point_dist_sq(q, a)
    dd = qxd * qyd
    if dot >= vv * dd:
        return point_dist_sq(q, b)
    # perpendicular case: cross(w, v)^2 / |v|^2, the factor (axd*ayd)^2 cancelled
    c = wx * qyd * uy * bxd - wy * qxd * ux * byd
    num = c * c
    den = dd * dd * vv
    g = gcd(num, den)
    return num // g, den // g


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
        lo, hi = (tc, td_) if tc[0] * td_[1] <= td_[0] * tc[1] else (td_, tc)
        lo = lo if lo[0] > 0 else (0, 1)
        hi = hi if hi[0] < hi[1] else (1, 1)
        s = lo[0] * hi[1] - hi[0] * lo[1]
        if s > 0:
            return (SEG_NONE,)
        if s == 0:
            return (SEG_POINT, lerp(a, b, *lo))
        return (SEG_OVERLAP, lerp(a, b, *lo), lerp(a, b, *hi))
    if o1 * o2 < 0 and o3 * o4 < 0:
        # proper crossing: t = cross(c-a, d-c) / cross(b-a, d-c) along [a,b]
        num = _cross_of_diffs(a, c, c, d)
        den = _cross_of_diffs(a, b, c, d)
        t = rred(num[0] * den[1], num[1] * den[0])
        return (SEG_POINT, lerp(a, b, *t))
    # touching configurations: a single shared point if any
    for q, s0, s1 in ((c, a, b), (d, a, b), (a, c, d), (b, c, d)):
        if on_segment(q, s0, s1):
            return (SEG_POINT, q)
    return (SEG_NONE,)


def _cross_of_diffs(p1, p2, p3, p4):
    # cross(p2 - p1, p4 - p3) as an unreduced pair
    p1xn, p1xd, p1yn, p1yd = p1
    p2xn, p2xd, p2yn, p2yd = p2
    p3xn, p3xd, p3yn, p3yd = p3
    p4xn, p4xd, p4yn, p4yd = p4
    axd = p1xd * p2xd
    ayd = p1yd * p2yd
    bxd = p3xd * p4xd
    byd = p3yd * p4yd
    num = (p2xn * p1xd - p1xn * p2xd) * (p4yn * p3yd - p3yn * p4yd) * ayd * bxd - (
        p2yn * p1yd - p1yn * p2yd
    ) * (p4xn * p3xd - p3xn * p4xd) * axd * byd
    return num, axd * byd * ayd * bxd

