"""Integer-arithmetic geometry kernels.

Every predicate and distance the package decides on funnels through the
functions here. Points cross this boundary as 4-tuples ``(xn, xd, yn, yd)``
of ints with positive denominators and each coordinate in lowest terms;
scalar rationals are reduced ``(n, d)`` pairs with ``d > 0``. Working on
plain ints keeps the hot loops free of Fraction object churn.
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
