"""Construction of the triangle bouquet and its segment compactification.

The bouquet X is the union of sliver triangles C_n (n >= 2) with vertices

    p = (0, 0),   B_n = (1/n, 1),   D_n = B_n + w(n) * (n, -1),

all sharing only the base point p; the default width profile is
w(n) = 1 / 10**(10*n). The compact space Y adds the vertical segment
alpha = [(0,0), (0,1)], the Hausdorff limit of the C_n.

A width is read as the reduced int pair (wn, wd) of w(n) = wn/wd, which
its profile evaluates once per index up to KEPT_PAIR_INDEX and keeps
(``WidthProfile.pair``): every build, certificate and script price of a
profile reads the same pairs. Measured with tracemalloc, the pairs of
pow10 hold 25 KiB through n = 90 and 2.2 MiB through n = 1000, and those of
cube 7 KiB and 90 KiB. They are never freed, so the cap bounds them; a
width past it is evaluated on each request and not kept.

Circles are materialized lazily and cached, on int quads: with w(n) the
reduced pair wn/wd, D_n is ((wd + n**2*wn) / (n*wd), (wd - wn) / wd), so
its height keeps w(n) as wn = yd - yn and wd = yd. C_n (n >= 3) is accepted
only if w(n) < w(n-1) and D_n lies strictly left of the ray p -> B_{n-1}.
The cross product (B_{n-1} - p) x (D_n - p) is (1 - w)/(n-1) - (1/n + n*w),
and n*(n-1) times it is 1 - w(n) * (n**3 - n**2 + n), so the test is the
closed form wn * (n**3 - n**2 + n) < wd on ints. This cone certificate puts
C_n minus p at slopes y/x in (n-1, n], so certified circles meet only at p
and a point with x > 0 can only lie on C_n for n = max(2, ceil(y/x)). It is
exact: when it fails, the ray p -> B_{n-1} cuts edge B_n D_n below height
1, so C_n meets C_{n-1} away from p. No answer depends on which circles are
cached. A point located on C_n is first compared with the quads of B_n and
D_n, the points on two edges; any other point of C_n lies on one edge only.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Optional, Tuple

from . import kernels
from .exactnum import sqrt_decimal
from .geometry import ORIGIN, Point2, Segment, _from_quad, point, rat, segments_intersect
from .records import Record
from .report import FAIL, PASS, ProbeReport, exact_str, report_digits


class SpaceError(Exception):
    pass


class SpaceConsistencyError(SpaceError):
    """A width profile produced circles that violate the construction invariants."""


class SpaceKind(str, Enum):
    BOUQUET_X = "X"
    COMPACT_Y = "Y"

    def __str__(self) -> str:
        return self.value


# Largest index whose width pair a profile keeps: the largest circle index a
# script or a CLI loop literal reaches (dsl.MAX_CIRCLE_INDEX).
KEPT_PAIR_INDEX = 1000


class WidthProfile(Record):
    """Positive, strictly decreasing cap-width sequence for the triangles.

    ``fn`` must be a pure function of n, as a width sequence is: the
    profile calls it at most once per index n <= KEPT_PAIR_INDEX and keeps
    w(n) as its reduced int pair (``pair``) for the profile's lifetime: one
    pair per index asked for, about 4.4 * n bytes at index n under pow10
    (the module docstring gives the totals). A larger index calls ``fn`` on
    every request, so the pairs held stay bounded whatever index is asked.
    """

    __slots__ = ("name", "fn", "_pairs")
    _fields = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[int], Fraction]):
        self.name = name
        self.fn = fn
        self._pairs: Dict[int, Tuple[int, int]] = {}

    def pair(self, n: int) -> Tuple[int, int]:
        """w(n) as the reduced pair (wn, wd), wd > 0; for n <= KEPT_PAIR_INDEX
        ``fn`` is called on the first request for n only."""
        wp = self._pairs.get(n)
        if wp is None:
            w = self.fn(n)
            if type(w) is not Fraction:
                w = Fraction(w)
            wp = (w.numerator, w.denominator)
            if n <= KEPT_PAIR_INDEX:
                self._pairs[n] = wp
        return wp

    def __call__(self, n: int) -> Fraction:
        return Fraction(*self.pair(n))


POW10 = WidthProfile("pow10", lambda n: Fraction(1, 10 ** (10 * n)))
CUBE = WidthProfile("cube", lambda n: Fraction(1, 10 * n**3))


def uniform_profile(value) -> WidthProfile:
    value = rat(value)
    return WidthProfile(f"uniform:{value}", lambda n: value)


def profile_by_name(name: str) -> WidthProfile:
    if name in ("pow10", "default"):
        return POW10
    if name == "cube":
        return CUBE
    if name.startswith("uniform:"):
        return uniform_profile(rat(name.split(":", 1)[1]))
    raise SpaceError(f"unknown width profile {name!r}")


ALPHA_SEGMENT = Segment(ORIGIN, point(0, 1))


class Circle(Record):
    """Triangle C_n with edges oriented p -> B_n -> D_n -> p.

    The orientation fixes the sign convention: one positive traversal of
    the edge cycle is the generator g_n.
    """

    __slots__ = _fields = ("index", "apex", "tail", "edges")

    def __init__(self, index: int, apex: Point2, tail: Point2, edges: Tuple[Segment, Segment, Segment]):
        self.index = index
        self.apex = apex
        self.tail = tail
        self.edges = edges

    @property
    def vertices(self) -> Tuple[Point2, Point2, Point2]:
        return (ORIGIN, self.apex, self.tail)


def build_circle(n: int, width_profile: WidthProfile = POW10) -> Circle:
    """Exact triangle for index n: vertices p, (1/n, 1) and the cap point,
    as int quads built from the reduced width pair wn/wd.

    The vertices are never collinear: D_n - B_n = w(n) * (n, -1) and
    B_n - p = (1/n, 1) have cross product -w(n) * (1/n + n), which is not 0
    for w(n) > 0.
    """
    if n < 2:
        raise SpaceError(f"circle index must be >= 2, got {n}")
    wn, wd = width_profile.pair(n)
    if wn <= 0:
        raise SpaceConsistencyError(f"width profile {width_profile.name} gave w({n}) = {Fraction(wn, wd)} <= 0")
    xn, xd = wd + n * n * wn, n * wd
    g = gcd(xn, xd)
    # gcd(wd - wn, wd) = gcd(wn, wd) = 1, so the height is reduced
    apex = _from_quad((1, n, 1, 1))
    tail = _from_quad((xn // g, xd // g, wd - wn, wd))
    edges = (Segment(ORIGIN, apex), Segment(apex, tail), Segment(tail, ORIGIN))
    return Circle(n, apex, tail, edges)


# An edge is the int pair (n, j): edge j of C_n, with j in {0: p->B, 1: B->D,
# 2: D->p}, or ALPHA_EDGE for the limit segment. Its first entry is its
# component of (space minus p): the circle index, or ALPHA, which no circle
# has. Every edge but a cap (j == 1) meets p, and tuple order puts alpha first.
EdgeRef = Tuple[int, int]

ALPHA = 0
ALPHA_EDGE: EdgeRef = (ALPHA, 0)


def candidate_circle(q: tuple) -> int:
    """The one circle index a point with kernel quad ``q`` and x > 0 can
    lie on: max(2, ceil(y/x)), by integer floor division."""
    xn, xd, yn, yd = q
    return max(2, -((-yn * xd) // (xn * yd)))


def component_name(comp: int) -> str:
    """A component of (space minus p) as text: alpha, or C<n>."""
    return "alpha" if comp == ALPHA else f"C{comp}"


class Membership(Record):
    __slots__ = _fields = ("kind", "circle_index", "edge_index")

    def __init__(self, kind: str, circle_index: Optional[int] = None, edge_index: Optional[int] = None):
        self.kind = kind  # "outside" | "base" | "alpha" | "circle"
        self.circle_index = circle_index
        self.edge_index = edge_index

    def __str__(self) -> str:
        if self.kind == "circle":
            return f"on C{self.circle_index} edge {self.edge_index}"
        return {"outside": "outside", "base": "at p", "alpha": "on alpha"}[self.kind]


OUTSIDE = Membership("outside")


class SpaceHandle(Record):
    """Lazy handle on X or Y for a fixed width profile.

    ``circle(n)`` caches C_n after the local checks of the module docstring
    (strict width decrease and the cone certificate against C_{n-1}) and
    raises ``SpaceConsistencyError`` for a circle that fails them. The cache
    ``_circles`` may be shared by handles of one profile: ``sibling`` passes
    it on, and a script's spaces of one profile share one. Point
    queries look at the single candidate circle max(2, ceil(y/x)), so their
    answers depend neither on the cache nor on ``hint``, which is only the
    default number of circles a rendering draws. Two handles are equal
    when their kinds and profile names are; the hint and the cache take no
    part. The repr shows the count of cached circles, not the circles.
    """

    __slots__ = _fields = ("kind", "profile", "hint", "_circles")

    def __init__(
        self,
        kind: SpaceKind,
        profile: WidthProfile = POW10,
        hint: int = 32,
        _circles: Optional[Dict[int, Circle]] = None,
    ):
        self.kind = kind
        self.profile = profile
        self.hint = hint
        self._circles = {} if _circles is None else _circles

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceHandle):
            return NotImplemented
        return self.kind == other.kind and self.profile.name == other.profile.name

    def __hash__(self):
        return hash((self.kind, self.profile.name))

    def __repr__(self) -> str:
        return (
            f"SpaceHandle(kind={self.kind!r}, profile={self.profile!r}, "
            f"hint={self.hint!r}, cached_circles={len(self._circles)})"
        )

    @property
    def has_alpha(self) -> bool:
        return self.kind is SpaceKind.COMPACT_Y

    @property
    def alpha_segment(self) -> Segment:
        if not self.has_alpha:
            raise SpaceError("the bouquet X does not contain the limit segment alpha")
        return ALPHA_SEGMENT

    def sibling(self, kind: SpaceKind) -> "SpaceHandle":
        """The same construction viewed as the other space; shares the cache."""
        if kind == self.kind:
            return self
        return SpaceHandle(kind, self.profile, self.hint, self._circles)

    def circle(self, n: int) -> Circle:
        circ = self._circles.get(n)
        if circ is not None:
            return circ
        circ = build_circle(n, self.profile)
        if n >= 3:
            _certify(circ, self.profile)
        self._circles[n] = circ
        return circ

    # -- point queries -------------------------------------------------------

    def _circle_edges_at(self, q: Point2) -> Tuple[EdgeRef, ...]:
        """Edges through q of the one circle whose cone can hold it: two at
        B_n or D_n, found by their quads, else the first edge that holds q."""
        qq = q._q
        if qq[0] <= 0:
            return ()
        circ = self.circle(candidate_circle(qq))
        n = circ.index
        if qq == circ.apex._q:
            return ((n, 0), (n, 1))
        if qq == circ.tail._q:
            return ((n, 1), (n, 2))
        for j, e in enumerate(circ.edges):
            if e.contains(q):
                return ((n, j),)
        return ()

    def membership(self, q: Point2) -> Membership:
        """Exact stratum classification of a point."""
        if q == ORIGIN:
            return Membership("base")
        if self.has_alpha and ALPHA_SEGMENT.contains(q):
            return Membership("alpha")
        refs = self._circle_edges_at(q)
        if not refs:
            return OUTSIDE
        return Membership("circle", *refs[0])

    def edges_containing(self, q: Point2) -> Tuple[EdgeRef, ...]:
        """All edges through a non-base point (one, or two at a triangle
        vertex); alpha and the circles share only p."""
        if q == ORIGIN:
            raise SpaceError("edges_containing expects a point other than p")
        if self.has_alpha and ALPHA_SEGMENT.contains(q):
            return (ALPHA_EDGE,)
        return self._circle_edges_at(q)

    def edge_segment(self, ref: EdgeRef) -> Segment:
        n, j = ref
        return self.alpha_segment if n == ALPHA else self.circle(n).edges[j]


def _certify(circ: Circle, profile: WidthProfile) -> None:
    """Refuse C_n (n >= 3) unless its width decreases and its cone certificate
    holds. The width pairs of n and n-1 are compared by cross-multiplying,
    and the cone certificate is the closed form wn * (n**3 - n**2 + n) < wd
    of the module docstring."""
    n = circ.index
    wn, wd = profile.pair(n)
    pn, pd = profile.pair(n - 1)
    if not wn * pd < pn * wd:
        raise SpaceConsistencyError(
            f"width profile {profile.name} is not strictly decreasing between indices {n - 1} and {n}"
        )
    if wn * (n * n * n - n * n + n) >= wd:
        prev_apex = Point2(Fraction(1, n - 1), Fraction(1))
        raise SpaceConsistencyError(
            f"circles C{n} and C{n - 1} intersect beyond the base point: "
            f"the ray from p through {prev_apex} meets edge {circ.edges[1]}"
        )


def bouquet_x(hint: int = 32, profile: WidthProfile = POW10) -> SpaceHandle:
    return SpaceHandle(SpaceKind.BOUQUET_X, profile, hint)


def compact_y(hint: int = 32, profile: WidthProfile = POW10) -> SpaceHandle:
    return SpaceHandle(SpaceKind.COMPACT_Y, profile, hint)


_default_x: Optional[SpaceHandle] = None
_default_y: Optional[SpaceHandle] = None


def default_x() -> SpaceHandle:
    global _default_x
    if _default_x is None:
        _default_x = bouquet_x(hint=64)
    return _default_x


def default_y() -> SpaceHandle:
    global _default_y
    if _default_y is None:
        _default_y = default_x().sibling(SpaceKind.COMPACT_Y)
    return _default_y


def _pair_intersection_violations(c1: Circle, c2: Circle):
    """Exact witnesses that C_n and C_m meet anywhere besides p: triples of
    two edges and their intersection, a point other than p or a Segment."""
    bad = []
    for e1 in c1.edges:
        for e2 in c2.edges:
            hit = segments_intersect(e1, e2)
            if hit is not None and hit != ORIGIN:
                bad.append((e1, e2, hit))
    return bad


def _violation_text(e1: Segment, e2: Segment, hit, where: str) -> str:
    """A witness of ``_pair_intersection_violations`` as report text; a
    value too long to print is refused with a ProbeParameterError naming ``where``."""
    how = "overlap along" if isinstance(hit, Segment) else "meet at"
    return f"edges {exact_str(e1, where)} and {exact_str(e2, where)} {how} {exact_str(hit, where)}"


def verify_disjointness(space: SpaceHandle, up_to: int) -> ProbeReport:
    """Exact pairwise check that C_n meets C_m only at p for 2 <= n < m <= up_to.

    This is the independent cross-check of the handle's cone certificates.
    Violations are report content, not exceptions, so deliberately broken
    width profiles can be probed; circles are built without the handle's
    certificate for the same reason.
    """
    if up_to < 3:
        raise SpaceError("up_to must be at least 3 (need at least one pair)")
    circles = {n: space._circles.get(n) or build_circle(n, space.profile) for n in range(2, up_to + 1)}
    witnesses = []
    pairs = 0
    for n in range(2, up_to + 1):
        for m in range(n + 1, up_to + 1):
            pairs += 1
            bad = _pair_intersection_violations(circles[n], circles[m])
            if bad:
                witnesses.append(
                    (
                        ("pair", f"C{n}, C{m}"),
                        ("violation", _violation_text(*bad[0], f"probe disjointness: up_to={up_to}")),
                    )
                )
    return ProbeReport(
        probe="circle-pairwise-disjointness",
        claim="distinct circles of the bouquet meet exactly at the base point",
        verdict=PASS if not witnesses else FAIL,
        parameters=(
            ("space", str(space.kind)),
            ("width_profile", space.profile.name),
            ("up_to", str(up_to)),
            ("pairs_checked", str(pairs)),
        ),
        witnesses=tuple(witnesses),
    )


def circle_alpha_hausdorff_sq(space: SpaceHandle, n: int) -> Fraction:
    """Exact squared Hausdorff distance between C_n and alpha, in closed form:
    d_H(C_n, alpha) = dist(D_n, alpha), for every width w(n) > 0.

    From C_n to alpha: dist(., alpha) is convex, so on each edge of C_n it
    peaks at a vertex. The vertex p lies on alpha, B_n = (1/n, 1) is at
    distance 1/n, and D_n is farther: at least its x = 1/n + n*w(n).
    From alpha to C_n: the point (0, s) of alpha is within s/n <= 1/n of the
    point (s/n, s) on edge p B_n. Both directed distances are therefore at
    most dist(D_n, alpha), and the first attains it.

    The handle's circle is read when it has one; otherwise the circle is
    built without the handle's certificate, so uncertified profiles still
    get their (FAIL) tables.
    """
    circ = space._circles.get(n) or build_circle(n, space.profile)
    return Fraction(*kernels.point_seg_dist_sq(circ.tail.quad(), *ALPHA_SEGMENT.quads()))


def hausdorff_convergence(space: SpaceHandle, up_to: int) -> ProbeReport:
    """Exact table of d_H(C_n, alpha) for n = 2..up_to.

    PASS requires the squared distances to be strictly decreasing with
    every value at most (2/n)^2; when the table reaches n = 20 the report
    also states that all rows from 20 on lie below 1/10.
    """
    if not space.has_alpha:
        raise SpaceError("Hausdorff convergence is a statement about the compact space Y")
    if up_to < 2:
        raise SpaceError("up_to must be at least 2")
    digits = report_digits()
    rows = []
    values = []
    witnesses = []
    for n in range(2, up_to + 1):
        d_sq = circle_alpha_hausdorff_sq(space, n)
        d_text = exact_str(d_sq, f"probe hausdorff: up_to={up_to}")
        bound_sq = Fraction(4, n * n)
        ok = d_sq <= bound_sq
        decreasing = not values or d_sq < values[-1]
        values.append(d_sq)
        rows.append(
            (
                str(n),
                d_text,
                sqrt_decimal(d_sq, digits),
                str(bound_sq),
                "yes" if ok else "NO",
            )
        )
        if not ok:
            witnesses.append(
                (("n", str(n)), ("d_sq", d_text), ("exceeds_bound_sq", str(bound_sq)))
            )
        if not decreasing:
            witnesses.append(
                (("n", str(n)), ("d_sq", d_text), ("not_below_previous", rows[-2][1]))
            )
    notes = []
    eps = Fraction(1, 10)
    if up_to >= 20:
        tail_ok = all(values[n - 2] < eps * eps for n in range(20, up_to + 1))
        notes.append(
            f"limit evidence: every row with n >= 20 lies below epsilon = {eps}: "
            + ("true" if tail_ok else "FALSE")
        )
        if not tail_ok:
            witnesses.append((("epsilon", str(eps)), ("reason", "tail row at or above epsilon")))
    return ProbeReport(
        probe="hausdorff-convergence",
        claim="the circles approach the limit segment monotonically in Hausdorff distance",
        verdict=PASS if not witnesses else FAIL,
        parameters=(
            ("space", str(space.kind)),
            ("width_profile", space.profile.name),
            ("up_to", str(up_to)),
        ),
        table_header=("n", "d_sq", f"d_dec({digits})", "bound_sq", "within_bound"),
        table_rows=tuple(rows),
        witnesses=tuple(witnesses),
        notes=tuple(notes),
    )
