"""Contract tests for the integer geometry kernels."""
from fractions import Fraction

import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from pi1lab import kernels as k
from pi1lab.spaces import build_circle


def q(x, y) -> tuple:
    fx, fy = Fraction(x), Fraction(y)
    return (fx.numerator, fx.denominator, fy.numerator, fy.denominator)


class TestContracts:
    def test_rred(self):
        assert k.rred(6, -4) == (-3, 2)
        assert k.rred(0, 7) == (0, 1)
        with pytest.raises(ZeroDivisionError):
            k.rred(1, 0)

    def test_orient(self):
        assert k.orient(q(0, 0), q(1, 0), q(0, 1)) == 1
        assert k.orient(q(0, 0), q(0, 1), q(1, 0)) == -1
        assert k.orient(q(0, 0), q(1, 1), q(2, 2)) == 0

    def test_point_dist_sq(self):
        assert k.point_dist_sq(q(0, 0), q(3, 4)) == (25, 1)
        assert k.point_dist_sq(q("1/2", 0), q(0, "1/2")) == (1, 2)

    def test_on_segment(self):
        assert k.on_segment(q("1/2", "1/2"), q(0, 0), q(1, 1))
        assert k.on_segment(q(1, 1), q(0, 0), q(1, 1))
        assert not k.on_segment(q(2, 2), q(0, 0), q(1, 1))
        assert not k.on_segment(q("1/2", 0), q(0, 0), q(1, 1))

    def test_lerp(self):
        assert k.lerp(q(0, 0), q(1, 2), 1, 2) == (1, 2, 1, 1)
        assert k.lerp(q(1, 1), q(1, 1), 1, 3) == (1, 1, 1, 1)  # constant piece

    def test_foot_param(self):
        assert k.foot_param(q(0, 1), q(0, 0), q(1, 0)) == (0, 1)
        assert k.foot_param(q("1/2", 5), q(0, 0), q(1, 0)) == (1, 2)
        assert k.foot_param(q(2, 0), q(0, 0), q(1, 0)) == (2, 1)  # unclamped

    def test_point_seg_dist_sq(self):
        assert k.point_seg_dist_sq(q(0, 0), q(0, 0), q(0, 1)) == (0, 1)
        assert k.point_seg_dist_sq(q(1, 0), q(0, 0), q(0, 1)) == (1, 1)
        assert k.point_seg_dist_sq(q(0, 2), q(0, 0), q(0, 1)) == (1, 1)  # clamps to endpoint

    def test_seg_intersect_kinds(self):
        assert k.seg_intersect(q(0, 0), q(1, 0), q(0, 1), q(1, 1)) == (k.SEG_NONE,)
        kind, pt = k.seg_intersect(q(0, 0), q(1, 1), q(1, 1), q(2, 0))
        assert kind == k.SEG_POINT and pt == q(1, 1)
        kind, pt = k.seg_intersect(q(0, 0), q(2, 2), q(0, 2), q(2, 0))
        assert kind == k.SEG_POINT and pt == q(1, 1)
        kind, lo, hi = k.seg_intersect(q(0, 0), q(2, 0), q(1, 0), q(3, 0))
        assert kind == k.SEG_OVERLAP and lo == q(1, 0) and hi == q(2, 0)
        # collinear but disjoint
        assert k.seg_intersect(q(0, 0), q(1, 0), q(2, 0), q(3, 0)) == (k.SEG_NONE,)
        # collinear touching at one point
        kind, pt = k.seg_intersect(q(0, 0), q(1, 0), q(1, 0), q(2, 0))
        assert kind == k.SEG_POINT and pt == q(1, 0)

    def test_seg_intersect_symmetry(self):
        a, b, c, d = q(0, 0), q(2, 1), q(1, -1), q(1, 4)
        r1 = k.seg_intersect(a, b, c, d)
        r2 = k.seg_intersect(c, d, a, b)
        assert r1[0] == r2[0] == k.SEG_POINT and r1[1] == r2[1]


# -- the flat kernels against the helper-based ones ----------------------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
PARAM = st.fractions(min_value=-1, max_value=2, max_denominator=6)

# Coordinates of the pow10 circles C_88..C_90 (operands of about 900 digits)
# and a few small ones to mix with them.
POW10_COORDS = st.sampled_from(
    sorted(
        {c for n in (88, 89, 90) for v in build_circle(n).vertices for c in (v.x, v.y)}
        | {Fraction(0), Fraction(1), Fraction(-1, 2)}
    )
)


@st.composite
def configurations(draw, coord):
    """Four points; each after the first is fresh, equal to an earlier one,
    on a vertical or horizontal line through one, or on the line through
    two earlier ones."""
    pts = []
    for _ in range(4):
        kinds = ["fresh"]
        if pts:
            kinds += ["copy", "vertical", "horizontal"]
        if len(pts) >= 2:
            kinds.append("collinear")
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            pt = (draw(coord), draw(coord))
        elif kind == "copy":
            pt = draw(st.sampled_from(pts))
        elif kind == "vertical":
            pt = (draw(st.sampled_from(pts))[0], draw(coord))
        elif kind == "horizontal":
            pt = (draw(coord), draw(st.sampled_from(pts))[1])
        else:
            i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True))
            t = draw(PARAM)
            (ax, ay), (bx, by) = pts[i], pts[j]
            pt = (ax + t * (bx - ax), ay + t * (by - ay))
        pts.append(pt)
    return tuple(q(x, y) for x, y in pts)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def assert_flat_matches_oracle(pts, tn, td):
    a, b, c, d = pts
    for name, args in (
        ("orient", (a, b, c)),
        ("orient", (c, d, a)),
        ("on_segment", (c, a, b)),
        ("on_segment", (d, a, b)),
        ("point_dist_sq", (a, b)),
        ("lerp", (a, b, tn, td)),
        ("foot_param", (c, a, b)),
        ("point_seg_dist_sq", (c, a, b)),
        ("point_seg_dist_sq", (d, a, b)),
        ("_cross_of_diffs", (a, b, c, d)),
        ("seg_intersect", (a, b, c, d)),
    ):
        got = outcome(getattr(k, name), *args)
        want = outcome(getattr(oracles, name), *args)
        assert got == want, (name, args)


class TestFlatKernelsMatchOracle:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(configurations(SMALL), st.integers(-4, 4), st.integers(-3, 6))
    # a vertical segment with a collinear point above it, and below
    @example((q(0, 0), q(0, 1), q(0, 2), q(0, -1)), 1, 2)
    # a horizontal segment with a collinear point beyond either end
    @example((q(-1, 2), q(1, 2), q(2, 2), q(-2, 2)), -1, 3)
    # a degenerate segment: a point equal to it, and one on its vertical
    @example((q("1/2", 1), q("1/2", 1), q("1/2", 1), q("1/2", -1)), 0, 1)
    def test_small_rationals(self, pts, tn, td):
        assert_flat_matches_oracle(pts, tn, td)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(configurations(POW10_COORDS), st.integers(-4, 4), st.integers(1, 6))
    def test_pow10_vertices(self, pts, tn, td):
        assert_flat_matches_oracle(pts, tn, td)
