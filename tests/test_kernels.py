"""Contract tests for the integer geometry kernels."""
from fractions import Fraction

import pytest

from pi1lab import kernels as k


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

    def test_seg_seg_dist_sq(self):
        assert k.seg_seg_dist_sq(q(0, 0), q(1, 0), q(0, 1), q(1, 1)) == (1, 1)
        assert k.seg_seg_dist_sq(q(0, 0), q(1, 1), q(1, 0), q(0, 1)) == (0, 1)
