import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ExactnessError, common_refinement, hausdorff_distance_sq, refine, sqrt_leq_sqrt_plus_sqrt
from pi1lab import kernels
from pi1lab.geometry import (
    DegenerateSegmentError,
    ParameterRangeError,
    PathInvariantError,
    PLPath,
    Point2,
    Segment,
    pl_path,
    point,
    segment,
    segments_intersect,
    sup_distance,
)
from pi1lab.spaces import candidate_circle, circle_alpha_hausdorff_sq, compact_y, uniform_profile

F = Fraction


def point_segment_distance_sq(q: Point2, s: Segment) -> Fraction:
    """Exact squared distance from a point to a closed segment, by the kernel."""
    return F(*kernels.point_seg_dist_sq(q.quad(), s.a.quad(), s.b.quad()))


def alpha_updown() -> PLPath:
    return pl_path([(0, 0, 0), ("1/2", 0, 1), (1, 0, 0)])


def constant_path() -> PLPath:
    return pl_path([(0, 0, 0), (1, 0, 0)])


class TestEval:
    def test_midpoint(self):
        p = pl_path([(0, 0, 0), (1, 0, 1)])
        assert p.at(F(1, 2)) == point(0, "1/2")

    def test_endpoint(self):
        p = pl_path([(0, 0, 0), ("1/3", "1/2", 1), (1, 0, 0)])
        assert p.at(0) == point(0, 0)
        assert p.at(1) == point(0, 0)

    def test_second_leg_midpoint(self):
        p = pl_path([(0, 0, 0), ("1/2", "1/2", 1), (1, 0, 0)])
        assert p.at(F(3, 4)) == point("1/4", "1/2")

    def test_out_of_range(self):
        p = constant_path()
        with pytest.raises(ParameterRangeError):
            p.at(F(3, 2))
        with pytest.raises(ParameterRangeError):
            p.at(F(-1, 10))

    def test_invariants(self):
        with pytest.raises(PathInvariantError):
            pl_path([(0, 0, 0)])
        with pytest.raises(PathInvariantError):
            pl_path([("1/2", 0, 0), (1, 0, 0)])
        with pytest.raises(PathInvariantError):
            pl_path([(0, 0, 0), ("1/2", 0, 1), ("1/2", 0, 0), (1, 0, 0)])


class TestSupDistance:
    def test_identity(self):
        f = alpha_updown()
        assert sup_distance(f, f).squared == 0

    def test_constant_vs_alpha(self):
        d = sup_distance(constant_path(), alpha_updown())
        assert d.squared == 1
        assert d.attained_at == F(1, 2)

    def test_zero_iff_pointwise_equal_on_refinement(self):
        f = alpha_updown()
        g = refine(f, [F(1, 5), F(9, 10)])  # same path, extra breakpoints
        assert sup_distance(f, g).squared == 0
        h = pl_path([(0, 0, 0), ("1/2", 0, "9/10"), (1, 0, 0)])
        d = sup_distance(f, h)
        assert d.squared > 0
        refinement = common_refinement(f, h)
        assert any(f.at(t) != h.at(t) for t in refinement)

    def test_symmetry_exact(self):
        f = alpha_updown()
        h = pl_path([(0, 0, 0), ("1/4", "1/8", "1/4"), (1, 0, 0)])
        assert sup_distance(f, h).squared == sup_distance(h, f).squared

    def test_triangle_inequality(self):
        f = alpha_updown()
        g = constant_path()
        h = pl_path([(0, 0, 0), ("1/2", "1/8", "1/4"), ("3/4", 0, "1/2"), (1, 0, 0)])
        for a, b, c in [(f, g, h), (g, h, f), (h, f, g)]:
            d_ab = sup_distance(a, b).squared
            d_ac = sup_distance(a, c).squared
            d_cb = sup_distance(c, b).squared
            assert sqrt_leq_sqrt_plus_sqrt(d_ab, d_ac, d_cb)

    def test_sampling_oracle(self):
        # oracle: a dense parameter grid can only undershoot the true sup,
        # and on PL paths of bounded speed it lands within 1/1000 of it
        f = alpha_updown()
        h = pl_path([(0, 0, 0), ("1/3", "1/3", "2/3"), ("2/3", "1/6", "1/3"), (1, 0, 0)])
        exact = sup_distance(f, h).squared
        grid = 10**4
        sampled = max(f.at(F(k, grid)).dist_sq(h.at(F(k, grid))) for k in range(grid + 1))
        assert sampled <= exact
        assert sqrt_leq_sqrt_plus_sqrt(exact, sampled, F(1, 1000) ** 2)


class TestPointSegmentDistance:
    def test_endpoint_on_segment(self):
        assert point_segment_distance_sq(point(0, 0), segment(0, 0, 0, 1)) == 0

    def test_perpendicular_foot(self):
        assert point_segment_distance_sq(point(1, 0), segment(0, 0, 0, 1)) == 1

    def test_projection_case_with_oracle(self):
        # foot of (0,1) on [(0,0),(1/2,1)] is at parameter 4/5, distance^2 = 1/5
        q = point(0, 1)
        s = segment(0, 0, "1/2", 1)
        exact = point_segment_distance_sq(q, s)
        assert exact == F(1, 5)
        grid = 10**4
        sampled = min(q.dist_sq(s.at(F(k, grid))) for k in range(grid + 1))
        assert exact <= sampled
        # quadratic in the parameter; grid error below (step/2)^2 * |v|^2 margin
        assert sampled - exact <= F(1, 10**6)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSegmentError):
            segment(1, 1, 1, 1)


class TestSegmentsIntersect:
    def test_parallel_disjoint(self):
        assert segments_intersect(segment(0, 0, 1, 0), segment(0, 1, 1, 1)) is None

    def test_shared_endpoint(self):
        hit = segments_intersect(segment(0, 0, 1, 1), segment(1, 1, 2, 0))
        assert hit == point(1, 1)

    def test_circle_edges_meet_at_origin(self):
        # independent oracle: solve s*(1/2,1) = u*(1/3,1) over the rationals;
        # the 2x2 system forces s = u = 0, so the edges meet exactly at p
        e2 = segment(0, 0, "1/2", 1)
        e3 = segment(0, 0, "1/3", 1)
        hit = segments_intersect(e2, e3)
        assert hit == point(0, 0)

    def test_proper_crossing_point(self):
        hit = segments_intersect(segment(0, 0, 2, 2), segment(0, 2, 2, 0))
        assert hit == point(1, 1)

    def test_collinear_overlap(self):
        hit = segments_intersect(segment(0, 0, 2, 0), segment(1, 0, 3, 0))
        assert hit == segment(1, 0, 2, 0)

    def test_symmetric(self):
        cases = [
            (segment(0, 0, 1, 0), segment(0, 1, 1, 1)),
            (segment(0, 0, 2, 2), segment(0, 2, 2, 0)),
            (segment(0, 0, 2, 0), segment(1, 0, 3, 0)),
            (segment(0, 0, 1, 1), segment(1, 1, 2, 0)),
        ]
        for s1, s2 in cases:
            assert segments_intersect(s1, s2) == segments_intersect(s2, s1)


def triangle_edges(n: int, w: Fraction):
    apex = point(F(1, n), 1)
    tail = Point2(apex.x + w * n, apex.y - w)
    return (
        Segment(point(0, 0), apex),
        Segment(apex, tail),
        Segment(tail, point(0, 0)),
    )


ALPHA = segment(0, 0, 0, 1)


class TestHausdorff:
    def test_identical_sets(self):
        assert hausdorff_distance_sq([ALPHA], [ALPHA]) == 0

    def test_parallel_offset(self):
        a = [segment(0, 0, 1, 0)]
        b = [segment(0, 1, 1, 1)]
        assert hausdorff_distance_sq(a, b) == 1

    def test_decomposition_invariance(self):
        whole = [segment(0, 0, 1, 0)]
        halves = [segment(0, 0, "1/2", 0), segment("1/2", 0, 1, 0)]
        assert hausdorff_distance_sq(whole, halves) == 0
        assert hausdorff_distance_sq(halves, whole) == 0

    def test_c5_against_alpha(self):
        # farthest triangle point from the segment is the cap vertex, at
        # x = 1/5 + 5w; the segment's farthest point sits at distance^2
        # 1/(1+25), which is smaller, so d_H^2 = (1/5 + 5w)^2
        w = F(1, 10**50)
        edges = triangle_edges(5, w)
        exact = hausdorff_distance_sq(edges, [ALPHA])
        assert exact == (F(1, 5) + 5 * w) ** 2
        assert exact <= F(2, 5) ** 2

    def test_c5_sampling_oracle(self):
        w = F(1, 10**50)
        edges = triangle_edges(5, w)
        exact = hausdorff_distance_sq(edges, [ALPHA])
        grid = 10**4
        alpha_pts = [ALPHA.at(F(k, grid)) for k in range(grid + 1)]

        def directed(sources, targets):
            best = F(0)
            for s in sources:
                for k in range(grid + 1):
                    q = s.at(F(k, grid))
                    d = min(point_segment_distance_sq(q, t) for t in targets)
                    if d > best:
                        best = d
            return best

        sampled = max(
            directed(edges, [ALPHA]),
            max(
                min(point_segment_distance_sq(q, e) for e in edges) for q in alpha_pts
            ),
        )
        assert sampled <= exact
        assert sqrt_leq_sqrt_plus_sqrt(exact, sampled, F(1, 1000) ** 2)
        # the probe's closed form, on the same circle, meets the same bounds
        closed = circle_alpha_hausdorff_sq(compact_y(profile=uniform_profile(w)), 5)
        assert sampled <= closed
        assert sqrt_leq_sqrt_plus_sqrt(closed, sampled, F(1, 1000) ** 2)

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            hausdorff_distance_sq([], [ALPHA])

    def test_irrational_value_detected(self):
        # one envelope crossing of a rising endpoint-distance against a
        # falling line-distance lands at t = -9 + sqrt(96) with an
        # irrational distance there; padding keeps both directed maxima
        # below it, so the exact answer is irrational and must be refused
        src = segment(0, 0, 1, 0)
        t1 = segment(0, -5, 10, 5)
        t2 = segment(-2, 1, -2, 9)
        delta = F(1, 100)
        pad1 = Segment(point(0, F(-5) + delta), point(10, F(5) + delta))
        pad2 = Segment(point(F(-2) + delta, 1), point(F(-2) + delta, 9))
        with pytest.raises(ExactnessError):
            hausdorff_distance_sq([src, pad1, pad2], [t1, t2])


class TestDeterminism:
    def test_bit_identical_repeat(self):
        w = F(1, 10**20)
        edges = triangle_edges(2, w)
        first = hausdorff_distance_sq(edges, [ALPHA])
        second = hausdorff_distance_sq(edges, [ALPHA])
        assert first == second
        f = alpha_updown()
        h = pl_path([(0, 0, 0), ("1/2", "1/2", 1), (1, 0, 0)])
        assert sup_distance(f, h).squared == sup_distance(f, h).squared


small_coord = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=32)


@st.composite
def pl_paths(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    ts = sorted(draw(st.sets(st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16), max_size=n)))
    bks = [(F(0), point(draw(small_coord), draw(small_coord)))]
    for t in ts:
        bks.append((t, point(draw(small_coord), draw(small_coord))))
    bks.append((F(1), point(draw(small_coord), draw(small_coord))))
    return PLPath(tuple(bks))


class TestMetricProperties:
    @given(f=pl_paths(), g=pl_paths())
    @settings(max_examples=60)
    def test_symmetry(self, f, g):
        assert sup_distance(f, g).squared == sup_distance(g, f).squared

    @given(f=pl_paths(), g=pl_paths(), h=pl_paths())
    @settings(max_examples=60)
    def test_triangle(self, f, g, h):
        assert sqrt_leq_sqrt_plus_sqrt(
            sup_distance(f, g).squared,
            sup_distance(f, h).squared,
            sup_distance(h, g).squared,
        )

    @given(f=pl_paths())
    @settings(max_examples=40)
    def test_zero_iff_refinement_matches(self, f):
        g = refine(f, [F(1, 3), F(2, 3)])
        assert sup_distance(f, g).squared == 0


class TestNativeQuads:
    @given(x=small_coord, y=small_coord)
    @settings(max_examples=60)
    def test_equal_and_hash_equal_across_input_types(self, x, y):
        points = [Point2(x, y), Point2(str(x), str(y)), point(str(x), y)]
        if x.denominator == 1 and y.denominator == 1:
            points.append(Point2(int(x), int(y)))
        for q in points:
            assert q == points[0] and hash(q) == hash(points[0])
            assert type(q.x) is Fraction and type(q.y) is Fraction

    @given(x=small_coord, y=small_coord)
    @settings(max_examples=60)
    def test_quad_is_lowest_terms(self, x, y):
        q = Point2(x, y)
        assert q.quad() == (x.numerator, x.denominator, y.numerator, y.denominator)
        assert q != Point2(x + 1, y) and q != Point2(x, y + F(1, 64))

    def test_kernel_point_builds_coordinates_on_first_read(self):
        q = segment(0, 0, 1, 3).at(F(1, 2))
        assert q.quad() == (1, 2, 3, 2)
        assert not hasattr(q, "_x") and not hasattr(q, "_y")
        assert q == Point2("1/2", "3/2") and hash(q) == hash(Point2("1/2", "3/2"))
        assert (q.x, q.y) == (F(1, 2), F(3, 2))
        assert q.x is q.x and str(q) == "(1/2, 3/2)"
        with pytest.raises(AttributeError):
            q.x = F(0)


@st.composite
def longer_pl_paths(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    ts = sorted(draw(st.sets(st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64), max_size=n)))
    ts = [F(0)] + ts + [F(1)]
    return PLPath(tuple((t, point(draw(small_coord), draw(small_coord))) for t in ts))


unit_params = st.fractions(min_value=0, max_value=1, max_denominator=64)


def with_constant_stretches(path: PLPath, data) -> PLPath:
    """The path with some breakpoints moved onto their predecessor's point."""
    bks = list(path.breakpoints)
    for k in sorted(data.draw(st.sets(st.integers(1, len(bks) - 1)))):
        bks[k] = (bks[k][0], bks[k - 1][1])
    return PLPath(tuple(bks))


class TestOnePassWalk:
    """sup_distance walks both paths once; each point must be the one at()
    gives for its parameter."""

    @given(f=longer_pl_paths(), data=st.data())
    @settings(max_examples=100)
    def test_sup_distance_matches_at(self, f, data):
        """Also on the merge's edge cases: g a refinement of f, shared
        interior parameters, constant stretches, and g equal to f."""
        case = data.draw(st.sampled_from(("apart", "refinement", "shared", "constant", "equal")))
        if case == "refinement":
            g = refine(f, data.draw(st.lists(unit_params, min_size=1, max_size=4)))
        elif case == "equal":
            g = f
        else:
            g = data.draw(longer_pl_paths())
        if case == "shared":
            shared = data.draw(st.lists(unit_params, min_size=1, max_size=3))
            f, g = refine(f, shared), refine(g, shared)
        elif case == "constant":
            f, g = with_constant_stretches(f, data), with_constant_stretches(g, data)
        best, arg = F(0), F(0)
        for t in common_refinement(f, g):
            d = f.at(t).dist_sq(g.at(t))
            if d > best:
                best, arg = d, t
        got = sup_distance(f, g)
        assert (got.squared, got.attained_at) == (best, arg)
        if case in ("refinement", "equal"):
            assert (got.squared, got.attained_at) == (0, 0)


def increasing_check_message(ts):
    """The PathInvariantError text of the Fraction order check, or None."""
    for t0, t1 in zip(ts, ts[1:]):
        if not t0 < t1:
            return f"breakpoint parameters not strictly increasing at t={t1}"
    return None


class TestIntegerParams:
    """Parameters are compared, halved and reversed on integers;
    each result must equal the Fraction formula it replaces."""

    @given(f=longer_pl_paths())
    @settings(max_examples=50)
    def test_reversed_params(self, f):
        assert f.reversed().params == tuple(1 - t for t in reversed(f.params))
        assert f.reversed().points == f.points[::-1]

    @given(ts=st.lists(unit_params, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_order_check_message(self, ts):
        """Equal and decreasing parameters get the Fraction check's text."""
        ts = [F(0)] + ts + [F(1)]
        message = increasing_check_message(ts)
        bks = tuple((t, point(0, 0)) for t in ts)
        if message is None:
            assert PLPath(bks).params == tuple(ts)
            return
        with pytest.raises(PathInvariantError) as err:
            PLPath(bks)
        assert str(err.value) == message

    def test_order_check_equal_and_decreasing(self):
        p = point(0, 0)
        for ts, bad in (((0, "1/2", "1/2", 1), "1/2"), ((0, "2/3", "1/3", 1), "1/3")):
            with pytest.raises(PathInvariantError) as err:
                PLPath(tuple((t, p) for t in ts))
            assert str(err.value) == f"breakpoint parameters not strictly increasing at t={bad}"

    def test_parameter_types(self):
        p, q = point(0, 0), point(1, 2)
        paths = [
            PLPath(((0, p), (F(1, 3), q), (1, p))),
            PLPath((("0", p), ("1/3", q), ("1", p))),
            PLPath(((F(0), p), (F(1, 3), q), (F(1), p))),
            PLPath([(0, p), ("1/3", q), (F(1), p)]),
        ]
        for path in paths:
            assert path == paths[0]
            assert all(type(t) is Fraction for t in path.params)
            assert isinstance(path.breakpoints, tuple)

    @given(
        xn=st.integers(1, 10**6),
        xd=st.integers(1, 10**6),
        yn=st.integers(-(10**6), 10**6),
        yd=st.integers(1, 10**6),
        k=st.integers(-50, 50),
    )
    def test_candidate_circle(self, xn, xd, yn, yd, k):
        x, y = F(xn, xd), F(yn, yd)
        for yy in (y, k * x):  # the second has an integer ratio y/x = k
            q = (x.numerator, x.denominator, yy.numerator, yy.denominator)
            assert candidate_circle(q) == max(2, math.ceil(yy / x))

    @given(digits=st.integers(1000, 1001), data=st.data())
    @settings(max_examples=20)
    def test_candidate_circle_long_operands(self, digits, data):
        big = st.integers(10 ** (digits - 1), 10**digits - 1)
        x = F(data.draw(big), data.draw(big))
        y = F(data.draw(big) * data.draw(st.sampled_from((1, -1))), data.draw(big))
        for yy in (y, x * data.draw(big)):
            q = (x.numerator, x.denominator, yy.numerator, yy.denominator)
            assert candidate_circle(q) == max(2, math.ceil(yy / x))
