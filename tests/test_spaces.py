import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import oracles
from oracles import hausdorff_distance_sq
from pi1lab import dsl, geometry, kernels, spaces
from pi1lab.geometry import ORIGIN, point
from pi1lab.spaces import (
    ALPHA_SEGMENT,
    Membership,
    SpaceConsistencyError,
    SpaceError,
    SpaceKind,
    WidthProfile,
    _certify,
    _pair_intersection_violations,
    bouquet_x,
    candidate_circle,
    build_circle,
    circle_alpha_hausdorff_sq,
    compact_y,
    hausdorff_convergence,
    profile_by_name,
    uniform_profile,
    verify_disjointness,
)

F = Fraction

# The named profiles, plus strictly decreasing ones whose cone certificate
# fails from some index on, where the certificate alone decides. With
# q = 1/111, D_11 lies exactly on the ray from p through B_10.
CERTIFICATE_PROFILES = [
    profile_by_name(name)
    for name in ("cube", "pow10", "uniform:1/2") + tuple(f"uniform:1/{10**k}" for k in range(1, 5))
] + [
    WidthProfile(f"harmonic:{q}", lambda n, q=q: q / n)
    for q in (F(1, 2), F(1, 111)) + tuple(F(1, 10**k) for k in range(1, 5))
]


class TestBuildCircle:
    def test_n2_vertices(self):
        c = build_circle(2)
        apex, tail = c.apex, c.tail
        assert apex == point("1/2", 1)
        assert tail.x == F(1, 2) + F(2, 10**20)
        assert tail.y == 1 - F(1, 10**20)

    def test_n3_vertices(self):
        c = build_circle(3)
        assert c.apex == point("1/3", 1)
        assert c.tail.x == F(1, 3) + F(3, 10**30)
        assert c.tail.y == 1 - F(1, 10**30)

    def test_n1_rejected(self):
        with pytest.raises(SpaceError):
            build_circle(1)

    def test_orientation_and_lengths(self):
        c = build_circle(4)
        assert c.edges[0].a == point(0, 0) and c.edges[0].b == c.apex
        assert c.edges[1].a == c.apex and c.edges[1].b == c.tail
        assert c.edges[2].a == c.tail and c.edges[2].b == point(0, 0)
        assert all(e.length_sq > 0 for e in c.edges)

    def test_vertices_in_unit_strip(self):
        for n in range(2, 21):
            c = build_circle(n)
            for v in (c.apex, c.tail):
                assert 0 <= v.y <= 1


def _refusal(build, certify, n, profile):
    """The circle of a build and certify pair, or the text it is refused with."""
    try:
        circ = build(n, profile)
        if n >= 3:
            certify(circ, profile)
    except SpaceConsistencyError as exc:
        return str(exc)
    return circ


def circle_mismatches(profile, ns):
    """The indices n in ``ns`` whose circle differs from the oracle's: built
    and certified, and read on a fresh handle, which certifies C_n with no
    C_(n-1) cached. Circles compare their edges and their apex and tail
    quads, and must not be degenerate; refusals compare their text. pow10
    and cube, the profiles of the paper's spaces, must certify every C_n:
    a refusal of theirs is a mismatch even where the oracle refuses too."""
    wrong = []
    for n in ns:
        got = _refusal(build_circle, _certify, n, profile)
        want = _refusal(oracles.build_circle, oracles.certify, n, profile)
        on_handle = _refusal(lambda n, p: bouquet_x(profile=p).circle(n), lambda c, p: None, n, profile)
        if got != want or on_handle != got or (isinstance(got, str) and profile.name in ("pow10", "cube")):
            wrong.append(n)
        elif not isinstance(got, str) and (
            (got._apex_q, got._tail_q) != (want.apex._q, want.tail._q)
            or kernels.orient(ORIGIN._q, got._apex_q, got._tail_q) == 0
        ):
            wrong.append(n)
    return wrong


def counted_pow10():
    """A copy of the pow10 profile, and the Counter of its fn's calls by index."""
    calls = Counter()

    def counted(n, fn=spaces.POW10.fn):
        calls[n] += 1
        return fn(n)

    return WidthProfile("pow10", counted), calls


def materialise_shuffled(monkeypatch, top):
    """pow10 C_2 ... C_top, in shuffled order, on one handle of a counted
    copy of the profile: its fn is called once per index, no quad is
    wrapped in a Point2 and no Segment is built, and the quads are the
    oracle's, which reads its own uncounted profile. Returns the circles
    and the lists of wraps and Segments, which stay counted."""
    order = list(range(2, top + 1))
    random.Random(0).shuffle(order)
    oracle = WidthProfile("pow10", spaces.POW10.fn)
    want = [(c.apex._q, c.tail._q) for c in (oracles.build_circle(n, oracle) for n in order)]
    profile, calls = counted_pow10()
    wraps, segments = [], []
    real_wrap, real_init = geometry._from_quad, geometry.Segment.__init__
    for mod in (geometry, spaces):
        monkeypatch.setattr(mod, "_from_quad", lambda q: wraps.append(q) or real_wrap(q))
    monkeypatch.setattr(geometry.Segment, "__init__", lambda self, a, b: segments.append((a, b)) or real_init(self, a, b))
    monkeypatch.setattr(geometry.Point2, "__init__", lambda *a: wraps.append(a))
    handle = compact_y(profile=profile)
    circles = [handle.circle(n) for n in order]
    assert (len(wraps), len(segments)) == (0, 0)
    assert [(c._apex_q, c._tail_q) for c in circles] == want
    assert calls == Counter(order)
    return circles, wraps, segments


class TestCircleOracle:
    """The int-quad build and certificate against the Fraction and orient
    construction of ``oracles``: equal vertices and edges, and refusals at
    the same n with the same text."""

    @pytest.mark.parametrize(
        "profile,ns",
        [(p, range(2, 91)) for p in CERTIFICATE_PROFILES]
        + [(profile_by_name(name), range(2, 91)) for name in ("uniform:1", "uniform:3")]
        + [(profile_by_name(name), (500, 1000)) for name in ("pow10", "cube")]
        + [
            (WidthProfile("three-tenths", lambda n: F(3, 10 ** (n + 2))), range(2, 91)),
            (WidthProfile("zero-from-5", lambda n: F(max(5 - n, 0), 10 * n)), range(2, 8)),
            (WidthProfile("negative", lambda n: F(-1, n)), range(2, 4)),
        ],
        ids=lambda v: v.name if isinstance(v, WidthProfile) else f"n{min(v)}-{max(v)}",
    )
    def test_matches_fraction_construction(self, profile, ns):
        assert circle_mismatches(profile, ns) == []

    def test_refusal_texts(self):
        """Each refusal of the module, byte for byte."""
        half = profile_by_name("uniform:1/2")
        harmonic = WidthProfile("harmonic:1/111", lambda n: F(1, 111 * n))
        zero = WidthProfile("zero", lambda n: F(0))
        w = F(1, 1221)
        assert _refusal(build_circle, _certify, 3, half) == (
            "width profile uniform:1/2 is not strictly decreasing between indices 2 and 3"
        )
        assert _refusal(build_circle, _certify, 11, harmonic) == (
            "circles C11 and C10 intersect beyond the base point: the ray from p through "
            f"(1/10, 1) meets edge [(1/11, 1) -> ({F(1, 11) + 11 * w}, {1 - w})]"
        )
        assert _refusal(build_circle, _certify, 2, zero) == "width profile zero gave w(2) = 0 <= 0"

    def test_builds_no_fraction_and_calls_no_kernel(self, monkeypatch):
        """On the success path only the profile's own values are Fractions."""
        profile = WidthProfile("pow10", lambda n, w={n: F(1, 10 ** (10 * n)) for n in (39, 40)}: w[n])
        calls = []
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        for name in ("orient", "on_segment", "lerp", "point_dist_sq"):
            monkeypatch.setattr(kernels, name, lambda *a, name=name: calls.append(name))
        monkeypatch.setattr(Fraction, "__new__", counting)
        _certify(build_circle(40, profile), profile)
        monkeypatch.undo()
        assert calls == []

    def test_materialising_wraps_no_point(self, monkeypatch):
        """A handle materialises pow10 C_2 ... C_90, in shuffled order, with
        no Point2 and no Segment: a circle is its vertex quads, and its
        edges' length brackets are read off them. Its vertices and edges
        are views, built anew on each read."""
        circles, wraps, segments = materialise_shuffled(monkeypatch, 90)
        his = [circles[0].length_hi(j) for j in range(3)]
        assert (len(wraps), len(segments)) == (0, 0)
        edges, again = circles[0].edges, circles[0].edges
        assert again == edges and again is not edges
        assert (len(wraps), len(segments)) == (4, 6)
        assert his == [e.length_bracket[1] for e in edges]

    @pytest.mark.parametrize("name", ["pow10", "cube", "uniform:1/4"])
    def test_length_hi_brackets_each_edge_once(self, monkeypatch, name):
        """``length_hi(j)`` is the upper end of the length bracket of edge j
        of the oracle's circle, and a circle brackets each edge on the
        first read of that edge only: 3 brackets per circle, whatever the
        order of the reads."""
        profile = profile_by_name(name)
        calls = []
        real = spaces.dyadic_sqrt_bounds
        monkeypatch.setattr(spaces, "dyadic_sqrt_bounds", lambda q: calls.append(q) or real(q))
        order = (2, 0, 2, 1, 0)
        for n in (2, 3, 17, 90):
            circ = build_circle(n, profile)
            want = [e.length_bracket[1] for e in oracles.build_circle(n, profile).edges]
            assert [circ.length_hi(j) for j in order] == [want[j] for j in order], f"{name} C{n}"
        assert len(calls) == 12


def assert_tail_reduced(n, profile):
    """build_circle's C_n has the oracle's quads, equality, hash and repr."""
    got, want = build_circle(n, profile), oracles.build_circle(n, profile)
    assert (got._apex_q, got._tail_q) == (want.apex._q, want.tail._q), f"{profile.name} C{n}"
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want), f"{profile.name} C{n}"


class TestTailReduction:
    """``build_circle`` reduces D_n's x by h = gcd(n**2, wd mod n**2) and
    k = gcd((xn/h) mod n, n), where the oracle reduces the Fraction: the
    quads agree, and so do the circles' equality, hash and repr. Under
    uniform:1/4, D_2's x is 8/8, divided by h = 4 and then by k = 2."""

    @pytest.mark.parametrize("name", ["pow10", "cube", "uniform:1/4", "uniform:7/3"])
    def test_named_profiles(self, name):
        profile = profile_by_name(name)
        for n in range(2, 91):
            assert_tail_reduced(n, profile)

    def test_h_and_k_both_divide(self):
        assert build_circle(2, profile_by_name("uniform:1/4"))._tail_q == (1, 1, 3, 4)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(1, 60), b=st.integers(1, 60), e=st.integers(0, 4), n=st.integers(2, 60))
    def test_small_widths(self, a, b, e, n):
        """w(n) = a / (b * n**e + 1)."""
        assert_tail_reduced(n, WidthProfile(f"{a}/({b}n^{e}+1)", lambda n: F(a, b * n**e + 1)))


class TestWidthPairs:
    """A profile evaluates w(n) once per index and keeps it as the reduced
    int pair that every build, certificate and script price reads."""

    def test_fn_called_once_per_index(self, monkeypatch):
        """Each certified circle called fn twice, for w(n) in its build and
        w(n - 1) in its certificate, and a script's price once more."""
        profile, calls = counted_pow10()
        order = list(range(2, 41))
        for seed in (1, 2):
            random.Random(seed).shuffle(order)
            handle = compact_y(profile=profile)
            for n in order:
                handle.circle(n)
        for y in (handle, compact_y(profile=profile)):
            assert hausdorff_convergence(y, 40).passed
            assert verify_disjointness(y, 40).passed
        monkeypatch.setattr(dsl, "profile_by_name", lambda name: profile)
        dsl.parse(
            "space S = Y(40) width=pow10\nloop a = word g2 g40\nprobe hausdorff up_to=40\n"
            "probe disjointness up_to=40\nprobe nondiscreteness n_max=40 epsilon=1/10\n"
        )
        assert calls == Counter(range(2, 41))

    def test_pairs_kept_up_to_the_script_cap(self):
        """Kept pairs are never freed, so only indices a script or the CLI
        reaches are kept: a pow10 pair past the cap would hold about
        4.4 * n bytes for good."""
        profile, calls = counted_pow10()
        cap = spaces.MAX_CIRCLE_INDEX
        for n in (cap, cap + 1, cap, cap + 1):
            assert profile.pair(n) == (1, 10 ** (10 * n))
        assert calls == {cap: 1, cap + 1: 2}
        assert sorted(profile._pairs) == [cap]

    @pytest.mark.parametrize(
        "profile",
        CERTIFICATE_PROFILES
        + [profile_by_name(name) for name in ("uniform:1", "uniform:3", "uniform:-1/2", "uniform:0")]
        + [
            WidthProfile("ints", lambda n: 5 - n),
            WidthProfile("strs", lambda n: f"{6 - n}/{2 * n}"),
            WidthProfile("zero-from-5", lambda n: F(max(5 - n, 0), 10 * n)),
            WidthProfile("negative", lambda n: F(-1, n)),
        ],
        ids=lambda p: p.name,
    )
    def test_pair_is_the_reduced_width(self, profile):
        for n in range(2, 41):
            w = oracles.width(profile, n)
            assert profile.pair(n) == (w.numerator, w.denominator)


@lru_cache(maxsize=None)
def _location_points(name):
    """Points near C_2 ... C_40 of a profile: every vertex, k/64 along each
    edge, points off each edge by 1/10^j in four directions, and points on
    and off alpha. A point with a tiny x > 0, such as (1/10, 1) off
    B_10 D_10 under pow10, could only lie on a circle of index about 1/x,
    so points whose candidate circle is past C_1000 are left out."""
    y = compact_y(profile=profile_by_name(name))
    pts = [point(0, F(k, 64)) for k in range(1, 65)] + [point(F(1, 10), F(1, 2)), point(F(1, 1000), F(1, 2))]
    for j in (1, 3, 10, 30):
        eps = F(1, 10**j)
        pts += [point(-eps, F(1, 2)), point(0, 1 + eps), point(0, -eps)]
    for n in range(2, 41):
        circ = y.circle(n)
        pts += [circ.apex, circ.tail]
        for e in circ.edges:
            on = [oracles.segment_at(e, F(k, 64)) for k in range(1, 64)]
            pts += on
            for q in on[::21]:
                for j in (1, 3, 10, 30):
                    eps = F(1, 10**j)
                    pts += [point(q.x + dx, q.y + dy) for dx, dy in ((eps, 0), (-eps, 0), (0, eps), (0, -eps))]
    return tuple(q for q in pts if q.x <= 0 or candidate_circle(q._q) <= 1000)


class TestLocationOracle:
    """Point location against a scan of alpha and all three edges of the
    candidate circle with the reference on_segment. X differs from Y only
    on alpha, so it is checked on the points with x <= 0 and the vertices."""

    @pytest.mark.parametrize("name", ["pow10", "cube"])
    @pytest.mark.parametrize("kind", [SpaceKind.COMPACT_Y, SpaceKind.BOUQUET_X])
    def test_matches_scan(self, name, kind):
        space = compact_y(profile=profile_by_name(name)).sibling(kind)
        pts = _location_points(name)
        if kind is SpaceKind.BOUQUET_X:
            vertices = {v for c in map(space.circle, range(2, 41)) for v in (c.apex, c.tail)}
            pts = [q for q in pts if q.x <= 0 or q in vertices]
        wrong = [
            q
            for q in pts
            if space.edges_containing(q._q) != oracles.edges_containing(space, q)
            or space.membership(q) != oracles.membership(space, q)
        ]
        assert wrong == []
        assert space.membership(ORIGIN) == oracles.membership(space, ORIGIN)


class TestMembership:
    def setup_method(self):
        self.y = compact_y(hint=10)
        self.x = self.y.sibling(SpaceKind.BOUQUET_X)

    def test_base_point(self):
        assert self.y.membership(point(0, 0)).kind == "base"

    def test_alpha_midpoint(self):
        m = self.y.membership(point(0, "1/2"))
        assert m.kind == "alpha"

    def test_on_circle_edge(self):
        m = self.y.membership(point("1/4", "1/2"))
        assert m.kind == "circle" and m.circle_index == 2 and m.edge_index == 0

    def test_outside(self):
        assert self.y.membership(point(1, 1)).kind == "outside"
        assert self.x.membership(point(0, "1/2")).kind == "outside"

    def test_component_examples(self):
        assert self.y.membership(point(0, "1/2")).kind == "alpha"
        assert self.y.membership(point("1/4", "1/2")).circle_index == 2

    def test_component_constant_along_edges(self):
        for n in (2, 3, 7):
            circ = self.y.circle(n)
            for e in circ.edges:
                for k in (1, 3, 9):
                    q = oracles.segment_at(e, F(k, 10))
                    if q == point(0, 0):
                        continue
                    assert self.y.membership(q).circle_index == n

    def test_distinct_circles_distinct_components(self):
        comps = {self.y.membership(self.y.circle(n).apex).circle_index for n in range(2, 8)}
        assert len(comps) == 6

    def test_hint_does_not_change_membership(self):
        cube = profile_by_name("cube")
        small, large = compact_y(hint=4, profile=cube), compact_y(hint=40, profile=cube)
        assert small == large
        apex = build_circle(12, cube).apex
        assert small.membership(apex) == large.membership(apex) == Membership("circle", 12, 0)

    def test_edges_containing_vertex(self):
        refs = self.y.edges_containing(self.y.circle(3).apex._q)
        assert (3, 0) in refs and (3, 1) in refs


class TestDisjointness:
    def test_up_to_10_all_pairs(self):
        rep = verify_disjointness(compact_y(hint=10), 10)
        assert rep.passed
        assert dict(rep.parameters)["pairs_checked"] == "36"

    def test_up_to_3_single_pair(self):
        rep = verify_disjointness(bouquet_x(hint=4), 3)
        assert rep.passed
        assert dict(rep.parameters)["pairs_checked"] == "1"

    def test_sabotage_profile_fails(self):
        bad = bouquet_x(hint=6, profile=uniform_profile(F(1, 2)))
        rep = verify_disjointness(bad, 4)
        assert not rep.passed
        assert rep.witnesses  # at least one offending pair is reported

    def test_sabotage_handle_materialization_raises(self):
        bad = bouquet_x(hint=6, profile=uniform_profile(F(1, 2)))
        bad.circle(2)
        with pytest.raises(SpaceConsistencyError):
            bad.circle(3)

    def test_sabotage_refused_on_fresh_handle(self):
        bad = bouquet_x(hint=6, profile=uniform_profile(F(1, 2)))
        with pytest.raises(SpaceConsistencyError):
            bad.circle(3)
        assert bad._circles == {}

    @pytest.mark.parametrize("profile", CERTIFICATE_PROFILES, ids=lambda p: p.name)
    def test_certificate_matches_pairwise_check(self, profile):
        wrong = []
        for n in range(3, 40):
            meets = bool(_pair_intersection_violations(build_circle(n, profile), build_circle(n - 1, profile)))
            try:
                bouquet_x(profile=profile).circle(n)
                refused = False
            except SpaceConsistencyError:
                refused = True
            if refused != (meets or not F(*profile.pair(n)) < F(*profile.pair(n - 1))):
                wrong.append(n)
        assert wrong == []

    def test_kernel_work_to_20(self, monkeypatch):
        # seg_intersect looks orient and on_segment up as module globals on
        # each call, so wrapping them counts its work. Of the 9 edge pairs of
        # two circles, the 5 that hold a cap edge B_n D_n stop after two
        # orientations and no touch test.
        calls = Counter()

        def counted(name):
            fn = getattr(kernels, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("orient", "on_segment"):
            monkeypatch.setattr(kernels, name, counted(name))
        assert verify_disjointness(compact_y(), 20).passed
        assert calls == {"orient": 4446, "on_segment": 1026}

    def test_witness_built_from_the_one_intersection(self, monkeypatch):
        """Under uniform:1/4 every pair of C_2, C_3, C_4 meets. Each pair's
        nine edge pairs are intersected once each; the witness's hit comes
        from that result, not from a second intersection of its edges."""
        calls = []

        def counted(*args, _orig=kernels.seg_intersect):
            calls.append(args)
            return _orig(*args)

        monkeypatch.setattr(kernels, "seg_intersect", counted)
        rep = verify_disjointness(compact_y(profile=profile_by_name("uniform:1/4")), 4)
        assert len(calls) == 9 * 3
        assert [dict(w)["violation"] for w in rep.witnesses] == [
            "edges [(0, 0) -> (1/2, 1)] and [(1/3, 1) -> (13/12, 3/4)] meet at (10/21, 20/21)",
            "edges [(0, 0) -> (1/2, 1)] and [(1/4, 1) -> (5/4, 3/4)] meet at (17/36, 17/18)",
            "edges [(0, 0) -> (1/3, 1)] and [(1/4, 1) -> (5/4, 3/4)] meet at (17/52, 51/52)",
        ]

    def test_report_records_profile(self):
        rep = verify_disjointness(compact_y(hint=5), 4)
        assert ("width_profile", "pow10") in rep.parameters


class TestHausdorffConvergence:
    def test_table_to_20(self):
        rep = hausdorff_convergence(compact_y(hint=20), 20)
        assert rep.passed
        rows = rep.table_rows
        assert rows[0][0] == "2"
        first_sq = F(rows[0][1])
        assert first_sq <= 1
        values = [F(r[1]) for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        for n, v in zip(range(2, 21), values):
            assert v <= F(4, n * n)
        assert any("n >= 20" in note and "true" in note for note in rep.notes)

    def test_exact_closed_form(self):
        # farthest point of C_n from alpha is the cap vertex at x = 1/n + n*w
        rep = hausdorff_convergence(compact_y(hint=8), 8)
        for row in rep.table_rows:
            n = int(row[0])
            w = F(1, 10 ** (10 * n))
            assert F(row[1]) == (F(1, n) + n * w) ** 2

    def test_requires_y(self):
        with pytest.raises(SpaceError):
            hausdorff_convergence(bouquet_x(hint=5), 5)

    def test_rows_read_the_handles_circles(self, monkeypatch):
        """Only the rows whose circle the handle lacks build one, and the
        report is the one of a fresh handle."""
        want = hausdorff_convergence(compact_y(), 20)
        y = compact_y()
        for n in range(2, 11):
            y.circle(n)
        built = []

        def build(n, profile, _orig=build_circle):
            built.append(n)
            return _orig(n, profile)

        monkeypatch.setattr(spaces, "build_circle", build)
        assert hausdorff_convergence(y, 20) == want
        assert built == list(range(11, 21))


def oracle_hausdorff_sq(n, profile):
    return hausdorff_distance_sq(build_circle(n, profile).edges, (ALPHA_SEGMENT,))


class TestHausdorffClosedForm:
    # Under uniform:3, D_n lies below the x-axis, so its nearest point on
    # alpha is p rather than a foot on the segment's interior.
    @pytest.mark.parametrize(
        "profile", CERTIFICATE_PROFILES + [profile_by_name("uniform:3")], ids=lambda p: p.name
    )
    def test_matches_envelope_oracle(self, profile):
        y = compact_y(profile=profile)
        wrong = [n for n in range(2, 41) if circle_alpha_hausdorff_sq(y, n) != oracle_hausdorff_sq(n, profile)]
        assert wrong == []

    @given(
        num=st.integers(min_value=1, max_value=10**8),
        den=st.integers(min_value=1, max_value=10**8),
        n=st.integers(min_value=2, max_value=60),
    )
    # the seed pins the draws, which derandomize alone takes from the source text
    @seed(7)
    @settings(max_examples=200, derandomize=True, deadline=None)
    # w = 1 puts D_n on the x-axis, where the closed form's two branches meet
    @example(num=1, den=1, n=2)
    # w just above 1 puts D_n just below it, nearest to p
    @example(num=10**8, den=10**8 - 1, n=60)
    def test_random_widths_match_envelope_oracle(self, num, den, n):
        profile = uniform_profile(F(num, den))
        assert circle_alpha_hausdorff_sq(compact_y(profile=profile), n) == oracle_hausdorff_sq(n, profile)


class TestProfiles:
    def test_lookup(self):
        assert profile_by_name("pow10").name == "pow10"
        assert profile_by_name("default").name == "pow10"
        assert profile_by_name("cube").pair(2) == (1, 80)
        assert profile_by_name("uniform:1/2").pair(9) == (1, 2)
        with pytest.raises(SpaceError):
            profile_by_name("nope")

    def test_default_profile_values(self):
        assert profile_by_name("pow10").pair(2) == (1, 10**20)
        assert profile_by_name("pow10").pair(3) == (1, 10**30)

    def test_cube_profile_is_disjoint(self):
        rep = verify_disjointness(bouquet_x(hint=12, profile=profile_by_name("cube")), 12)
        assert rep.passed


class TestHandles:
    def test_sibling_shares_cache(self):
        y = compact_y(hint=6)
        y.circle(5)
        x = y.sibling(SpaceKind.BOUQUET_X)
        assert 5 in x._circles
        assert not x.has_alpha and y.has_alpha

    def test_equality_by_kind_and_profile(self):
        assert compact_y(hint=4) == compact_y(hint=9)
        assert compact_y(hint=4) != bouquet_x(hint=4)
