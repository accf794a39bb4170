import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pi1lab import kernels, loops, pi1
from pi1lab.exactnum import dyadic_sqrt_bounds
from pi1lab.geometry import ORIGIN, PLPath, Segment, _path, sup_distance
from pi1lab.loops import (
    Loop,
    _charted,
    _first_violation,
    concatenate,
    concatenate_all,
    constant_loop,
    include_in_y,
    loop_from_breakpoints,
    realize_word,
    reverse,
    standard_f,
    standard_fn,
    validate,
)
from pi1lab.pi1 import (
    ClassificationError,
    HomotopyClass,
    ProbeParameterError,
    alpha_decorate,
    choose_n,
    classify_x,
    classify_y,
    collapse_to_x,
    induced_map,
    loop_in_ball,
    probe_discreteness_x,
    probe_isomorphism_roundtrip,
    probe_nondiscreteness_y,
    probe_slsc_y,
    random_reduced_word,
    stability_radius,
)
from pi1lab.report import PASS
from pi1lab.spaces import (
    ALPHA,
    ALPHA_EDGE,
    CUBE,
    SpaceHandle,
    SpaceKind,
    WidthProfile,
    bouquet_x,
    compact_y,
    component_name,
    profile_by_name,
    uniform_profile,
)
from pi1lab.words import IDENTITY, invert, multiply, parse_word, reduce_letters

F = Fraction


@pytest.fixture(scope="module")
def y():
    return compact_y(hint=40)


@pytest.fixture(scope="module")
def x(y):
    return y.sibling(SpaceKind.BOUQUET_X)


class TestClassifyX:
    def test_constant_identity(self, x):
        assert classify_x(constant_loop(x)).word == IDENTITY

    def test_fn_is_generator(self, x):
        for n in range(2, 11):
            cls = classify_x(standard_fn(n, x))
            assert cls.word == parse_word(f"g{n}")
            assert cls.space_kind is SpaceKind.BOUQUET_X

    def test_realize_round_trip(self, x):
        w = parse_word("g2 g3^-1")
        assert classify_x(realize_word(w, x)).word == w
        # oracle: the construction makes one excursion per letter
        assert len(oracles.excursions(realize_word(w, x))) == len(w)

    def test_alpha_rejected(self, y):
        with pytest.raises(ClassificationError):
            classify_x(standard_f(y))


class TestChooseN:
    def test_alpha_only(self, y):
        assert choose_n(standard_f(y)) == 2

    def test_f5(self, y):
        assert choose_n(include_in_y(standard_fn(5, y.sibling(SpaceKind.BOUQUET_X)))) == 6

    def test_f2_concat_f(self, y):
        f2 = include_in_y(standard_fn(2, y.sibling(SpaceKind.BOUQUET_X)))
        assert choose_n(concatenate(f2, standard_f(y))) == 3

    def test_degree_zero_far_touch_still_counts_apex(self, y):
        # a there-and-back over the apex of C7 has degree 0 but pins N > 7
        c7 = y.circle(7)
        lp = loop_from_breakpoints(
            [(0, 0, 0), ("1/2", c7.apex.x, c7.apex.y), (1, 0, 0)], y
        )
        assert choose_n(lp) == 8

    def test_degree_zero_below_apex_ignored(self, y):
        mid = y.circle(7).edges[0].at(F(1, 3))
        lp = loop_from_breakpoints([(0, 0, 0), ("1/2", mid.x, mid.y), (1, 0, 0)], y)
        assert choose_n(lp) == 2


class TestCollapse:
    def test_f_collapses_to_constant(self, y):
        out = collapse_to_x(standard_f(y))
        assert out.space.kind is SpaceKind.BOUQUET_X
        assert classify_x(out).word == IDENTITY
        assert all(q == out.path.at(0) for _, q in out.path.breakpoints)

    def test_f2_unchanged(self, x):
        f2 = standard_fn(2, x)
        out = collapse_to_x(include_in_y(f2))
        assert out.path.breakpoints == f2.path.breakpoints

    def test_f_then_f2(self, y, x):
        lp = concatenate(standard_f(y), include_in_y(standard_fn(2, x)))
        out = collapse_to_x(lp)
        assert validate(out) is None
        assert classify_x(out).word == parse_word("g2")

    def test_alpha_collapsed_c2_kept_verbatim(self, y, x):
        lp = concatenate(standard_f(y), include_in_y(standard_fn(2, x)))
        out = collapse_to_x(lp)
        (kept,) = oracles.excursions(out)
        (c2,) = [exc for exc in oracles.excursions(lp) if exc.component != ALPHA]
        assert component_name(kept.component) == "C2"
        assert (oracles.breakpoints(kept), kept.piece_edges) == (oracles.breakpoints(c2), c2.piece_edges)

    def test_collapse_output_validates_in_x(self, y):
        rng = random.Random(5)
        for _ in range(10):
            w = random_reduced_word(rng, 6)
            lp = alpha_decorate(include_in_y(realize_word(w, y.sibling(SpaceKind.BOUQUET_X))), rng)
            out = collapse_to_x(lp)
            assert out.space.kind is SpaceKind.BOUQUET_X
            assert validate(out) is None

    def test_collapse_preserves_parameter_intervals(self, y):
        lp = standard_f(y)
        out = collapse_to_x(lp)
        assert out.path.params[0] == 0 and out.path.params[-1] == 1


class TestClassifyY:
    def test_f_identity(self, y):
        assert classify_y(standard_f(y)).word == IDENTITY

    def test_fn_generators(self, y):
        for n in range(2, 11):
            cls = classify_y(standard_fn(n, y))
            assert cls.word == parse_word(f"g{n}")
            assert cls.space_kind is SpaceKind.COMPACT_Y

    def test_wandering_loop(self, y, x):
        # up alpha and back, then twice around C3
        f3 = include_in_y(standard_fn(3, x))
        lp = concatenate_all([standard_f(y), f3, f3])
        assert classify_y(lp).word == parse_word("g3^2")

    def test_accepts_x_loops(self, x):
        assert classify_y(standard_fn(4, x)).word == parse_word("g4")


class TestInducedMap:
    def test_identity(self):
        c = HomotopyClass(IDENTITY, SpaceKind.BOUQUET_X)
        assert induced_map(c).word == IDENTITY
        assert induced_map(c).space_kind is SpaceKind.COMPACT_Y

    def test_retag(self):
        w = parse_word("g2 g3^-1")
        assert induced_map(HomotopyClass(w, SpaceKind.BOUQUET_X)).word == w

    def test_wrong_direction_rejected(self):
        with pytest.raises(ClassificationError):
            induced_map(HomotopyClass(IDENTITY, SpaceKind.COMPACT_Y))

    def test_round_trip_100_words(self, y):
        rep = probe_isomorphism_roundtrip(100, 10, seed=11, space=y)
        assert rep.passed, rep.render()


class TestHomomorphism:
    def test_concat_multiplies(self, x):
        rng = random.Random(3)
        for _ in range(15):
            u, v = random_reduced_word(rng, 6), random_reduced_word(rng, 6)
            a, b = realize_word(u, x), realize_word(v, x)
            assert classify_x(concatenate(a, b)).word == multiply(u, v)

    def test_reverse_inverts(self, x):
        rng = random.Random(4)
        for _ in range(15):
            u = random_reduced_word(rng, 6)
            a = realize_word(u, x)
            assert classify_x(reverse(a)).word == invert(u)

    def test_homomorphism_in_y(self, y, x):
        f = standard_f(y)
        a = include_in_y(realize_word(parse_word("g2 g4"), x))
        b = include_in_y(realize_word(parse_word("g4^-1 g3"), x))
        lhs = classify_y(concatenate(concatenate(a, f), b)).word
        assert lhs == parse_word("g2 g3")

    def test_reparametrization_invariance(self, x, y):
        lp = realize_word(parse_word("g2 g3^-1 g2"), x)
        warped = oracles.reparametrize(lp, [(0, 0), ("1/4", "3/4"), (1, 1)])
        assert classify_x(warped).word == classify_x(lp).word
        ly = concatenate(standard_f(y), include_in_y(lp))
        wy = oracles.reparametrize(ly, [(0, 0), ("2/3", "1/3"), (1, 1)])
        assert classify_y(wy).word == classify_y(ly).word


class TestCollapseSoundness:
    def test_alpha_insertion_invariant(self, y, x):
        rng = random.Random(9)
        for _ in range(10):
            w = random_reduced_word(rng, 8)
            base = include_in_y(realize_word(w, x))
            decorated = alpha_decorate(base, rng)
            assert classify_y(decorated).word == w
            collapsed = collapse_to_x(decorated)
            assert classify_x(collapsed).word == w

    def test_far_circle_insertion_invariant(self, y, x):
        w = parse_word("g2^2")
        base = include_in_y(realize_word(w, x))
        far = y.circle(30)
        mid = far.edges[0].at(F(1, 2))
        bounce = loop_from_breakpoints([(0, 0, 0), ("1/2", mid.x, mid.y), (1, 0, 0)], y)
        assert classify_y(concatenate_all([bounce, base, bounce])).word == w

    def test_direct_word_matches_collapsed_word(self, y, x):
        # Oracle: classify_y reads the word off the loop's own excursions;
        # collapsing into X first and classifying there must agree.
        rng = random.Random(47)
        decorated = [
            alpha_decorate(include_in_y(realize_word(random_reduced_word(rng, 6), x)), rng)
            for _ in range(20)
        ]
        bounces = []
        for n, arm, u in ((2, 0, F(1, 3)), (5, 2, F(1, 2)), (9, 0, F(7, 8)), (30, 2, F(1, 5))):
            q = y.circle(n).edges[arm].at(u)
            bounces.append(loop_from_breakpoints([(0, 0, 0), ("1/2", q.x, q.y), (1, 0, 0)], y))
        samples = [pi1._sample_small_loop(y, F(1, 4), rng) for _ in range(20)]
        for lp in decorated + bounces:
            circles = [exc for exc in oracles.excursions(lp) if exc.component != ALPHA]
            assert len(oracles.excursions(collapse_to_x(lp))) < len(circles)
        # every small loop collapses to the constant loop, circle arms included
        assert all(oracles.excursions(collapse_to_x(lp)) == () for lp in samples)
        assert any(exc.component != ALPHA for lp in samples for exc in oracles.excursions(lp))
        fns = [standard_fn(n, y) for n in range(2, 12)]
        words = []
        for _ in range(10):
            a = include_in_y(realize_word(random_reduced_word(rng, 5), x))
            b = alpha_decorate(include_in_y(realize_word(random_reduced_word(rng, 5), x)), rng)
            words += [reverse(a), concatenate(a, b), concatenate(reverse(b), bounces[rng.randrange(4)])]
        for lp in decorated + bounces + samples + fns + words:
            assert classify_y(lp).word == classify_x(collapse_to_x(lp)).word


class TestNondiscretenessProbe:
    def test_pass_at_32(self, y):
        rep = probe_nondiscreteness_y(8, F(1, 4), y)
        assert rep.passed
        words = [row[1] for row in rep.table_rows]
        assert words == [f"g{n}" for n in range(2, 9)]
        assert dict(rep.parameters)["word_of_limit_loop"] == "1"

    def test_fail_with_gap_witness(self, y):
        rep = probe_nondiscreteness_y(3, F(1, 1000), y)
        assert not rep.passed
        assert any("gap" in dict(wit) for wit in rep.witnesses)

    def test_distances_strictly_decreasing(self, y):
        rep = probe_nondiscreteness_y(10, F(1, 4), y)
        vals = [F(row[2]) for row in rep.table_rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_parameter_validation(self, y):
        with pytest.raises(ProbeParameterError):
            probe_nondiscreteness_y(1, F(1, 10), y)
        with pytest.raises(ProbeParameterError):
            probe_nondiscreteness_y(5, F(0), y)


class TestDiscretenessProbe:
    def test_f2_stable(self, x):
        rep = probe_discreteness_x(standard_fn(2, x), 50, F(1, 1000), seed=7)
        assert rep.passed
        assert dict(rep.parameters)["word"] == "g2"
        assert dict(rep.parameters)["agreeing_trials"] == "50"

    def test_constant_stable_identity(self, x):
        rep = probe_discreteness_x(constant_loop(x), 50, F(1, 1000), seed=7)
        assert rep.passed
        assert dict(rep.parameters)["word"] == "1"

    def test_word_loop_stable(self, x):
        rep = probe_discreteness_x(realize_word(parse_word("g2 g3"), x), 50, F(1, 1000), seed=7)
        assert rep.passed

    def test_magnitude_at_radius_rejected(self, x):
        lp = standard_fn(2, x)
        rho = stability_radius(lp)
        with pytest.raises(ProbeParameterError):
            probe_discreteness_x(lp, 5, rho, seed=1)

    def test_requires_x(self, y):
        with pytest.raises(ProbeParameterError):
            probe_discreteness_x(standard_f(y), 5, F(1, 1000), seed=1)

    def test_radius_values(self, x):
        assert stability_radius(constant_loop(x)) == F(1, 32)
        assert stability_radius(standard_fn(2, x)) == F(1, 32)
        # dist(M_2, edge 2 of C_3) is a hair below sqrt(1/160), the distance
        # from (1/4, 1/2) to the line y = 3x; its floor to 2**-40, over 8
        rho23 = stability_radius(realize_word(parse_word("g2 g3"), x))
        assert rho23 == F(10865503305, 2**40) < F(1, 72)

    def test_deterministic_given_seed(self, x):
        a = probe_discreteness_x(standard_fn(3, x), 20, F(1, 1000), seed=13).render()
        b = probe_discreteness_x(standard_fn(3, x), 20, F(1, 1000), seed=13).render()
        assert a == b


# Certified width profiles for the radius oracle: the tight one passes the
# cone certificate w(n) * (n**3 - n**2 + n) < 1 by 1, and the last gives C_2
# a width of 9/10, which no certificate checks.
RADIUS_PROFILES = {
    "pow10": (bouquet_x(), 30),
    "cube": (bouquet_x(profile=CUBE), 60),
    "tight": (bouquet_x(profile=WidthProfile("tight", lambda n: F(1, n**3 - n**2 + n + 1))), 60),
    "wide-c2": (bouquet_x(profile=WidthProfile("wide-c2", lambda n: F(9, 10) if n == 2 else F(1, 10 * n**3))), 60),
}


class TestRadiusOracle:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_all_pairs(self, data):
        """One distance per adjacent pair of touched circles gives the
        radius of every pair and all nine pairs of distal edge halves
        (oracles.stability_radius), on random touched sets of 1 to 8
        circles in any order."""
        space, top = RADIUS_PROFILES[data.draw(st.sampled_from(sorted(RADIUS_PROFILES)))]
        ns = data.draw(st.lists(st.integers(2, top), min_size=1, max_size=8, unique=True))
        lp = realize_word(parse_word(" ".join(f"g{n}" for n in ns)), space)
        assert stability_radius(lp) == oracles.stability_radius(lp)


class TestSlscProbe:
    def test_pass(self, y):
        rep = probe_slsc_y(F(1, 4), 50, seed=3, space=y)
        assert rep.passed
        assert dict(rep.parameters)["trivial"] == "50"

    def test_constant_extra_loop(self, y):
        rep = probe_slsc_y(F(1, 4), 3, seed=3, space=y, extra_loops=[constant_loop(y)])
        assert rep.passed
        assert dict(rep.parameters)["classified"] == "4"

    def test_full_circle_rejected_not_classified(self, y):
        f2 = include_in_y(standard_fn(2, y.sibling(SpaceKind.BOUQUET_X)))
        assert not loop_in_ball(f2, F(1, 4))
        rep = probe_slsc_y(F(1, 4), 3, seed=3, space=y, extra_loops=[f2])
        assert rep.passed
        assert dict(rep.parameters)["rejected_out_of_ball"] == "1"
        assert any("rejected" in str(dict(wit).get("status", "")) for wit in rep.witnesses)

    def test_radius_validation(self, y):
        with pytest.raises(ProbeParameterError):
            probe_slsc_y(F(1, 2), 5, space=y)
        with pytest.raises(ProbeParameterError):
            probe_slsc_y(F(0), 5, space=y)

    def test_pairs_with_nondiscreteness_note(self, y):
        rep = probe_slsc_y(F(1, 4), 2, seed=1, space=y)
        assert any("nondiscreteness" in note for note in rep.notes)


class TestReportDeterminism:
    def test_byte_identical_same_seed(self, y):
        a = probe_slsc_y(F(1, 4), 10, seed=42, space=y).render()
        b = probe_slsc_y(F(1, 4), 10, seed=42, space=y).render()
        assert a == b

    def test_fail_reports_carry_witnesses(self, y):
        rep = probe_nondiscreteness_y(3, F(1, 1000), y)
        assert rep.verdict == "FAIL" and len(rep.witnesses) >= 1


def demo_corpus(x):
    """The five loops the demo probes for discreteness."""
    return [
        constant_loop(x),
        standard_fn(2, x),
        standard_fn(3, x),
        realize_word(parse_word("g2 g3"), x),
        realize_word(parse_word("g2^2 g5^-1"), x),
    ]


def assert_carried(lp):
    """The loop was built with its chart, and the chart is what locating
    its path from scratch gives."""
    assert lp._chart is not None
    assert lp._chart == _first_violation(Loop(lp.path, lp.space))


class TestCarriedCharts:
    def test_collapse(self, y, x):
        rng = random.Random(31)
        for _ in range(40):
            w = random_reduced_word(rng, 8)
            decorated = alpha_decorate(include_in_y(realize_word(w, x)), rng)
            assert_carried(decorated)
            collapsed = collapse_to_x(decorated)
            assert_carried(collapsed)
            assert classify_x(collapsed).word == w

    def test_perturbation_result(self, x):
        """The loop _perturb_once returns is charted as fresh location charts
        it, slides and bounces included: at the probe's magnitude, and at
        magnitudes large enough that slides clamp at vertices and leave
        constant pieces."""
        corpus = demo_corpus(x)
        rng = random.Random(36)
        corpus += [realize_word(random_reduced_word(rng, 6), x) for _ in range(10)]
        corpus += [concatenate_all([corpus[0], lp, corpus[0]]) for lp in corpus[1:5]]
        bounces = slid_constant = 0
        for lp in corpus:
            excursions = len(oracles.excursions(lp))
            for bound in (F(1, 1000), F(1, 10), F(1)):
                for _ in range(6):
                    out = pi1._perturb_once(lp, rng, bound)
                    assert_carried(out)
                    bounces += len(oracles.excursions(out)) > excursions
                    slid_constant += any(
                        ref is None and p0 != ORIGIN
                        for ref, ((_, p0), _) in zip(out._chart, out.path.pieces())
                    )
        assert bounces > 0 and slid_constant > 0

    def test_slsc_samples(self, y, x):
        """Each group of an slsc sample is charted on its arm: alpha, or edge
        0 or 2 of a circle; in X an alpha group falls back to edge 0."""
        arms = set()
        for space in (y, x):
            for seed in range(40):
                rng = random.Random(seed)
                for radius in (F(1, 4), F(1, 3), F(1, 1000), F(49, 100)):
                    lp = pi1._sample_small_loop(space, radius, rng)
                    assert_carried(lp)
                    arms.update(ref if ref == ALPHA_EDGE else ("circle", ref[1]) for ref in lp._chart)
        assert arms == {ALPHA_EDGE, ("circle", 0), ("circle", 2)}


def perturb_once_fraction(loop, rng, bound, clamps):
    """_perturb_once's breakpoints by the Fraction formulas it replaced:
    subdivision parameters, and each slid parameter with its clamp to
    [0, 1]. ``clamps`` counts the slides clamped at 0 and at 1."""
    grid = 64
    extra = []
    params = loop.path.params
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(params) - 1)
        k = rng.randint(1, grid - 1)
        extra.append(params[i] + (params[i + 1] - params[i]) * Fraction(k, grid))
    work = oracles.subdivide(loop, extra)
    edges = work._chart
    bks = list(work.path.breakpoints)
    for i in oracles.slide_candidates(work):
        if rng.random() < 0.5:
            continue
        seg = loop.space.edge_segment(edges[i - 1])
        _, hi_len = dyadic_sqrt_bounds(seg.length_sq)
        max_du = bound / (2 * hi_len)
        t, q = bks[i]
        u = Fraction(*kernels.foot_param(q.quad(), seg.a.quad(), seg.b.quad()))
        du = max_du * Fraction(rng.randint(-grid, grid), grid)
        clamps[0] += u + du < 0
        clamps[1] += u + du > 1
        u2 = min(max(u + du, Fraction(0)), Fraction(1))
        bks[i] = (t, seg.at(u2))
    const_p = [
        i
        for i, ((_, p0), (_, p1)) in enumerate(zip(bks, bks[1:]))
        if p0 == ORIGIN and p1 == ORIGIN
    ]
    if const_p and rng.random() < 0.75:
        i = rng.choice(const_p)
        touched = sorted({ref[0] for ref in edges if ref is not None} - {ALPHA})
        n = rng.choice(touched or [2])
        circ = loop.space.circle(n)
        arm, arm_u = (0, Fraction(0)) if rng.random() < 0.5 else (2, Fraction(1))
        arm_edge = circ.edges[arm]
        _, hi_len = dyadic_sqrt_bounds(arm_edge.length_sq)
        du = (bound / (2 * hi_len)) * Fraction(rng.randint(1, grid), grid)
        u2 = arm_u + (du if arm_u == 0 else -du)
        t0, t1 = bks[i][0], bks[i + 1][0]
        bks.insert(i + 1, ((t0 + t1) / 2, arm_edge.at(u2)))
    return PLPath(tuple(bks)).breakpoints


class TestPerturbOracle:
    def test_slides_match_fraction_formula(self, x):
        """Same rng, same breakpoints, over the demo corpus at magnitudes
        where no slide clamps and where slides clamp at both ends."""
        clamps = [0, 0]
        for k, lp in enumerate(demo_corpus(x)):
            for bound in (F(1, 1000), F(1, 10), F(1)):
                for seed in range(12):
                    want = perturb_once_fraction(lp, random.Random(seed), bound, clamps)
                    got = pi1._perturb_once(lp, random.Random(seed), bound)
                    assert got.path.breakpoints == want, (k, bound, seed)
        assert clamps[0] > 0 and clamps[1] > 0

    def test_one_walk_matches_two_steps(self, x):
        """The one walk gives the parameters, point quads and chart of the
        subdivide-then-slide construction, and leaves the generator in the
        same state, over the demo corpus, random words and constant-padded
        concatenations."""
        rng = random.Random(37)
        corpus = demo_corpus(x)
        corpus += [realize_word(random_reduced_word(rng, 8), x) for _ in range(30)]
        const = corpus[0]
        corpus += [concatenate_all([const, lp, const]) for lp in corpus[1:12]]
        corpus += [concatenate(lp, const) for lp in corpus[12:18]]
        for k, lp in enumerate(corpus):
            for bound in (F(1, 1000), F(1, 10), F(1)):
                for seed in range(40):
                    r_want, r_got = random.Random(seed), random.Random(seed)
                    want = oracles.perturb_once(lp, r_want, bound)
                    got = pi1._perturb_once(lp, r_got, bound)
                    assert got.path._ts == want.path._ts, (k, bound, seed)
                    assert [q._q for q in got.path.points] == [q._q for q in want.path.points]
                    assert got._chart == want._chart
                    assert r_got.getstate() == r_want.getstate()


class TestPerturbationBound:
    """A perturbation stays strictly within its magnitude in the sup
    metric, by construction, at magnitudes below and above the stability
    radius; the probe checks it exactly for every trial."""

    @pytest.mark.parametrize("width", ["pow10", "cube", "uniform:1/2"])
    def test_below_magnitude(self, width):
        space = bouquet_x(20, profile_by_name(width))
        if width.startswith("uniform"):  # its circles meet past C_2
            corpus = [realize_word(parse_word(w), space) for w in ("1", "g2", "g2^2", "g2^-1")]
        else:
            corpus = demo_corpus(space)
        rng = random.Random(38)
        for lp in corpus:
            for bound in (F(1, 1000), F(1, 10), F(1), F(3)):
                for _ in range(20):
                    out = pi1._perturb_once(lp, rng, bound)
                    d = sup_distance(out.path, lp.path)
                    assert d.squared < bound * bound

    def test_probe_refuses_a_perturbation_past_the_magnitude(self, x, monkeypatch):
        """A perturbation that moves the apex of C_2 halfway to p is far
        past the magnitude: the probe raises, naming the trial, instead of
        retrying with a smaller bound."""
        real = pi1._perturb_once

        def halfway(loop, rng, bound):
            real(loop, rng, bound)
            pts = list(loop.path.points)
            pts[1] = Segment(ORIGIN, pts[1]).at(F(1, 2))
            return _charted(_path(loop.path._ts, tuple(pts)), loop.space, loop._chart)

        monkeypatch.setattr(pi1, "_perturb_once", halfway)
        with pytest.raises(AssertionError, match="trial 0"):
            probe_discreteness_x(standard_fn(2, x), 5, F(1, 1000), seed=1)


def assert_reduced_increasing(path):
    """Every parameter pair is reduced with a positive denominator, the
    pairs strictly increase from 0 to 1, and the public constructor, fed the
    parameters as Fractions, gives the same path."""
    ts = path._ts
    assert all(d > 0 and math.gcd(n, d) == 1 for n, d in ts)
    assert ts[0] == (0, 1) and ts[-1] == (1, 1)
    assert all(n0 * d1 < n1 * d0 for (n0, d0), (n1, d1) in zip(ts, ts[1:]))
    assert PLPath(path.breakpoints) == path


class TestParameterPairs:
    """Builders that emit parameter pairs directly keep them reduced and in
    order, over the demo corpus and random words."""

    @given(
        letters=st.lists(st.tuples(st.integers(2, 9), st.sampled_from((1, -1))), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_builders(self, x, letters, seed):
        rng = random.Random(seed)
        word_loop = realize_word(reduce_letters(letters), x)
        corpus = demo_corpus(x) + [word_loop, concatenate(word_loop, standard_fn(3, x))]
        paths = []
        for lp in corpus:
            built = (
                lp,
                reverse(lp),
                concatenate(lp, reverse(lp)),
                pi1._perturb_once(lp, rng, F(1, 1000)),
                pi1._perturb_once(lp, rng, F(1, 10)),
            )
            paths += [b.path for b in built]
            paths += [oracles.subpath(exc) for b in built for exc in oracles.excursions(b)]
            decorated = alpha_decorate(include_in_y(lp), rng)
            paths += [decorated.path, collapse_to_x(decorated).path]
            paths += [oracles.subpath(exc) for exc in oracles.excursions(decorated)]
        for path in paths:
            assert_reduced_increasing(path)

    def test_standard_loops(self, x, y):
        """standard_fn reads (1 + w)/2 off the tail; under uniform:1/3 its
        numerator is even and the pair is halved."""
        third = compact_y(hint=2, profile=uniform_profile(F(1, 3)))
        built = [standard_f(y), standard_f(third), constant_loop(x), standard_fn(2, third)]
        built += [standard_fn(n, space) for n in range(2, 12) for space in (x, y)]
        built += [standard_fn(n, compact_y(hint=12, profile=CUBE)) for n in range(2, 12)]
        for lp in built:
            assert_reduced_increasing(lp.path)
        assert standard_fn(2, third).path.params == (0, F(1, 2), F(2, 3), 1)
        for n in range(2, 12):
            w = x.profile(n)
            assert standard_fn(n, x).path.params[2] == (1 + w) / 2

    def test_slsc_samples(self, y):
        rng = random.Random(7)
        for radius in (F(1, 4), F(1, 1000), F(49, 100)):
            for _ in range(30):
                assert_reduced_increasing(pi1._sample_small_loop(y, radius, rng).path)


class TestRecords:
    """Loops are slotted records whose equality and hash ignore what is
    stored on them: a chart or spans."""

    @given(
        letters=st.lists(st.tuples(st.integers(2, 9), st.sampled_from((1, -1))), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_equality_ignores_stored_state(self, x, letters, seed):
        rng = random.Random(seed)
        word_loop = realize_word(reduce_letters(letters), x)
        ly = include_in_y(word_loop)
        corpus = demo_corpus(x) + [
            word_loop,
            ly,
            alpha_decorate(ly, rng),
            pi1._perturb_once(word_loop, rng, F(1, 1000)),
        ]
        assert word_loop != ly
        for lp in corpus:
            fresh = Loop(lp.path, lp.space)
            assert fresh._chart == lp._chart and fresh._spans is None
            assert lp == fresh and hash(lp) == hash(fresh)
            spans = loops._spans(lp)
            assert lp._spans is spans and fresh._spans is None
            assert lp == fresh and hash(lp) == hash(fresh)
            for obj in (lp, fresh):
                assert not hasattr(obj, "__dict__")


@pytest.fixture
def located(monkeypatch):
    """Every point the space handles are asked to locate, in order."""
    seen = []
    for name in ("edges_containing", "membership"):
        def counted(self, q, _orig=getattr(SpaceHandle, name)):
            seen.append(q)
            return _orig(self, q)

        monkeypatch.setattr(SpaceHandle, name, counted)
    return seen


class TestLocateOnce:
    def test_points_loop(self, y, located):
        apex, tail = y.circle(3).apex, y.circle(3).tail
        lp = loop_from_breakpoints(
            [
                (0, 0, 0),
                ("1/8", 0, "1/2"),
                ("2/8", 0, 0),
                ("3/8", apex.x, apex.y),
                ("4/8", apex.x, apex.y),
                ("5/8", tail.x, tail.y),
                ("6/8", 0, 0),
                ("7/8", 0, 0),
                (1, 0, 0),
            ],
            y,
        )
        assert classify_y(lp).word == parse_word("g3")
        # the stationary piece at the apex passes it twice; it is located once
        assert located == list(dict.fromkeys(q for _, q in lp.path.breakpoints if q != ORIGIN))

    def test_realized_word_located_by_its_parts_only(self, x, located):
        rng = random.Random(33)
        for _ in range(20):
            w = random_reduced_word(rng, 8)
            lx = realize_word(w, x)
            assert classify_y(include_in_y(lx)).word == w
            assert classify_x(lx).word == w
            assert located == []

    def test_discreteness_probe_locates_nothing(self, x, located):
        for seed, lp in enumerate(demo_corpus(x)):
            assert probe_discreteness_x(lp, 40, F(1, 1000), seed).verdict == PASS
        assert located == []

    def test_roundtrip_locates_only_in_validate(self, y, located, monkeypatch):
        inside = []

        def counted(loop):
            before = len(located)
            out = validate(loop)
            inside.append(len(located) - before)
            return out

        monkeypatch.setattr(pi1, "validate", counted)
        assert probe_isomorphism_roundtrip(40, 10, 37, y).verdict == PASS
        assert len(inside) == 40
        assert sum(inside) == len(located) > 0

    def test_slsc_probe_locates_nothing(self, y, located):
        for seed in range(4):
            assert probe_slsc_y(F(1, 4), 50, seed, y).verdict == PASS
        assert located == []

    def test_validate_locates_afresh(self, y, x, located):
        decorated = alpha_decorate(include_in_y(realize_word(parse_word("g2^2 g3^-1"), x)), random.Random(34))
        collapsed = collapse_to_x(decorated)
        located.clear()
        assert validate(collapsed) is None
        # one query per distinct point other than p, in the order first met
        passed = [q for _, q in collapsed.path.breakpoints if q != ORIGIN]
        assert located == list(dict.fromkeys(passed))
        assert len(located) < len(passed)


@pytest.fixture
def scans(monkeypatch):
    """The breakpoints of every chart the loops module scans for spans."""
    seen = []

    def counted(ts, pts, chart, space, _orig=loops._scan):
        seen.append(pts)
        return _orig(ts, pts, chart, space)

    monkeypatch.setattr(loops, "_scan", counted)
    return seen


class TestDecomposeOnce:
    def test_alpha_decorate_after_classify_y_does_not_decompose_again(self, x, scans):
        rng = random.Random(51)
        for _ in range(10):
            w = random_reduced_word(rng, 8)
            ly = include_in_y(realize_word(w, x))
            assert classify_y(ly).word == w
            before = len(scans)
            alpha_decorate(ly, rng)
            assert len(scans) == before

    def test_winding_degree_once_per_excursion(self, x, scans):
        lx = realize_word(parse_word("g2 g3^-2 g5"), x)
        assert classify_x(lx).word == parse_word("g2 g3^-2 g5")
        assert choose_n(lx) == 6
        assert [d for *_, d in loops._spans(lx)] == [1, -1, -1, 1]
        assert stability_radius(lx) > 0 and collapse_to_x(include_in_y(lx)) == lx
        assert scans == [lx.path.points, lx.path.points]


def _outcome(read, *args):
    """What ``read(*args)`` returns, or the type and text of its error."""
    try:
        return read(*args)
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


class TestSpansOracle:
    """The span readers equal the excursion records they replaced."""

    @given(
        letters=st.lists(st.tuples(st.integers(2, 9), st.sampled_from((1, -1))), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_readers_match_the_oracle(self, x, y, letters, seed):
        rng = random.Random(seed)
        word_loop = realize_word(reduce_letters(letters), x)
        corpus = demo_corpus(x) + [word_loop]
        corpus += [reverse(word_loop), concatenate(word_loop, reverse(corpus[4]))]
        corpus += [concatenate_all([corpus[3], word_loop, corpus[1]])]
        params = word_loop.path.params
        corpus += [oracles.subdivide(word_loop, [F(rng.randint(0, 64), 64), params[rng.randrange(len(params))] / 3])]
        corpus += [pi1._perturb_once(lp, rng, bound) for lp in corpus[1:6] for bound in (F(1, 1000), F(1))]
        decorated = [alpha_decorate(include_in_y(lp), rng) for lp in (word_loop, corpus[4], corpus[1])]
        corpus += decorated + [collapse_to_x(lp) for lp in decorated]
        corpus += [pi1._sample_small_loop(space, F(1, 4), rng) for space in (x, y)]
        # points loops, located when built: a there-and-back to a point of an
        # edge (the apex at u = 1 on edge 0), and a decorated loop relocated
        n, j = rng.randint(2, 12), rng.choice((0, 2))
        q = y.circle(n).edges[j].at(F(rng.choice((1, 2, 3)), 3))
        corpus += [loop_from_breakpoints([(0, 0, 0), ("1/2", q.x, q.y), (1, 0, 0)], y)]
        corpus += [Loop(decorated[0].path, y), Loop(corpus[5].path, x)]
        for lp in corpus:
            assert loops._spans(lp) == oracles.spans(lp)
            assert _outcome(lambda: classify_x(lp).word) == _outcome(oracles.classify, lp, SpaceKind.BOUQUET_X)
            assert classify_y(lp).word == oracles.classify(include_in_y(lp), SpaceKind.COMPACT_Y)
            assert choose_n(lp) == oracles.cutoff(lp)
            out, want = collapse_to_x(lp), oracles.collapse_to_x(lp)
            assert (out, out._chart) == (want, want._chart)
