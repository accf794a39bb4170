import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from pi1lab import kernels, loops, pi1
from pi1lab.exactnum import dyadic_sqrt_bounds
from pi1lab.geometry import ORIGIN, PLPath, Segment, sup_distance
from pi1lab.loops import (
    Loop,
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
    loop_in_ball,
    probe_discreteness_x,
    probe_isomorphism_roundtrip,
    probe_nondiscreteness_y,
    probe_slsc_y,
    random_reduced_word,
    stability_radius,
)
from pi1lab.report import FAIL, PASS
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
from test_loops import assert_carried

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
        mid = oracles.segment_at(y.circle(7).edges[0], F(1, 3))
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
        params = oracles.params(out.path)
        assert params[0] == 0 and params[-1] == 1


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
    """The map that the inclusion induces on classes is the round trip's Y
    read: the realized loop, carried into Y, classifies back to its word."""

    def test_round_trip_100_words(self, y):
        rep = probe_isomorphism_roundtrip(100, 10, seed=11, space=y)
        assert rep.passed, rep.render()

    def test_round_trip_refuses_a_negative_max_len_before_drawing(self, y):
        """max_len=-1 raised a bare ValueError from the rng helper."""
        with pytest.raises(ProbeParameterError, match="max_len"):
            probe_isomorphism_roundtrip(5, -1, seed=0, space=y)
        assert probe_isomorphism_roundtrip(3, 0, seed=0, space=y).passed

    def test_words_are_drawn_as_the_oracle_draws_g2_to_g9(self):
        """The round trip's words take the draws of ``oracles.random_word``
        over g2 ... g9, and leave the generator where it leaves it."""
        for s in range(200):
            mine, theirs = random.Random(s), random.Random(s)
            assert random_reduced_word(mine, s % 13) == oracles.random_word(theirs, s % 13, range(2, 10))
            assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("route", ["classify_Y", "decorated_collapse", "collapsed_valid_in_X"])
    def test_a_broken_route_fails_its_column(self, y, monkeypatch, route):
        """Breaking one word route of the round trip (the Y read, the read
        of the decorated collapse, or ``validate`` of the collapsed loop)
        fails every word, with a row whose one wrong column is that route's."""
        read = pi1._loop_syllables
        kinds = {"classify_Y": SpaceKind.COMPACT_Y, "decorated_collapse": SpaceKind.BOUQUET_X}

        def misread(loop, kind):
            out = read(loop, kind)
            return out + ((2, 1),) if kind is kinds[route] else out

        if route == "collapsed_valid_in_X":
            monkeypatch.setattr(pi1, "validate", lambda loop: "broken")
        else:
            monkeypatch.setattr(pi1, "_loop_syllables", misread)
        rep = probe_isomorphism_roundtrip(5, 6, seed=3, space=y)
        assert rep.verdict == FAIL and len(rep.witnesses) == 5
        for row in rep.witnesses:
            cols = dict(row)
            assert tuple(cols) == ("word", "classify_Y", "decorated_collapse", "collapsed_valid_in_X")
            right = {"classify_Y": cols["word"], "decorated_collapse": cols["word"], "collapsed_valid_in_X": "True"}
            assert [k for k in right if cols[k] != right[k]] == [route]


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
        mid = oracles.segment_at(far.edges[0], F(1, 2))
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
            q = oracles.segment_at(y.circle(n).edges[arm], u)
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

    def test_a_nontrivial_limit_loop_fails_with_its_witness(self, monkeypatch):
        """A limit loop f that spells a letter fails the probe with one
        witness row naming f and its word; the probe raised ValueError for
        it when the verdict was passed in rather than read off the rows."""
        space = compact_y()
        f = standard_f(space)
        read = pi1.classify_y

        def misread(loop):
            return HomotopyClass(parse_word("g2"), SpaceKind.COMPACT_Y) if loop == f else read(loop)

        monkeypatch.setattr(pi1, "classify_y", misread)
        rep = probe_nondiscreteness_y(32, F(1, 10), space)
        assert rep.verdict == FAIL
        assert rep.witnesses == ((("loop", "f"), ("word", "g2"), ("reason", "limit loop not classified as identity")),)
        assert dict(rep.parameters)["word_of_limit_loop"] == "g2"

    def test_bound_is_strict(self):
        """A final distance equal to epsilon is not below it: under
        uniform:1/4, f_2 is at sup distance exactly 1 from f."""
        rep = probe_nondiscreteness_y(2, 1, compact_y(profile=profile_by_name("uniform:1/4")))
        assert rep.table_rows[-1][2] == "1"
        assert rep.verdict == FAIL
        assert [dict(wit)["gap"] for wit in rep.witnesses] == [
            "final sup distance is not yet below epsilon; enlarge n_max"
        ]

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


def mid_edge_loop(x):
    """p -> (1/4, 1/2) -> B_2 -> D_2 -> 2 D_2 / 3 -> p, then constant at p:
    under pow10, the loop of test_cli's mid-edge digest."""
    c2 = x.circle(2)
    raw = [(0, 0, 0), ("1/6", "1/4", "1/2"), ("1/3", c2.apex.x, c2.apex.y), ("1/2", c2.tail.x, c2.tail.y)]
    raw += [("2/3", c2.tail.x * 2 / 3, c2.tail.y * 2 / 3), ("5/6", 0, 0), (1, 0, 0)]
    return loop_from_breakpoints(raw, x)


class TestFamilyKeepsTheWord:
    """The drawn family keeps the word at every magnitude at which a draw
    stays in X, the stability radius rho included or not: a pick splits a
    piece on its own edge, a slide moves a point along the one edge that
    carries both of its pieces, and a bounce goes out and back on one arm
    at p. So the probe's PASS tests the classifier's homotopy invariance;
    rho bounds no loop's distance to another class."""

    def test_draws_above_rho(self, x):
        rng = random.Random(10)
        corpus = [standard_fn(2, x), concatenate(standard_fn(3, x), reverse(standard_fn(3, x))), mid_edge_loop(x)]
        corpus += [realize_word(random_reduced_word(rng, 8), x) for _ in range(30)]
        outside = 0
        for lp in corpus:
            word = classify_x(lp).word
            far = 1000 * stability_radius(lp)
            for bound in (far, F(1), F(3, 2)):
                table = pi1._PerturbTable(lp, bound)
                for seed in range(20):
                    drawn = oracles.walked_loop(table, random.Random(seed))
                    v = validate(drawn)
                    if v is None:
                        assert classify_x(Loop(drawn.path, x)).word == word, (lp, bound, seed)
                        continue
                    # a bounce longer than its arm: its point is off the arm
                    assert bound == far and v.reason.endswith(" is outside the space"), v
                    assert drawn.path._qs[v.piece_index] == ORIGIN._q, v
                    outside += 1
        assert outside > 0


# Certified width profiles for the radius oracle: the tight one passes the
# cone certificate w(n) * (n**3 - n**2 + n) < 1 by 1, and the last gives C_2
# a width of 9/10, which no certificate checks.
RADIUS_PROFILES = {
    "pow10": (bouquet_x(), 30),
    "cube": (bouquet_x(profile=CUBE), 60),
    "tight": (bouquet_x(profile=WidthProfile("tight", lambda n: F(1, n**3 - n**2 + n + 1))), 60),
    "wide-c2": (bouquet_x(profile=WidthProfile("wide-c2", lambda n: F(9, 10) if n == 2 else F(1, 10 * n**3))), 60),
}


def assert_radius_matches_oracle(space, ns):
    """stability_radius of the word g_n for n in ``ns``, in order, equals
    the all-pairs radius of oracles.stability_radius."""
    lp = realize_word(parse_word(" ".join(f"g{n}" for n in ns)), space)
    assert stability_radius(lp) == oracles.stability_radius(lp), (space.profile.name, ns)


class TestRadiusOracle:
    # The seed pins the draws, which derandomize alone takes from the
    # test's source text, and with them the test's cost (about 1 s).
    @seed(7)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_all_pairs(self, data):
        """One distance per adjacent pair of touched circles gives the
        radius of every pair and all nine pairs of distal edge halves
        (oracles.stability_radius), on random touched sets of 1 to 8
        circles in any order."""
        space, top = RADIUS_PROFILES[data.draw(st.sampled_from(sorted(RADIUS_PROFILES)))]
        assert_radius_matches_oracle(space, data.draw(st.lists(st.integers(2, top), min_size=1, max_size=8, unique=True)))


class TestSlscProbe:
    def test_pass(self, y):
        rep = probe_slsc_y(F(1, 4), 50, seed=3, space=y)
        assert rep.passed
        assert dict(rep.parameters)["trivial"] == "50"

    def test_a_nontrivial_sample_fails_with_its_witness(self, y, monkeypatch):
        """A sample that spells a letter fails the probe with one witness row
        naming it; it counts as classified and not as trivial."""
        read = pi1._loop_syllables
        reads = []

        def misread(loop, kind):
            reads.append(kind)
            return ((2, 1),) if len(reads) == 2 else read(loop, kind)

        monkeypatch.setattr(pi1, "_loop_syllables", misread)
        rep = probe_slsc_y(F(1, 4), 5, 3, y)
        params = dict(rep.parameters)
        assert rep.verdict == FAIL
        assert rep.witnesses == ((("sample", "1"), ("word", "g2"), ("reason", "nontrivial small loop")),)
        assert (params["classified"], params["trivial"], params["rejected_out_of_ball"]) == ("5", "4", "0")

    def test_negative_radius_ball_is_empty(self, y):
        """The closed ball of negative radius holds no point, so no loop lies
        in it, however small; the ball of radius 0 holds p only."""
        for lp in (standard_f(y), constant_loop(y)):
            assert not loop_in_ball(lp, F(-2))
            assert not loop_in_ball(lp, F(-1, 10**9))
        assert loop_in_ball(constant_loop(y), F(0))
        assert not loop_in_ball(standard_f(y), F(0))
        assert loop_in_ball(standard_f(y), F(1)) and not loop_in_ball(standard_f(y), F(-1))

    def test_radius_validation(self, y):
        with pytest.raises(ProbeParameterError):
            probe_slsc_y(F(1, 2), 5, 0, y)
        with pytest.raises(ProbeParameterError):
            probe_slsc_y(F(0), 5, 0, y)

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
        """The loop of a walk is charted as fresh location charts it,
        slides and bounces included: at the probe's magnitude, and at
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
                    out = oracles.walked_loop(pi1._PerturbTable(lp, bound), rng)
                    assert_carried(out)
                    bounces += len(oracles.excursions(out)) > excursions
                    slid_constant += any(
                        ref is None and q0 != ORIGIN._q for ref, q0 in zip(out._chart, out.path._qs)
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
    """A walk's breakpoints by the Fraction formulas it replaced:
    subdivision parameters, and each slid parameter with its clamp to
    [0, 1]. ``clamps`` counts the slides clamped at 0 and at 1."""
    grid = 64
    extra = []
    params = oracles.params(loop.path)
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
        n, j = edges[i - 1]
        seg = loop.space.circle(n).edges[j]
        _, hi_len = dyadic_sqrt_bounds(seg.length_sq)
        max_du = bound / (2 * hi_len)
        t, q = bks[i]
        u = Fraction(*kernels.foot_param(q._q, seg.a._q, seg.b._q))
        du = max_du * Fraction(rng.randint(-grid, grid), grid)
        clamps[0] += u + du < 0
        clamps[1] += u + du > 1
        u2 = min(max(u + du, Fraction(0)), Fraction(1))
        bks[i] = (t, oracles.segment_at(seg, u2))
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
        bks.insert(i + 1, ((t0 + t1) / 2, oracles.segment_at(arm_edge, u2)))
    return PLPath(tuple(bks)).breakpoints


class TestBelow:
    class Undrawn(random.Random):
        """A generator that must not be drawn from."""

        def getrandbits(self, k):
            raise AssertionError(f"getrandbits({k}) drawn")

    def test_matches_the_stdlib(self):
        """_below(n) is randrange(n) bit for bit, and leaves the generator
        in the same state; lo + _below(hi - lo + 1) is randint(lo, hi) and
        seq[_below(len(seq))] is choice(seq)."""
        for seed in range(20):
            a, b = random.Random(seed), random.Random(seed)
            for n in range(1, 301):
                assert pi1._below(a, n) == b.randrange(n), (seed, n)
                lo = seed - n // 2
                assert lo + pi1._below(a, n) == b.randint(lo, lo + n - 1), (seed, n)
                seq = tuple(range(n, 2 * n))
                assert seq[pi1._below(a, len(seq))] == b.choice(seq), (seed, n)
                assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("n", [0, -1])
    def test_refuses_an_empty_range_before_drawing(self, n):
        with pytest.raises(ValueError):
            pi1._below(self.Undrawn(0), n)


def assert_draws_match_oracle(corpus, seeds):
    """Each seed's perturbation of each loop of ``corpus``, at magnitudes
    1/1000, 1/10 and 1, drawn by a fresh _PerturbTable and by one
    shared across the seeds, as the probe draws its trials: both give the
    parameters, point quads and chart of the subdivide-then-slide
    construction of oracles.perturb_once, and leave the generator in its
    state."""
    for k, lp in enumerate(corpus):
        for bound in (F(1, 1000), F(1, 10), F(1)):
            table = pi1._PerturbTable(lp, bound)
            for seed in seeds:
                r_want = random.Random(seed)
                want = oracles.perturb_once(lp, r_want, bound)
                for tab in (pi1._PerturbTable(lp, bound), table):
                    r_got = random.Random(seed)
                    got = oracles.walked_loop(tab, r_got)
                    assert got == want and got.path._ts == want.path._ts, (k, bound, seed)
                    assert [q._q for q in got.path.points] == [q._q for q in want.path.points]
                    assert got._chart == want._chart
                    assert r_got.getstate() == r_want.getstate()


class TestPerturbOracle:
    def test_slides_match_fraction_formula(self, x):
        """Same rng, same breakpoints, over the demo corpus at magnitudes
        where no slide clamps and where slides clamp at both ends."""
        clamps = [0, 0]
        for k, lp in enumerate(demo_corpus(x)):
            for bound in (F(1, 1000), F(1, 10), F(1)):
                for seed in range(12):
                    want = perturb_once_fraction(lp, random.Random(seed), bound, clamps)
                    got = oracles.walked_loop(pi1._PerturbTable(lp, bound), random.Random(seed))
                    assert got.path.breakpoints == want, (k, bound, seed)
        assert clamps[0] > 0 and clamps[1] > 0

    def test_one_walk_matches_two_steps(self, x):
        """The one walk gives the parameters, point quads and chart of the
        subdivide-then-slide construction, and leaves the generator in the
        same state, over the demo corpus, random words, constant-padded
        concatenations, and loops whose own breakpoints may slide:
        subdivided copies of word loops and a points loop with breakpoints
        inside two edges of C_2."""
        rng = random.Random(37)
        corpus = demo_corpus(x)
        corpus += [realize_word(random_reduced_word(rng, 8), x) for _ in range(30)]
        const = corpus[0]
        corpus += [concatenate_all([const, lp, const]) for lp in corpus[1:12]]
        corpus += [concatenate(lp, const) for lp in corpus[12:18]]
        for lp in corpus[3:13]:
            params = oracles.params(lp.path)
            corpus.append(oracles.subdivide(lp, [params[1] * F(rng.randint(1, 63), 64), F(rng.randint(1, 63), 64)]))
        corpus.append(mid_edge_loop(x))
        assert sum(len(oracles.slide_candidates(lp)) for lp in corpus) >= 20
        assert_draws_match_oracle(corpus, range(40))


def assert_probe_matches_oracle(corpus, seeds, trials):
    """probe_discreteness_x of each loop of ``corpus``, at magnitudes 1/1000
    and rho/2 (those below the loop's rho) and each seed, reports the
    agreeing trials, the greatest squared perturbation and the witness rows
    of oracles.discreteness_trials, which builds, measures and classifies
    each perturbation as a loop."""
    for k, lp in enumerate(corpus):
        rho = stability_radius(lp)
        for magnitude in (F(1, 1000), rho / 2):
            if magnitude >= rho:
                continue
            for seed in seeds:
                rep = probe_discreteness_x(lp, trials, magnitude, seed)
                agreeing, max_sq, witnesses = oracles.discreteness_trials(lp, trials, magnitude, seed)
                params = dict(rep.parameters)
                where = (k, magnitude, seed)
                assert params["agreeing_trials"] == str(agreeing), where
                assert params["max_perturbation_sq_seen"] == str(max_sq), where
                assert rep.witnesses == tuple(
                    (("trial", str(t)), ("expected", str(want)), ("got", str(got)), ("sup_dist_sq", str(d_sq)))
                    for t, want, got, d_sq in witnesses
                ), where


class TestProbeOracle:
    def test_matches_the_loop_based_trials(self, x):
        """The demo corpus, whose breakpoints never slide, the mid-edge loop,
        whose do, and three subdivided word loops."""
        corpus = demo_corpus(x) + [mid_edge_loop(x)]
        for text in ("g2 g3", "g4^-1 g2", "g3^2 g5"):
            lp = realize_word(parse_word(text), x)
            corpus.append(oracles.subdivide(lp, [oracles.params(lp.path)[1] * F(1, 3), F(5, 8)]))
        assert sum(len(oracles.slide_candidates(lp)) for lp in corpus) >= 4
        assert_probe_matches_oracle(corpus, range(4), 40)


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
                    out = oracles.walked_loop(pi1._PerturbTable(lp, bound), rng)
                    d = sup_distance(out.path, lp.path)
                    assert d.squared < bound * bound

    def test_probe_refuses_a_perturbation_past_the_magnitude(self, x, monkeypatch):
        """A perturbation that moves the apex of C_2 halfway to p is far
        past the magnitude: the probe raises, naming the trial, instead of
        retrying with a smaller bound. The probe reads the tuples of
        ``walk``, so the walk is what is patched."""
        real = pi1._PerturbTable.walk

        def halfway(table, rng):
            real(table, rng)
            loop = table.loop
            qs = list(loop.path._qs)
            qs[1] = oracles.segment_at(Segment(ORIGIN, loop.path.points[1]), F(1, 2))._q
            return loop.path._ts, tuple(qs), loop._chart

        monkeypatch.setattr(pi1._PerturbTable, "walk", halfway)
        with pytest.raises(AssertionError, match="trial 0"):
            probe_discreteness_x(standard_fn(2, x), 5, F(1, 1000), seed=1)


def corner_cut_loop(x):
    """The corner-cutting loop of test_cli: up edge 0 to B_2, there until
    C(2).once reaches D_2, and straight back down. Under pow10 it lies
    1/(2 * 10**39) in squared sup distance from C(2).once and spells 1."""
    return loop_from_breakpoints(
        [(0, 0, 0), ("1/2", "1/2", 1), ("100000000000000000001/200000000000000000000", "1/2", 1), (1, 0, 0)], x
    )


class TestDiscretenessWitness:
    def test_a_drawn_word_change_is_a_witness(self, monkeypatch):
        """A walk that, at trial 1 of 3, draws the corner-cutting loop
        makes the probe FAIL with one witness row for that trial; the other
        two trials agree."""
        x = bouquet_x(20)
        f = standard_fn(2, x)
        g = corner_cut_loop(x)
        real = pi1._PerturbTable.walk
        calls = []

        def corner(table, rng):
            drawn = real(table, rng)
            calls.append(None)
            return (g.path._ts, g.path._qs, g._chart) if len(calls) % 3 == 2 else drawn

        monkeypatch.setattr(pi1._PerturbTable, "walk", corner)
        rep = probe_discreteness_x(f, 3, F(1, 1000), seed=1)
        assert rep.verdict == "FAIL"
        assert dict(rep.parameters)["agreeing_trials"] == "2"
        assert rep.witnesses == (
            (("trial", "1"), ("expected", "g2"), ("got", "1"), ("sup_dist_sq", "1/2000000000000000000000000000000000000000")),
        )
        # the loop-based trials draw through the same walk and agree
        assert_probe_matches_oracle([f], [1], 3)


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
    # pinned as TestRadiusOracle is: derandomize alone draws from the source text
    @seed(7)
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
                oracles.walked_loop(pi1._PerturbTable(lp, F(1, 1000)), rng),
                oracles.walked_loop(pi1._PerturbTable(lp, F(1, 10)), rng),
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
        assert oracles.params(standard_fn(2, third).path) == (0, F(1, 2), F(2, 3), 1)
        for n in range(2, 12):
            w = F(*x.profile.pair(n))
            assert oracles.params(standard_fn(n, x).path)[2] == (1 + w) / 2

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
    # pinned as TestRadiusOracle is: derandomize alone draws from the source text
    @seed(7)
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_equality_ignores_stored_state(self, x, letters, seed):
        rng = random.Random(seed)
        word_loop = realize_word(reduce_letters(letters), x)
        ly = include_in_y(word_loop)
        corpus = demo_corpus(x) + [
            word_loop,
            ly,
            alpha_decorate(ly, rng),
            oracles.walked_loop(pi1._PerturbTable(word_loop, F(1, 1000)), rng),
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
    """Every point the space handles are asked to locate, in order, as its
    quad: ``edges_containing`` takes one, ``membership`` a Point2."""
    seen = []
    for name in ("edges_containing", "membership"):
        def counted(self, q, _orig=getattr(SpaceHandle, name)):
            seen.append(q if type(q) is tuple else q._q)
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
        assert located == list(dict.fromkeys(q for q in lp.path._qs if q != ORIGIN._q))

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
        passed = [q for q in collapsed.path._qs if q != ORIGIN._q]
        assert located == list(dict.fromkeys(passed))
        assert len(located) < len(passed)


@pytest.fixture
def scans(monkeypatch):
    """The breakpoints of every chart the loops module scans for spans."""
    seen = []

    def counted(ts, qs, chart, space, _orig=loops._scan):
        seen.append(qs)
        return _orig(ts, qs, chart, space)

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
        assert classify_y(lx).word == parse_word("g2 g3^-2 g5")
        # the inclusion into Y carries the spans of lx
        assert scans == [lx.path._qs]


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
    # pinned as TestRadiusOracle is: derandomize alone draws from the source text
    @seed(7)
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_readers_match_the_oracle(self, x, y, letters, seed):
        rng = random.Random(seed)
        word_loop = realize_word(reduce_letters(letters), x)
        corpus = demo_corpus(x) + [word_loop]
        corpus += [reverse(word_loop), concatenate(word_loop, reverse(corpus[4]))]
        corpus += [concatenate_all([corpus[3], word_loop, corpus[1]])]
        params = oracles.params(word_loop.path)
        corpus += [oracles.subdivide(word_loop, [F(rng.randint(0, 64), 64), params[rng.randrange(len(params))] / 3])]
        corpus += [
            oracles.walked_loop(pi1._PerturbTable(lp, bound), rng) for lp in corpus[1:6] for bound in (F(1, 1000), F(1))
        ]
        decorated = [alpha_decorate(include_in_y(lp), rng) for lp in (word_loop, corpus[4], corpus[1])]
        corpus += decorated + [collapse_to_x(lp) for lp in decorated]
        corpus += [pi1._sample_small_loop(space, F(1, 4), rng) for space in (x, y)]
        # points loops, located when built: a there-and-back to a point of an
        # edge (the apex at u = 1 on edge 0), and a decorated loop relocated
        n, j = rng.randint(2, 12), rng.choice((0, 2))
        q = oracles.segment_at(y.circle(n).edges[j], F(rng.choice((1, 2, 3)), 3))
        corpus += [loop_from_breakpoints([(0, 0, 0), ("1/2", q.x, q.y), (1, 0, 0)], y)]
        corpus += [Loop(decorated[0].path, y), Loop(corpus[5].path, x)]
        for lp in corpus:
            assert loops._spans(lp) == oracles.spans(lp)
            assert _outcome(lambda: classify_x(lp).word) == _outcome(oracles.classify, lp, SpaceKind.BOUQUET_X)
            assert classify_y(lp).word == oracles.classify(include_in_y(lp), SpaceKind.COMPACT_Y)
            assert choose_n(lp) == oracles.cutoff(lp)
            out, want = collapse_to_x(lp), oracles.collapse_to_x(lp)
            assert (out, out._chart) == (want, want._chart)


def word_loop_family(x, words, rng):
    """Each word realized on the bouquet ``x``, a subdivided copy of it, and
    the perturbations of both drawn at magnitudes 1/1000, 1/10 and 1."""
    out = []
    for w in words:
        lp = realize_word(w, x)
        params = oracles.params(lp.path)
        sub = oracles.subdivide(lp, [params[1] / 2, F(rng.randint(1, 63), 64)])
        out += [lp, sub]
        out += [oracles.walked_loop(pi1._PerturbTable(a, b), rng) for a in (lp, sub) for b in (F(1, 1000), F(1, 10), F(1))]
    return out


def decorations(x, words, rng):
    """The alpha decoration in Y of each word realized on the bouquet ``x``,
    and its collapse back into X."""
    out = []
    for w in words:
        decorated = alpha_decorate(include_in_y(realize_word(w, x)), rng)
        out += [decorated, collapse_to_x(decorated)]
    return out


def assert_crossing_words_match(corpus):
    """The word of each loop of ``corpus`` under classify_y, and under
    classify_x for a loop in X, is oracles.crossing_word's, which reads no
    chart; returns the count of letters read."""
    letters = 0
    for k, lp in enumerate(corpus):
        want = oracles.crossing_word(lp)
        if lp.space.kind is SpaceKind.BOUQUET_X:
            assert classify_x(lp).word == want, k
        assert classify_y(lp).word == want, k
        letters += len(want)
    return letters


class TestCrossingWordOracle:
    def test_matches_the_classifiers(self, x, y):
        """The demo corpus, the mid-edge and corner-cutting loops, 30
        random words under pow10 and 30 under cube with their families and
        decorations, and 40 slsc samples in X and in Y."""
        rng = random.Random(49)
        corpus = demo_corpus(x) + [mid_edge_loop(x), corner_cut_loop(bouquet_x(20))]
        for space in (x, bouquet_x(20, CUBE)):
            words = [random_reduced_word(rng, 8) for _ in range(30)]
            corpus += word_loop_family(space, words, rng) + decorations(space, words, rng)
        corpus += [
            pi1._sample_small_loop(space, radius, rng) for space in (x, y) for radius in (F(1, 4), F(49, 100)) for _ in range(10)
        ]
        assert assert_crossing_words_match(corpus) > 100
