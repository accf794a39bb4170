import collections
import random
from fractions import Fraction

import pytest

import oracles
from oracles import sqrt_leq_sqrt_plus_sqrt, subpath
from pi1lab import kernels, loops, pi1
from pi1lab.geometry import PLPath, point, sup_distance
from pi1lab.loops import (
    InvalidLoopError,
    _first_violation,
    Loop,
    SpaceMismatchError,
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
    _PerturbTable,
    alpha_decorate,
    classify_x,
    classify_y,
    collapse_to_x,
    random_reduced_word,
)
from pi1lab.spaces import (
    CUBE,
    ALPHA,
    ALPHA_EDGE,
    POW10,
    SpaceConsistencyError,
    SpaceKind,
    SpaceError,
    bouquet_x,
    compact_y,
    uniform_profile,
)
from pi1lab.words import Word, parse_word

F = Fraction


def degrees(lp):
    """(component, degree) of each excursion, read off the loop's spans,
    which must be the spans of the oracle's excursion records."""
    spans = loops._spans(lp)
    assert spans == oracles.spans(lp)
    return [(n, d) for n, _, _, d in spans]


@pytest.fixture(scope="module")
def y():
    return compact_y(hint=40)


@pytest.fixture(scope="module")
def x(y):
    return y.sibling(SpaceKind.BOUQUET_X)


class TestValidate:
    """``validate`` accepts the loops every constructor builds; an invalid
    path is refused when the loop is built, with its first violation."""

    def test_standard_f_ok(self, y):
        assert validate(standard_f(y)) is None

    def test_breakpoint_outside(self, y):
        with pytest.raises(InvalidLoopError) as err:
            loop_from_breakpoints([(0, 0, 0), ("1/2", 1, 1), (1, 0, 0)], y)
        assert str(err.value) == "invalid loop: piece 0 on [0, 1/2]: breakpoint (1, 1) is outside the space"

    def test_chord_not_in_space(self, y):
        # both endpoints lie in Y but the straight piece between them does not
        with pytest.raises(InvalidLoopError) as err:
            loop_from_breakpoints([(0, 0, 0), ("1/4", 0, "1/2"), ("1/2", "1/4", "1/2"), (1, 0, 0)], y)
        assert str(err.value) == (
            "invalid loop: piece 1 on [1/4, 1/2]: piece (0, 1/2) -> (1/4, 1/2) "
            "is not contained in a single edge"
        )

    def test_loop_ends_off_p(self, y):
        with pytest.raises(InvalidLoopError) as err:
            loop_from_breakpoints([(0, 0, 0), ("1/2", 0, "1/2"), (1, 0, 1)], y)
        assert str(err.value) == "invalid loop: piece 1 on [1, 1]: loop ends at (0, 1), not at p"

    def test_wrong_basepoint(self, y):
        with pytest.raises(InvalidLoopError) as err:
            Loop(PLPath(((F(0), point(0, "1/2")), (F(1), point(0, "1/2")))), y)
        assert str(err.value) == "invalid loop: piece 0 on [0, 0]: loop starts at (0, 1/2), not at p"

    def test_accepts_all_constructors(self, x, y):
        w = parse_word("g2 g3^-1 g2^2")
        samples = [
            standard_f(y),
            standard_fn(2, x),
            standard_fn(9, y),
            realize_word(w, x),
            concatenate(standard_fn(2, x), standard_fn(3, x)),
            reverse(standard_fn(4, x)),
            constant_loop(x),
            concatenate(standard_f(y), include_in_y(standard_fn(2, x))),
        ]
        for lp in samples:
            assert validate(lp) is None


class TestDecompose:
    def test_constant_empty(self, x):
        assert oracles.excursions(constant_loop(x)) == ()
        assert degrees(constant_loop(x)) == []

    def test_alpha_single_excursion(self, y):
        excs = oracles.excursions(standard_f(y))
        assert len(excs) == 1
        assert excs[0].component == ALPHA
        assert excs[0].t_start == 0 and excs[0].t_end == 1
        assert degrees(standard_f(y)) == [(ALPHA, 0)]

    def test_two_excursions_in_order(self, x):
        lp = concatenate(standard_fn(2, x), standard_fn(3, x))
        excs = oracles.excursions(lp)
        assert [e.component for e in excs] == [2, 3]
        assert excs[0].t_end == F(1, 2) and excs[1].t_start == F(1, 2)
        assert degrees(lp) == [(2, 1), (3, 1)]

    def test_edges_are_int_pairs_and_components_circle_indices(self, y, x):
        """An edge is the int pair (n, j) and alpha's is (0, 0), so tuple
        order lists the edges through a point; an excursion's component is
        its circle's index, so a realized word's are its generator indices."""
        c3 = y.circle(3)
        assert y.edges_containing(c3.apex._q) == ((3, 0), (3, 1))
        assert y.edges_containing(c3.tail._q) == ((3, 1), (3, 2))
        assert y.edges_containing(point(0, 1)._q) == (ALPHA_EDGE,) == ((ALPHA, 0),) == ((0, 0),)
        assert y.edges_containing(point(0, F(1, 3))._q) == ((0, 0),)
        rng = random.Random(46)
        for _ in range(20):
            w = random_reduced_word(rng, 8)
            comps = [n for n, _ in degrees(realize_word(w, x))]
            assert comps == [n for n, _ in oracles.letters(w)]

    def test_chart_across_components_is_refused(self, y):
        """An excursion whose chart names two components is refused by the
        scan, naming them sorted as text."""
        apex = y.circle(2).apex
        path = PLPath(((F(0), point(0, 0)), (F(1, 2), apex), (F(1), point(0, 0))))
        for chart, names in ((((2, 0), (10, 2)), "['C10', 'C2']"), ((ALPHA_EDGE, (3, 0)), "['C3', 'alpha']")):
            with pytest.raises(InvalidLoopError) as err:
                classify_x(loops._charted(path, y, chart))
            assert str(err.value) == f"excursion on [0, 1] spans components {names}"

    def test_components_refused_before_a_bad_lift(self, y):
        """The one-pass scan meets the edge change away from the shared
        vertex first, and still refuses the excursion for naming two
        components, as its whole chart does."""
        c = y.circle(2)
        mid = oracles.segment_at(c.edges[0], F(1, 2))
        path = PLPath(((F(0), point(0, 0)), (F(1, 3), mid), (F(2, 3), c.apex), (F(1), point(0, 0))))
        with pytest.raises(InvalidLoopError) as err:
            classify_x(loops._charted(path, y, ((2, 0), (2, 1), (3, 0))))
        assert str(err.value) == "excursion on [0, 1] spans components ['C2', 'C3']"

    def test_subpath_normalized(self, x):
        lp = concatenate(standard_fn(2, x), standard_fn(3, x))
        for exc in oracles.excursions(lp):
            path = subpath(exc)
            assert path.breakpoints[0][0] == 0
            assert path.breakpoints[-1][0] == 1
            assert path.at(0) == point(0, 0)
            assert path.at(1) == point(0, 0)

    def test_coverage_of_unit_interval(self, x):
        lp = concatenate_all([standard_fn(2, x), constant_loop(x), standard_fn(5, x)])
        excs = oracles.excursions(lp)
        # excursion intervals are disjoint and the complement is constant at p
        spans = [(e.t_start, e.t_end) for e in excs]
        assert all(t0 < t1 for t0, t1 in spans)
        assert all(b0 <= a1 for (_, b0), (a1, _) in zip(spans, spans[1:]))
        for (_, b0), (a1, _) in zip(spans, spans[1:]):
            mid = (b0 + a1) / 2
            assert lp.path.at(mid) == point(0, 0)


class TestWinding:
    def test_positive_once_around(self, x):
        for n in (2, 5, 11):
            assert degrees(standard_fn(n, x)) == [(n, 1)]

    def test_reverse_negates(self, x):
        assert degrees(reverse(standard_fn(3, x))) == [(3, -1)]

    def test_there_and_back_zero(self, x):
        apex = x.circle(4).apex
        lp = loop_from_breakpoints([(0, 0, 0), ("1/2", apex.x, apex.y), (1, 0, 0)], x)
        assert degrees(lp) == [(4, 0)]

    def test_backtracking_traversal_still_one(self, x):
        assert degrees(backtracking_loop(x)) == [(2, 1)]


class TestStandardLoops:
    def test_f_breakpoints(self, y):
        f = standard_f(y)
        assert f.path.breakpoints == (
            (F(0), point(0, 0)),
            (F(1, 2), point(0, 1)),
            (F(1), point(0, 0)),
        )

    def test_fn_shadows_f(self, x):
        f2 = standard_fn(2, x)
        w = F(1, 10**20)
        assert oracles.params(f2.path) == (F(0), F(1, 2), F(1 + w, 2), F(1))
        assert f2.path.at(F(1, 2)) == x.circle(2).apex

    def test_fn_single_positive_excursion(self, x):
        assert degrees(standard_fn(2, x)) == [(2, 1)]

    def test_sup_distance_exact_and_bounded(self, y):
        # exact closed form: max deviation is the cap vertex offset 1/n + n*w,
        # reached while the alpha loop sits at the same height
        f = standard_f(y)
        prev = None
        for n in range(2, 33):
            fn = standard_fn(n, y)
            d = sup_distance(fn.path, f.path)
            w = F(*y.profile.pair(n))
            assert d.squared == (F(1, n) + n * w) ** 2
            assert d.squared <= F(4, n * n)  # the 2/n bound, squared
            if prev is not None:
                assert d.squared < prev
            prev = d.squared

    def test_f2_sampling_oracle(self, y):
        f = standard_f(y)
        f2 = standard_fn(2, y)
        exact = sup_distance(f2.path, f.path).squared
        grid = 10**4
        sampled = max(
            f2.path.at(F(k, grid)).dist_sq(f.path.at(F(k, grid))) for k in range(grid + 1)
        )
        assert sampled <= exact
        assert sqrt_leq_sqrt_plus_sqrt(exact, sampled, F(1, 1000) ** 2)

    def test_fn_index_validation(self, x):
        with pytest.raises(Exception):
            standard_fn(1, x)


class TestCombinators:
    def test_concat_constant_keeps_excursions(self, y):
        f = standard_f(y)
        lp = concatenate(constant_loop(y), f)
        excs = oracles.excursions(lp)
        assert len(excs) == 1 and excs[0].component == ALPHA

    def test_concat_rescales_decompositions(self, x):
        a, b = standard_fn(2, x), reverse(standard_fn(3, x))
        combined = oracles.excursions(concatenate(a, b))
        da, db = oracles.excursions(a), oracles.excursions(b)
        assert len(combined) == len(da) + len(db)
        for exc, orig in zip(combined[: len(da)], da):
            assert exc.t_start == orig.t_start / 2 and exc.t_end == orig.t_end / 2
            assert exc.component == orig.component
        for exc, orig in zip(combined[len(da) :], db):
            assert exc.t_start == F(1, 2) + orig.t_start / 2
            assert exc.component == orig.component
        assert degrees(concatenate(a, b)) == degrees(a) + degrees(b)

    def test_space_mismatch(self, x, y):
        with pytest.raises(SpaceMismatchError):
            concatenate(standard_fn(2, x), standard_f(y))

    def test_reverse_degree(self, x):
        assert degrees(reverse(standard_fn(2, x))) == [(2, -1)]

    def test_concat_params_oracle(self, x):
        """The int-pair halving equals t/2 and 1/2 + t/2 on Fractions."""
        rng = random.Random(46)
        loops = [constant_loop(x), standard_fn(2, x), reverse(standard_fn(5, x))]
        loops += [realize_word(random_reduced_word(rng, 6), x) for _ in range(8)]
        for a in loops:
            for b in loops:
                got = oracles.params(concatenate(a, b).path)
                want = tuple(t / 2 for t in oracles.params(a.path))
                want += tuple(F(1, 2) + t / 2 for t in oracles.params(b.path)[1:])
                assert got == want

    def test_concat_all_is_the_left_fold(self, x, y):
        """One walk over m loops gives the loop of m - 1 pairwise
        concatenations from the left: its parameters by the fold on
        Fractions, its points and its chart. A loop of another space is
        refused wherever it stands."""
        rng = random.Random(47)
        loops = [constant_loop(x), standard_fn(2, x), reverse(standard_fn(5, x))]
        loops += [realize_word(random_reduced_word(rng, 6), x) for _ in range(8)]
        for _ in range(60):
            parts = [rng.choice(loops) for _ in range(rng.randint(1, 5))]
            got = concatenate_all(parts)
            params, want = oracles.params(parts[0].path), parts[0]
            for b in parts[1:]:
                params = tuple(t / 2 for t in params) + tuple(F(1, 2) + t / 2 for t in oracles.params(b.path)[1:])
                want = concatenate(want, b)
            assert oracles.params(got.path) == params
            assert (got, got._chart) == (want, want._chart)
            parts.insert(rng.randint(1, len(parts)), standard_f(y))
            with pytest.raises(SpaceMismatchError):
                concatenate_all(parts)


class TestRealizeWord:
    def test_identity_constant(self, x):
        lp = realize_word(parse_word("1"), x)
        assert oracles.excursions(lp) == ()

    def test_single_generator(self, x):
        assert degrees(realize_word(parse_word("g2"), x)) == [(2, 1)]

    def test_mixed_word(self, x):
        assert degrees(realize_word(parse_word("g2 g3^-1 g2"), x)) == [
            (2, 1),
            (3, -1),
            (2, 1),
        ]

    def test_exponents_expand(self, x):
        assert degrees(realize_word(parse_word("g4^3"), x)) == [(4, 1)] * 3

    def test_params_oracle(self, x):
        """The int-pair placement equals (k + t) / total on Fractions."""
        rng = random.Random(47)
        for _ in range(30):
            w = random_reduced_word(rng, 10)
            letters = oracles.letters(w)
            want = [F(0)]
            for k, (n, sgn) in enumerate(letters):
                part = standard_fn(n, x) if sgn > 0 else reverse(standard_fn(n, x))
                want.extend((k + t) / len(letters) for t in oracles.params(part.path)[1:])
            got = oracles.params(realize_word(w, x).path)
            assert got == (tuple(want) if letters else (F(0), F(1)))


def syllable_words(rng, count, max_letters=12):
    """Reduced words of up to ``max_letters`` letters on g2 ... g9, each
    syllable of exponent +-1 to +-3."""
    for _ in range(count):
        budget = rng.randint(0, max_letters)
        syllables = []
        while budget:
            e = rng.randint(1, min(3, budget))
            budget -= e
            n = rng.choice([m for m in range(2, 10) if not syllables or m != syllables[-1][0]])
            syllables.append((n, rng.choice((e, -e))))
        yield Word(tuple(syllables))


class TestRealizeWordOracle:
    @pytest.mark.parametrize("profile", [POW10, CUBE], ids=["pow10", "cube"])
    def test_matches_standard_parts(self, profile):
        """The letters written from C_n's vertex quads are the standard
        loops and their reverses placed at (k + t)/total: the same path and
        chart."""
        space = bouquet_x(profile=profile)
        for w in syllable_words(random.Random(31), 200):
            got, want = realize_word(w, space), oracles.realize_word(w, space)
            assert (got.path, got._chart) == (want.path, want._chart), w

    def test_refuses_a_tail_below_p(self):
        """Under a width of 1, D_2 is at the height of p: the word loop is
        refused with the text of standard_fn, inverse letters too."""
        space = bouquet_x(profile=uniform_profile(1))
        for text in ("g2", "g2^-2", "g2^-1 g3"):
            with pytest.raises(SpaceError) as got:
                realize_word(parse_word(text), space)
            with pytest.raises(SpaceError) as want:
                oracles.realize_word(parse_word(text), space)
            assert str(got.value) == str(want.value) == (
                "the loop around C2 needs w(2) < 1, which width profile uniform:1 does not give"
            )


class TestReparametrization:
    def test_invariance(self, x):
        lp = realize_word(parse_word("g2 g3^-1"), x)
        warped = oracles.reparametrize(lp, [(0, 0), ("1/3", "2/3"), (1, 1)])
        assert degrees(warped) == degrees(lp) == [(2, 1), (3, -1)]

    def test_same_image(self, x):
        lp = standard_fn(2, x)
        warped = oracles.reparametrize(lp, [(0, 0), ("1/2", "1/4"), (1, 1)])
        assert validate(warped) is None
        assert warped.path.at(F(1, 2)) == lp.path.at(F(1, 4))


def assert_carried(lp):
    """The loop was built with its chart, and the chart is what locating
    its path from scratch gives."""
    assert lp._chart is not None
    assert lp._chart == _first_violation(Loop(lp.path, lp.space))


class TestCarriedCharts:
    @pytest.mark.parametrize(
        "profile,top",
        ((POW10, 40), (CUBE, 40), (uniform_profile(F(1, 1000)), 2)),
        ids=("pow10", "cube", "uniform"),
    )
    def test_charted_by_construction(self, profile, top, monkeypatch):
        """The standard loops and the decoration's bounce are charted as
        fresh location charts them. A uniform width refuses C_3 on."""
        y = compact_y(hint=top, profile=profile)
        x = y.sibling(SpaceKind.BOUQUET_X)
        assert_carried(standard_f(y))
        for n in range(2, top + 1):
            assert_carried(standard_fn(n, x))
            assert_carried(standard_fn(n, y))
        parts = []

        def recording(loops):
            parts.extend(loops)
            return concatenate_all(loops)

        monkeypatch.setattr(pi1, "concatenate_all", recording)
        rng = random.Random(24)
        for _ in range(20):
            try:
                alpha_decorate(constant_loop(y), rng)
            except SpaceConsistencyError:
                assert top == 2
        bounces = [lp for lp in parts if lp.path.breakpoints[1][1].x > 0]
        assert bounces
        for lp in bounces:
            assert_carried(lp)

    def test_realize_word_reverse_include(self, x):
        rng = random.Random(21)
        for _ in range(60):
            w = random_reduced_word(rng, 8)
            lx = realize_word(w, x)
            if len(w):  # the empty word gives the plain constant loop
                assert_carried(lx)
            for lp in (reverse(lx), include_in_y(lx), include_in_y(reverse(lx))):
                assert_carried(lp)

    def test_concatenate(self, x, y):
        rng = random.Random(22)
        for _ in range(40):
            a = realize_word(random_reduced_word(rng, 6), x)
            b = realize_word(random_reduced_word(rng, 6), x)
            assert_carried(concatenate(a, b))
            ya, f = include_in_y(a), standard_f(y)
            assert_carried(concatenate_all([f, ya, reverse(f), include_in_y(b)]))

    def test_subdivide(self, x, y):
        rng = random.Random(23)
        for _ in range(40):
            lp = include_in_y(realize_word(random_reduced_word(rng, 6), x))
            lp = concatenate(standard_f(y), lp) if rng.random() < 0.5 else lp
            params = oracles.params(lp.path)
            extra = []
            for _ in range(rng.randint(1, 6)):
                i = rng.randrange(len(params) - 1)
                extra.append(params[i] + (params[i + 1] - params[i]) * F(rng.randint(1, 63), 64))
            sub = oracles.subdivide(lp, extra)
            assert sub.path.points != lp.path.points
            assert_carried(sub)

    def test_points_on_alpha_refused_in_x_accepted_in_y(self, x, y):
        triples = [(0, 0, 0), ("1/2", 0, "1/2"), (1, 0, 0)]
        with pytest.raises(InvalidLoopError) as err:
            loop_from_breakpoints(triples, x)
        assert str(err.value) == "invalid loop: piece 0 on [0, 1/2]: breakpoint (0, 1/2) is outside the space"
        ly = loop_from_breakpoints(triples, y)
        assert_carried(ly)
        assert [e.component for e in oracles.excursions(ly)] == [ALPHA]


def lifted_degree(exc):
    """Reference degree: the j + u lift of the excursion, with u the exact
    fraction along edge j from kernels.foot_param, divided by 3."""
    circ = exc.space.circle(exc.component)
    theta = start = None
    bks = subpath(exc).breakpoints
    for ((_, p0), (_, p1)), ref in zip(zip(bks, bks[1:]), exc.piece_edges):
        if ref is None:
            continue
        edge = circ.edges[ref[1]]
        u0, u1 = (F(*kernels.foot_param(q._q, edge.a._q, edge.b._q)) for q in (p0, p1))
        if theta is None:
            theta = start = ref[1] + u0
        assert (ref[1] + u0 - theta) % 3 == 0
        theta += u1 - u0
    if theta is None:
        return 0
    assert (theta - start) % 3 == 0
    return int((theta - start) / 3)


def backtracking_loop(x):
    # forward to the apex, back halfway, then on around: still one loop
    c = x.circle(2)
    half_up = oracles.segment_at(c.edges[0], F(1, 2))
    return loop_from_breakpoints(
        [
            (0, 0, 0),
            (F(1, 4), c.apex.x, c.apex.y),
            (F(3, 8), half_up.x, half_up.y),
            (F(1, 2), c.apex.x, c.apex.y),
            (F(3, 4), c.tail.x, c.tail.y),
            (1, 0, 0),
        ],
        x,
    )


class TestWindingOracle:
    """The winding degree of the spans, read off the chart's edge changes,
    equals the j + u lift."""

    def assert_lift_agrees(self, lps):
        pairs = []
        for lp in lps:
            for (n, d), exc in zip(degrees(lp), oracles.excursions(lp)):
                if n != ALPHA:
                    pairs.append((d, lifted_degree(exc)))
        assert pairs
        for got, want in pairs:
            assert got == want

    def test_words_reversed_and_concatenated(self, x):
        rng = random.Random(41)
        loops = []
        for _ in range(30):
            a = realize_word(random_reduced_word(rng, 8), x)
            b = realize_word(random_reduced_word(rng, 8), x)
            loops += [a, reverse(a), concatenate(a, reverse(b)), concatenate_all([b, a, b])]
        self.assert_lift_agrees(loops)

    def test_subdivided(self, x):
        rng = random.Random(42)
        loops = []
        for _ in range(30):
            lp = realize_word(random_reduced_word(rng, 6), x)
            params = oracles.params(lp.path)
            extra = []
            for _ in range(rng.randint(1, 8)):
                i = rng.randrange(len(params) - 1)
                extra.append(params[i] + (params[i + 1] - params[i]) * F(rng.randint(1, 63), 64))
            loops.append(oracles.subdivide(lp, extra))
        self.assert_lift_agrees(loops)

    def test_perturbed(self, x):
        rng = random.Random(43)
        loops = []
        for _ in range(30):
            lp = realize_word(random_reduced_word(rng, 6), x)
            loops.append(oracles.walked_loop(_PerturbTable(lp, F(1, 1000)), rng))
        self.assert_lift_agrees(loops)

    def test_collapsed_decorations(self, x):
        rng = random.Random(44)
        loops = []
        for _ in range(30):
            ly = include_in_y(realize_word(random_reduced_word(rng, 6), x))
            loops.append(collapse_to_x(alpha_decorate(ly, rng)))
        self.assert_lift_agrees(loops)

    def test_hand_built_loops(self, x):
        apex = x.circle(4).apex
        there_and_back = loop_from_breakpoints([(0, 0, 0), ("1/2", apex.x, apex.y), (1, 0, 0)], x)
        self.assert_lift_agrees([backtracking_loop(x), there_and_back, standard_fn(7, x)])

    def hand_built(self, x, points, edges):
        """A ``_charted`` loop on a chart of C_2 that no builder makes."""
        t = [F(k, len(points) - 1) for k in range(len(points))]
        return loops._charted(PLPath(tuple(zip(t, points))), x, tuple((2, j) for j in edges))

    def assert_refused(self, lp, message):
        with pytest.raises(InvalidLoopError) as err:
            classify_x(lp)
        assert str(err.value) == message

    def test_edge_change_away_from_vertex(self, x):
        c = x.circle(2)
        mid = oracles.segment_at(c.edges[0], F(1, 2))
        # the chart claims edge 1 (B -> D) from the middle of edge 0 on
        built = self.hand_built(x, [point(0, 0), mid, c.apex, point(0, 0)], [0, 1, 0])
        self.assert_refused(built, "discontinuous chart sequence in excursion")

    def test_lift_that_does_not_close(self, x):
        c = x.circle(2)
        p = point(0, 0)
        # "edge 1" (B -> D) cannot end at p, nor start there
        for points, edges in (([p, c.apex, p], [0, 1]), ([p, c.tail, p], [1, 2])):
            built = self.hand_built(x, points, edges)
            self.assert_refused(built, "excursion lift does not close up at p")

    def test_classification_makes_no_foot_param_calls(self, x, monkeypatch):
        calls = []
        real = kernels.foot_param

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "foot_param", counted)
        rng = random.Random(45)
        for _ in range(20):
            w = random_reduced_word(rng, 8)
            lx = realize_word(w, x)
            assert classify_x(lx).word == w
            assert classify_y(include_in_y(lx)).word == w
        assert calls == []


# Six points around a circle: p, the middle of edge 0, B, the middle of
# edge 1, D, the middle of edge 2; edge j holds the three of _ON_EDGE[j].
_ON_EDGE = ((0, 1, 2), (2, 3, 4), (4, 5, 0))


def hand_charted_excursion(y, rng):
    """A ``_charted`` loop of one excursion, on the vertices and edge
    midpoints of C_2 or C_3, or on alpha points, that no builder makes.

    A circle excursion walks its six points: each piece runs between two
    points of one edge, or stays, and only the first and last pieces touch
    p. Each piece is charted on its edge, or None where it stays, so the
    excursion may turn back anywhere and has degree -1, 0 or 1. A third of
    the loops then get one piece (the first, the last or any), or every
    piece, recharted on one random edge of either circle or alpha, or None,
    or one point moved to a random point of the pool."""
    p = point(0, 0)
    pool = {ALPHA: [point(0, F(1, 2)), point(0, 1)]}
    for n in (2, 3):
        c = y.circle(n)
        mids = [oracles.segment_at(e, F(1, 2)) for e in c.edges]
        pool[n] = [p, mids[0], c.apex, mids[1], c.tail, mids[2]]
    n = rng.choice((2, 3, ALPHA))
    if n == ALPHA:
        pts = [p] + [rng.choice(pool[ALPHA]) for _ in range(rng.randint(1, 4))] + [p]
        chart = [ALPHA_EDGE] * (len(pts) - 1)
    else:
        walk = [0]
        for _ in range(rng.randint(1, 9)):
            walk.append(rng.choice([b for e in _ON_EDGE if walk[-1] in e for b in e if b]))
        if walk[-1] == 3:
            walk.append(rng.choice((2, 4)))
        walk.append(0)
        pts = [pool[n][i] for i in walk]
        chart = [
            None if a == b else (n, next(j for j, e in enumerate(_ON_EDGE) if a in e and b in e))
            for a, b in zip(walk, walk[1:])
        ]
    if rng.random() < 1 / 3:
        ref = rng.choice([ALPHA_EDGE, None] + [(m, j) for m in (2, 3) for j in range(3)])
        kind = rng.randrange(3)
        if kind == 0:
            chart[rng.choice((0, -1, rng.randrange(len(chart))))] = ref
        elif kind == 1:
            chart = [ref] * len(chart)
        else:
            pts[rng.randrange(1, len(pts) - 1)] = rng.choice(pool[2][1:] + pool[3][1:] + pool[ALPHA])
    t = [F(k, len(pts) - 1) for k in range(len(pts))]
    return loops._charted(PLPath(tuple(zip(t, pts))), y, tuple(chart))


def test_hand_charted_excursions_match_the_oracle(y):
    """The chart scan gives the spans of the oracle's excursion records, or
    the same error type and text, on 2,000 hand-charted excursions: valid
    ones of each degree, one charted on edge 1 alone, which reads degree 0,
    and refused ones for each reason. Loops of one excursion only, as the
    oracle checks the components of every excursion before it lifts any,
    and so refuses for another reason first."""
    rng = random.Random(48)
    seen = collections.Counter()
    for _ in range(2000):
        lp = hand_charted_excursion(y, rng)
        try:
            got = loops._spans(lp)
        except InvalidLoopError as exc:
            got = (type(exc), str(exc))
            seen[str(exc).split(" on ")[0]] += 1
        else:
            edge_1_only = {ref[1] for ref in lp._chart if ref and ref[0] != ALPHA} == {1}
            seen["edge 1 only" if edge_1_only else got[0][3]] += 1
        try:
            want = oracles.spans(lp)
        except InvalidLoopError as exc:
            want = (type(exc), str(exc))
        assert got == want, (lp.path.breakpoints, lp._chart)
    assert seen.keys() == {
        -1,
        0,
        1,
        "edge 1 only",
        "excursion",
        "discontinuous chart sequence in excursion",
        "excursion lift does not close up at p",
    }, seen
