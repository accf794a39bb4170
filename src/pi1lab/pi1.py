"""Loop classification and the topological probes.

Classification in both spaces reads the free-group word off the loop's
excursion spans, one integer scan of its chart (``loops._scan``): an
excursion of winding degree d in circle n contributes g_n^d. The cutoff,
the collapse and the stability radius read the same spans, and none of
them builds an excursion record. In the bouquet X an excursion into the limit
segment is an error; in the compactification Y it contributes nothing,
because the deformation into X contracts it along its arm. That
deformation, ``collapse_to_x``, also contracts every apex-avoiding
excursion into a circle beyond the cutoff index; such excursions have
degree 0, so they spell no letter either. Classification in Y therefore
never builds the collapsed loop; the isomorphism round trip builds it and
checks that it spells the same word. Distinct reduced words name distinct
classes in both spaces, so word equality decides homotopy.

The probes turn the headline facts into exact certificates:

* ``probe_nondiscreteness_y``: the circle loops converge uniformly to the
  alpha loop while their classes stay away from the identity, so the
  identity class of Y has no uniform-metric neighborhood of its own.
* ``probe_discreteness_x``: random on-complex perturbations below an
  explicit stability radius never change a loop's word in X. A trial is
  one perturbation, within the magnitude by construction.
* ``probe_slsc_y``: every sampled loop inside a small ball about p is
  trivial in Y — small loops cannot complete any circle circuit because
  every circuit passes the apex at height 1.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Optional, Sequence

from . import kernels
from .exactnum import dyadic_sqrt_bounds, rational_decimal
from .geometry import (
    ORIGIN,
    _from_quad,
    _path,
    _sup_distance_sq,
    sup_distance,
)
from .loops import (
    Loop,
    _charted,
    _spans,
    concatenate_all,
    include_in_y,
    realize_word,
    standard_f,
    standard_fn,
    validate,
)
from .records import Record
from .report import FAIL, PASS, ProbeParameterError, ProbeReport, exact_str, report_digits
from .spaces import ALPHA, ALPHA_EDGE, SpaceHandle, SpaceKind, default_y
from .words import Word, format_word, reduce_letters


class ClassificationError(Exception):
    pass


class HomotopyClass(Record):
    """A based homotopy class, named by its reduced word and space."""

    __slots__ = _fields = ("word", "space_kind")

    def __init__(self, word: Word, space_kind: SpaceKind):
        self.word = word
        self.space_kind = space_kind

    def __str__(self) -> str:
        return f"{format_word(self.word)} in pi1({self.space_kind})"


def _classify(loop: Loop, kind: SpaceKind) -> HomotopyClass:
    """Word of the loop's circle excursions, as a class of the space ``kind``.

    An excursion of winding degree d in C_n gives the letter g_n^d. An
    excursion into the limit segment has degree 0, so it gives none in Y;
    in X it is an error.
    """
    spans = _spans(loop)
    if kind is SpaceKind.BOUQUET_X:
        for n, a, b, _ in spans:
            if n == ALPHA:
                ts = loop.path._ts
                raise ClassificationError(
                    "loop leaves the bouquet: excursion into the limit segment "
                    f"on [{Fraction(*ts[a])}, {Fraction(*ts[b])}]"
                )
    return HomotopyClass(reduce_letters([(n, d) for n, _, _, d in spans if d]), kind)


def classify_x(loop: Loop) -> HomotopyClass:
    """Word of a loop that stays in the bouquet X."""
    return _classify(loop, SpaceKind.BOUQUET_X)


def choose_n(loop: Loop) -> int:
    """Smallest N >= 2 such that beyond it the loop is collapsible.

    For every n >= N the loop's image misses the apex B_n and every
    excursion into C_n has winding degree 0; finite PL loops touch finitely
    many circles, so N exists. (A nonzero degree forces a full traversal
    through the apex, so the apex condition already implies the degree
    condition; both are checked.) Both are read off the loop's spans.
    """
    return _cutoff(loop, _spans(loop))


def _cutoff(loop: Loop, spans: Sequence[tuple]) -> int:
    """choose_n of a loop from its spans.

    An excursion into C_n meets the apex B_n only at one of its
    breakpoints, so the apex test compares quads. Each of its pieces lies on
    one edge of C_n or is constant at a breakpoint. B_n is an end vertex of
    edges 0 and 1, hence an extreme point of each, and a sub-segment of an
    edge contains an extreme point of the edge only as one of its
    endpoints; B_n does not lie on edge 2, as the triangle is not
    degenerate. So a piece contains B_n only if one of its endpoints is B_n.
    """
    worst = 1
    pts = loop.path.points
    for n, a, b, d in spans:
        if n <= worst:  # ALPHA is 0, below every circle index
            continue
        if d == 0:
            apex = loop.space.circle(n).apex._q
            if all(q._q != apex for q in pts[a + 1 : b]):
                continue
        worst = n
    return max(2, worst + 1)


def collapse_to_x(loop: Loop) -> Loop:
    """End loop of the deformation of a Y loop into X.

    With N = choose_n(loop): alpha excursions contract along their own arm,
    excursions into C_n with n >= N (apex-avoiding, degree 0 by the choice
    of N) contract inside the punctured circle, and excursions into C_n with
    n < N are kept verbatim. The output is a valid loop in X covering the
    same parameter intervals, with collapsed stretches constant at p. Its
    chart is carried: kept pieces keep their circle edges, and each
    collapsed stretch is one constant piece.
    """
    spans = _spans(loop)
    cutoff = _cutoff(loop, spans)
    edges = loop._chart
    ts, pts = loop.path._ts, loop.path.points
    new_ts, new_pts, new_edges = [], [], []
    k = 0  # the first breakpoint of the current kept run
    for n, a, b, _ in spans:
        if n != ALPHA and n < cutoff:
            continue
        # keep breakpoints k..a, then one constant piece at p from a to b
        new_ts += ts[k : a + 1]
        new_pts += pts[k : a + 1]
        new_edges += edges[k:a]
        new_edges.append(None)
        k = b
    new_ts += ts[k:]
    new_pts += pts[k:]
    new_edges += edges[k:]
    x_space = loop.space.sibling(SpaceKind.BOUQUET_X)
    return _charted(_path(tuple(new_ts), tuple(new_pts)), x_space, tuple(new_edges))


def classify_y(loop: Loop) -> HomotopyClass:
    """Word of a loop in the compactification Y, read off its own spans.

    This is the word of ``collapse_to_x(loop)`` in X: the collapse keeps the
    excursions into C_n with n < N verbatim and contracts the rest, and
    ``_cutoff`` puts every excursion of nonzero degree below N, so the
    contracted excursions (alpha arcs and the degree-0 arcs beyond N) spell
    no letter in either loop. Accepts loops carried by X as well (the
    inclusion is a homeomorphism onto its image).
    """
    return _classify(include_in_y(loop), SpaceKind.COMPACT_Y)


def induced_map(c: HomotopyClass) -> HomotopyClass:
    """The inclusion-induced isomorphism on classes: identity on words."""
    if c.space_kind is not SpaceKind.BOUQUET_X:
        raise ClassificationError("induced_map takes classes of the bouquet X")
    return HomotopyClass(c.word, SpaceKind.COMPACT_Y)


def classify(loop: Loop) -> HomotopyClass:
    """Classification in the loop's own space."""
    if loop.space.kind is SpaceKind.BOUQUET_X:
        return classify_x(loop)
    return classify_y(loop)


# -- probes -------------------------------------------------------------------


def probe_nondiscreteness_y(
    n_max: int, epsilon: Fraction, space: Optional[SpaceHandle] = None
) -> ProbeReport:
    """Certificates that the identity class of pi1(Y) is not open.

    For each n the report carries the exact sup distance between the circle
    loop f_n and the alpha loop f together with their words (g_n versus the
    identity). PASS means the distances strictly decrease and end below
    epsilon while every f_n stays in a different class than f: every
    epsilon-ball around f meets another path component.
    """
    if n_max < 2:
        raise ProbeParameterError("n_max must be at least 2")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ProbeParameterError("epsilon must be positive")
    space = space if space is not None else default_y()
    if not space.has_alpha:
        raise ProbeParameterError("nondiscreteness is probed in the compact space Y")
    digits = report_digits()

    def text(v: Fraction) -> str:
        return exact_str(v, f"probe nondiscreteness: n_max={n_max}")

    f = standard_f(space)
    word_f = classify_y(f).word
    rows = []
    witnesses = []
    prev: Optional[Fraction] = None
    last_sq: Optional[Fraction] = None
    words_ok = word_f.is_identity
    decreasing = True
    for n in range(2, n_max + 1):
        fn = standard_fn(n, space)
        d = sup_distance(fn.path, f.path)
        w = classify_y(fn).word
        rows.append((str(n), format_word(w), text(d.squared), d.decimal(digits)))
        if w.is_identity:
            words_ok = False
            witnesses.append((("n", str(n)), ("reason", "circle loop classified as identity")))
        if prev is not None and not d.squared < prev:
            decreasing = False
            witnesses.append(
                (("n", str(n)), ("d_sq", text(d.squared)), ("not_below_previous", text(prev)))
            )
        prev = d.squared
        last_sq = d.squared
    below = last_sq < epsilon * epsilon
    if not below:
        witnesses.append(
            (
                ("n", str(n_max)),
                ("d_sq", text(last_sq)),
                ("epsilon", str(epsilon)),
                ("gap", "final sup distance is not yet below epsilon; enlarge n_max"),
            )
        )
    verdict = PASS if (below and decreasing and words_ok) else FAIL
    return ProbeReport(
        probe="nondiscreteness-Y",
        claim=(
            "the constant class of pi1(Y) is not open: essential circle loops "
            "converge uniformly to the inessential alpha loop"
        ),
        verdict=verdict,
        parameters=(
            ("space", str(space.kind)),
            ("width_profile", space.profile.name),
            ("n_max", str(n_max)),
            ("epsilon", str(epsilon)),
            ("word_of_limit_loop", format_word(word_f)),
        ),
        table_header=("n", "word", "sup_dist_sq", f"sup_dist_dec({digits})"),
        table_rows=tuple(rows),
        witnesses=tuple(witnesses),
    )


def stability_radius(loop: Loop) -> Fraction:
    """Conservative exact radius below which X-perturbations cannot change words.

    rho = (1/8) * min(1/N^2, clearance) where N is the largest circle index
    the loop touches and the clearance is a dyadic lower bound on the least
    distance between p-distal edge halves of distinct touched circles. The
    1/N^2 term reflects the angular separation of the arms at p.

    The clearance is one point-to-edge distance per index-adjacent pair of
    touched circles. Take touched n < m; C_m is certified, so m >= 3, and
    D = D_m = (x_D, y_D) has y_D = 1 - w(m) > 0 and n * x_D < y_D, since
    the cone certificate puts D at a slope above m - 1 >= n. Let
    M_n = B_n/2 = (1/(2n), 1/2) and s(P) = x_P * y_D - y_P * x_D, so that
    |s(P)|/|D| is the distance from P to the line pD.

    1. s is linear, so over the distal polyline M_n, B_n, D_n, D_n/2 of
       C_n its least value is at a vertex, and that is s(M_n):
       s(M_n) = (y_D/n - x_D)/2 > 0, s(B_n) = 2 s(M_n),
       s(D_n) = s(B_n) + w(n) (n y_D + x_D) > s(B_n) and
       s(D_n/2) = s(D_n)/2 > s(M_n). This needs only w(n) > 0, so it holds
       for C_2 too.
    2. On the distal polyline B_m/2, B_m, D_m, D_m/2 of C_m, s <= 0:
       s(D_m) = s(D_m/2) = 0 and s(B_m) = -w(m) (1/m + m) < 0.
    3. So distal points P of C_n and Q of C_m have
       |PQ| |D| >= s(P) - s(Q) >= s(M_n).
    4. The bound is reached: the foot of M_n on the line pD is t D with
       t = (B_n . D) / (2 |D|^2), on the distal half of edge 2 of C_m since
       1/2 <= t <= 1. t >= 1/2 as x_D (1/n - x_D) + y_D w(m) >= 0, because
       the certificate gives x_D < 1/(m - 1) <= 1/n; t <= 1 as x_D < 1/2
       and y_D >= 20/21 for m >= 3. So the nine pairs of distal halves of
       C_n and C_m are at least dist(M_n, edge 2 of C_m) apart, and one
       pair is exactly that far apart.
    5. For touched n < m < l, slope(D_l) > l - 1 >= m > slope(D_m), and
       the distance from M_n to a line through p steeper than p M_n grows
       with its slope. So the pair (n, l) is farther apart than (n, m), and
       the least distance over all touched pairs is that of an
       index-adjacent pair.

    The dyadic floor is monotone, so the least floor over adjacent pairs
    is the floor of the least distance over all pairs, which
    ``tests/oracles.py`` computes as the reference.
    """
    touched = sorted({span[0] for span in _spans(loop)} - {ALPHA})
    n_top = touched[-1] if touched else 2
    best = Fraction(1, n_top * n_top)
    for n, m in zip(touched, touched[1:]):
        num, den = kernels.point_seg_dist_sq((1, 2 * n, 1, 2), *loop.space.circle(m).edges[2].quads())
        lo, _ = dyadic_sqrt_bounds(Fraction(num, den))
        if lo < best:
            best = lo
    return best / 8


def _perturb_once(loop: Loop, rng: random.Random, bound: Fraction) -> Loop:
    """One random valid perturbation, built in one walk and within sup
    distance ``bound`` of the loop by construction.

    It draws 1 to 3 picks (piece i, k) and splits piece i at k/64 of its
    way, keeping its edge; a pick's parameter increases with (i, k), so the
    picks sort and dedupe as plain tuples. Each interior breakpoint whose
    two pieces lie on one edge may slide along it, clamped to the edge, and
    one constant piece at p may bounce into two pieces on an arm at p. The
    loop is charted by construction and every parameter is an int pair.

    The bound: a slide moves its point along its edge by at most bound/2; a
    bounce point lies within bound/2 of p, where the loop is p or the
    midpoint of breakpoints slid onto p. Every point of X but p has x > 0,
    so no two of them are opposite from p, and the two points at one
    parameter differ by strictly less than bound. Between the perturbed
    breakpoints, which include the loop's, the paths' difference is affine.
    """
    grid = 64
    ts0, pts0 = loop.path._ts, loop.path.points
    ts, pts, edges = list(ts0), list(pts0), list(loop._chart)
    draws = range(rng.randint(1, 3))
    picks = {(rng.randrange(len(ts0) - 1), rng.randint(1, grid - 1)) for _ in draws}
    # the last pick first, so each piece keeps its index
    for i, k in sorted(picks, reverse=True):
        (n0, d0), (n1, d1) = ts0[i], ts0[i + 1]
        p0, p1 = pts0[i], pts0[i + 1]
        # t0 + (t1 - t0) * k / grid
        n, d = n0 * d1 * grid + (n1 * d0 - n0 * d1) * k, d0 * d1 * grid
        g = gcd(n, d)
        ts.insert(i + 1, (n // g, d // g))
        pts.insert(i + 1, p0 if p0 == p1 else _from_quad(kernels.lerp(p0._q, p1._q, k, grid)))
        edges.insert(i, edges[i])
    bn, bd = bound.numerator, bound.denominator
    # slide interior breakpoints along their carrying edge
    for i in range(1, len(pts) - 1):
        ref = edges[i - 1]
        if ref is None or ref != edges[i] or rng.random() < 0.5:
            continue
        seg = loop.space.edge_segment(ref)
        _, hi_len = seg.length_bracket
        a, b = seg.a._q, seg.b._q
        un, ud = kernels.foot_param(pts[i]._q, a, b)
        # u + bound * r / (2 * hi_len * grid), clamped to [0, 1]
        dd = bd * 2 * hi_len.numerator * grid
        n = un * dd + bn * hi_len.denominator * rng.randint(-grid, grid) * ud
        d = ud * dd
        if n <= 0:
            n, d = 0, 1
        elif n >= d:
            n, d = 1, 1
        pts[i] = _from_quad(kernels.lerp(a, b, n, d))
    qs = [q._q for q in pts]
    chart = [None if q0 == q1 else ref for q0, q1, ref in zip(qs, qs[1:], edges)]
    # bounce: replace one constant-at-p piece with a tiny degree-0 excursion
    base = ORIGIN._q
    const_p = [i for i, (q0, q1) in enumerate(zip(qs, qs[1:])) if q0 == base == q1]
    if const_p and rng.random() < 0.75:
        i = rng.choice(const_p)
        touched = sorted({ref[0] for ref in edges if ref is not None} - {ALPHA})
        n = rng.choice(touched or [2])
        arm = 0 if rng.random() < 0.5 else 2
        arm_edge = loop.space.circle(n).edges[arm]
        _, hi_len = arm_edge.length_bracket
        # du = bound / (2 * hi_len) * r / grid from the arm's end at p: u2 = du or 1 - du
        dd = bd * 2 * hi_len.numerator * grid
        du = bn * hi_len.denominator * rng.randint(1, grid)
        u2 = (du, dd) if arm == 0 else (dd - du, dd)
        (n0, d0), (n1, d1) = ts[i], ts[i + 1]
        # the midpoint (t0 + t1) / 2
        mn, md = n0 * d1 + n1 * d0, 2 * d0 * d1
        g = gcd(mn, md)
        ts.insert(i + 1, (mn // g, md // g))
        pts.insert(i + 1, _from_quad(kernels.lerp(arm_edge.a.quad(), arm_edge.b.quad(), *u2)))
        chart[i : i + 1] = [(n, arm)] * 2
    return _charted(_path(tuple(ts), tuple(pts)), loop.space, tuple(chart))


def probe_discreteness_x(
    loop: Loop, trials: int, magnitude: Fraction, seed: int = 0
) -> ProbeReport:
    """Word stability of an X loop under random on-complex perturbations.

    Every trial perturbs the loop once without leaving the 1-complex
    (breakpoints slide along their carrying edges; tiny degree-0 bounces may
    sprout at p) and re-classifies it. PASS means the word never changed.
    Magnitudes at or above the stability radius rho are rejected: the claim
    is only certified below it. A perturbation is within the magnitude by
    construction: slides and bounces move points by at most magnitude/2,
    and no two points of X are opposite from p (``_perturb_once``). Each
    trial still checks its squared sup distance against magnitude**2 on
    int pairs, and one past it raises ``AssertionError`` naming the trial.
    """
    if loop.space.kind is not SpaceKind.BOUQUET_X:
        raise ProbeParameterError("discreteness is probed in the bouquet X")
    if trials < 1:
        raise ProbeParameterError("trials must be positive")
    magnitude = Fraction(magnitude)
    if magnitude <= 0:
        raise ProbeParameterError("magnitude must be positive")

    def text(v: Fraction, name: str) -> str:
        return exact_str(v, f"probe discreteness: {name}")

    rho = stability_radius(loop)
    if magnitude >= rho:
        raise ProbeParameterError(
            f"magnitude {magnitude} is not below the stability radius "
            f"{text(rho, 'stability_radius')}; "
            "the word-stability claim is only certified below the radius"
        )
    digits = report_digits()
    base_word = classify_x(loop).word
    rng = random.Random(seed)
    mn, md = magnitude.numerator ** 2, magnitude.denominator ** 2
    max_n, max_d = 0, 1
    witnesses = []
    agree = 0
    for trial in range(trials):
        perturbed = _perturb_once(loop, rng, magnitude)
        n, d, _ = _sup_distance_sq(perturbed.path, loop.path)
        if n * md >= mn * d:
            raise AssertionError(f"trial {trial}: perturbation not within the magnitude")
        if n * max_d > max_n * d:
            max_n, max_d = n, d
        w = classify_x(perturbed).word
        if w == base_word:
            agree += 1
        else:
            witnesses.append(
                (
                    ("trial", str(trial)),
                    ("expected", format_word(base_word)),
                    ("got", format_word(w)),
                    ("sup_dist_sq", text(Fraction(n, d), "sup_dist_sq")),
                )
            )
    verdict = PASS if not witnesses else FAIL
    return ProbeReport(
        probe="discreteness-X",
        claim=(
            "the class of a loop in the bouquet X is stable under every tested "
            "on-complex perturbation below the stability radius"
        ),
        verdict=verdict,
        parameters=(
            ("space", str(loop.space.kind)),
            ("width_profile", loop.space.profile.name),
            ("word", format_word(base_word)),
            ("trials", str(trials)),
            ("magnitude", str(magnitude)),
            ("stability_radius", text(rho, "stability_radius")),
            ("stability_radius_dec", rational_decimal(rho, digits)),
            ("seed", str(seed)),
            ("max_perturbation_sq_seen", text(Fraction(max_n, max_d), "max_perturbation_sq_seen")),
            ("agreeing_trials", str(agree)),
        ),
        witnesses=tuple(witnesses),
    )


def random_reduced_word(
    rng: random.Random, max_len: int = 10, generators: Sequence[int] = tuple(range(2, 10))
) -> Word:
    """Uniform-ish reduced word: a random walk that never undoes its last letter."""
    length = rng.randint(0, max_len)
    letters = []
    prev = None
    for _ in range(length):
        while True:
            n = rng.choice(generators)
            s = rng.choice((1, -1))
            if prev is None or (n, -s) != prev:
                break
        letters.append((n, s))
        prev = (n, s)
    return reduce_letters(letters)


def alpha_decorate(loop: Loop, rng: random.Random) -> Loop:
    """A homotopic variant in Y: splice in alpha excursions and an
    apex-avoiding degree-0 excursion into a circle beyond the loop's cutoff."""
    space = loop.space
    if not space.has_alpha:
        raise ProbeParameterError("decoration lives in the compact space Y")
    f = standard_f(space)
    far = choose_n(loop) + rng.randint(0, 3)
    arm = space.circle(far).edges[0]
    mid = arm.at(Fraction(1, 2))
    bounce = _charted(_path(((0, 1), (1, 2), (1, 1)), (ORIGIN, mid, ORIGIN)), space, ((far, 0),) * 2)
    pattern = rng.choice(
        (
            (f, loop, bounce),
            (bounce, loop, f),
            (f, bounce, loop, f),
            (loop, f, bounce),
        )
    )
    return concatenate_all(list(pattern))


def probe_isomorphism_roundtrip(
    count: int = 100,
    max_len: int = 10,
    seed: int = 0,
    space: Optional[SpaceHandle] = None,
) -> ProbeReport:
    """Round-trip evidence that inclusion induces an isomorphism on classes.

    For random reduced words w: the loop realizing w classifies back to w in
    Y (surjectivity side; classification in Y reads the loop's excursions),
    the inclusion-induced map agrees with direct classification, and
    collapsing an alpha-decorated homotopic variant lands in X with the same
    word (collapse soundness). The collapse is built only here, so its word
    is computed independently of classification in Y. Injectivity is word
    normal-form uniqueness, exercised by the word comparisons.
    """
    if count < 1:
        raise ProbeParameterError("count must be positive")
    y_space = space if space is not None else default_y()
    if not y_space.has_alpha:
        raise ProbeParameterError("the round trip is a statement about Y")
    x_space = y_space.sibling(SpaceKind.BOUQUET_X)
    rng = random.Random(seed)
    witnesses = []
    checked = 0
    for k in range(count):
        w = random_reduced_word(rng, max_len)
        lx = realize_word(w, x_space)
        ly = include_in_y(lx)
        w_y = classify_y(ly).word
        w_ind = induced_map(classify_x(lx)).word
        decorated = alpha_decorate(ly, rng)
        collapsed = collapse_to_x(decorated)
        w_dec = classify_x(collapsed).word
        collapsed_ok = (
            collapsed.space.kind is SpaceKind.BOUQUET_X and validate(collapsed) is None
        )
        checked += 1
        if not (w_y == w and w_ind == w and w_dec == w and collapsed_ok):
            witnesses.append(
                (
                    ("word", format_word(w)),
                    ("classify_Y", format_word(w_y)),
                    ("induced", format_word(w_ind)),
                    ("decorated_collapse", format_word(w_dec)),
                    ("collapsed_valid_in_X", str(collapsed_ok)),
                )
            )
    return ProbeReport(
        probe="isomorphism-roundtrip",
        claim=(
            "inclusion of the bouquet into its compactification induces a word-"
            "preserving bijection on the tested classes, stable under homotopic decoration"
        ),
        verdict=PASS if not witnesses else FAIL,
        parameters=(
            ("space", str(y_space.kind)),
            ("width_profile", y_space.profile.name),
            ("words", str(checked)),
            ("max_len", str(max_len)),
            ("seed", str(seed)),
        ),
        witnesses=tuple(witnesses),
    )


def loop_in_ball(loop: Loop, radius: Fraction) -> bool:
    """Exactly decide whether the loop's image lies in the closed ball at p."""
    r = Fraction(radius)
    rn, rd = r.numerator**2, r.denominator**2
    base = ORIGIN.quad()
    return all(n * rd <= rn * d for n, d in (kernels.point_dist_sq(q.quad(), base) for q in loop.path.points))


def _sample_small_loop(
    space: SpaceHandle, radius: Fraction, rng: random.Random
) -> Loop:
    """A random valid loop inside the ball: wiggles along arms through p.

    Arms are the limit segment and the two p-incident edges of low circles;
    every excursion stays on one arm, hence has degree 0 — completing any
    circuit would require passing the apex at height 1, outside the ball.
    The sample is charted by construction, so no point is located: every
    piece of a group runs between two distinct points of the group's arm
    (alpha, or edge 0 or 2 of a circle).
    """
    grid = 64
    ts, pts = [(0, 1)], [ORIGIN]
    chart = []
    rn, rd = radius.numerator, radius.denominator
    groups = rng.randint(1, 3)
    for g in range(groups):
        kind = rng.choice(["alpha", "arm0", "arm2"])
        if kind == "alpha" and space.has_alpha:
            arm = space.alpha_segment
            direction = arm.b
            ref = ALPHA_EDGE
        else:
            n = rng.randint(2, 9)
            circ = space.circle(n)
            j = 2 if kind == "arm2" else 0
            arm = circ.edges[j]
            direction = circ.apex if j == 0 else circ.tail
            ref = (n, j)
        # |direction| is the length of its arm, the edge from p to it
        _, hi = arm.length_bracket
        wiggles = rng.randint(1, 4)
        # the point at s = radius / hi * r / grid along the direction from p
        sn, sd = rn * hi.denominator, rd * hi.numerator * grid
        heights = [rng.randint(1, grid) for _ in range(wiggles)]
        inner = len(heights)
        for k, r in enumerate(heights):
            q = _from_quad(kernels.lerp(ORIGIN.quad(), direction.quad(), sn * r, sd))
            if pts[-1] == q:
                continue
            # (g + (k + 1) / (inner + 1)) / groups
            tn, td = g * (inner + 1) + k + 1, groups * (inner + 1)
            h = gcd(tn, td)
            ts.append((tn // h, td // h))
            pts.append(q)
            chart.append(ref)
        h = gcd(g + 1, groups)
        ts.append(((g + 1) // h, groups // h))
        pts.append(ORIGIN)
        chart.append(ref)
    return _charted(_path(tuple(ts), tuple(pts)), space, tuple(chart))


def probe_slsc_y(
    radius: Fraction,
    samples: int,
    seed: int = 0,
    space: Optional[SpaceHandle] = None,
    extra_loops: Sequence[Loop] = (),
) -> ProbeReport:
    """Evidence that Y is semilocally simply connected at p.

    Samples valid loops confined to the closed ball of the given radius
    about p and checks that every one classifies to the identity in Y.
    Explicitly submitted loops that leave the ball are rejected (listed,
    not classified). Pair with probe_nondiscreteness_y: together they show
    a space can be semilocally simply connected at the base point while its
    fundamental group still fails to be discrete.
    """
    radius = Fraction(radius)
    if not 0 < radius < Fraction(1, 2):
        raise ProbeParameterError("radius must lie strictly between 0 and 1/2")
    if samples < 1:
        raise ProbeParameterError("samples must be positive")
    space = space if space is not None else default_y()
    if not space.has_alpha:
        raise ProbeParameterError("semilocal simple connectivity is probed in Y")
    rng = random.Random(seed)
    witnesses = []
    rejected = 0
    trivial = 0
    nontrivial = 0
    sampled = (("sample", k, _sample_small_loop(space, radius, rng)) for k in range(samples))
    submitted = (("extra_loop", k, lp) for k, lp in enumerate(extra_loops))
    for label, k, lp in chain(sampled, submitted):
        if not loop_in_ball(lp, radius):
            if label == "sample":
                raise AssertionError("sampler produced an out-of-ball loop")
            rejected += 1
            witnesses.append(
                ((label, str(k)), ("status", "rejected: image leaves the ball; not classified"))
            )
            continue
        w = classify_y(lp).word
        if w.is_identity:
            trivial += 1
        else:
            nontrivial += 1
            witnesses.append(
                ((label, str(k)), ("word", format_word(w)), ("reason", "nontrivial small loop"))
            )
    verdict = PASS if nontrivial == 0 else FAIL
    return ProbeReport(
        probe="slsc-Y",
        claim=(
            "every sampled loop within the ball about the base point is "
            "null-homotopic in Y (no circuit fits: each circle's apex sits at height 1)"
        ),
        verdict=verdict,
        parameters=(
            ("space", str(space.kind)),
            ("width_profile", space.profile.name),
            ("radius", str(radius)),
            ("samples", str(samples)),
            ("seed", str(seed)),
            ("classified", str(trivial + nontrivial)),
            ("trivial", str(trivial)),
            ("rejected_out_of_ball", str(rejected)),
        ),
        witnesses=tuple(witnesses),
        notes=(
            "combine with probe nondiscreteness-Y: Y is semilocally simply connected "
            "at p while pi1(Y) is not discrete",
        ),
    )
