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
* ``probe_discreteness_x``: random on-complex perturbations never change a
  loop's word in X. They are drawn below an explicit stability radius, but
  keep the word at every magnitude at which a draw stays in X.
* ``probe_slsc_y``: every sampled loop inside a small ball about p is
  trivial in Y — small loops cannot complete any circle circuit because
  every circuit passes the apex at height 1.
* ``probe_isomorphism_roundtrip``: random words realized in X keep their
  word when included in Y, and an alpha-decorated variant keeps it through
  the collapse into X, so inclusion induces a word-preserving bijection.

Each probe returns a ``ProbeReport`` whose verdict is read off its
witnesses: it is FAIL exactly when some check left a counter-witness row.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence

from . import kernels
from .exactnum import decimal_text, rational_decimal, rational_text
from .geometry import ORIGIN, _path, _sup_merge, rat, sup_distance
from .loops import (
    Loop,
    LoopError,
    _charted,
    _scan,
    _spans,
    concatenate_all,
    include_in_y,
    realize_word,
    standard_f,
    standard_fn,
    validate,
)
from .records import Record
from .report import ProbeParameterError, ProbeReport, exact_str, report_digits
from .spaces import ALPHA, ALPHA_EDGE, ALPHA_SEGMENT, SpaceHandle, SpaceKind, _edge_quads
from .words import Word, _free_reduce, _word, format_word, reduce_letters


class ClassificationError(LoopError):
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
    """Word of the loop's circle excursions, as a class of the space ``kind``."""
    return HomotopyClass(_word(_loop_syllables(loop, kind)), kind)


def _loop_syllables(loop: Loop, kind: SpaceKind) -> tuple:
    """The syllables of the loop's word in the space ``kind``, read off its
    kept spans."""
    return _syllables(_spans(loop), loop.path._ts, kind)


def _syllables(spans: Sequence[tuple], ts: Sequence[tuple], kind: SpaceKind) -> tuple:
    """The syllables of the reduced word of a loop's spans, read in the
    space ``kind``; ``ts`` are the loop's parameter pairs.

    An excursion of winding degree d in C_n gives the letter g_n^d. An
    excursion into the limit segment has degree 0, so it gives none in Y;
    in X it is an error. Two loops are homotopic exactly when their
    syllables are equal, so the probes compare syllables and build a Word
    only for a report's text.
    """
    if kind is SpaceKind.BOUQUET_X:
        for n, a, b, _ in spans:
            if n == ALPHA:
                raise ClassificationError(
                    "loop leaves the bouquet: excursion into the limit segment "
                    f"on [{rational_text(Fraction(*ts[a]))}, {rational_text(Fraction(*ts[b]))}]"
                )
    return _free_reduce([(n, d) for n, _, _, d in spans if d])


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

    An excursion into C_n meets the apex B_n only at one of its
    breakpoints, so the apex test compares quads. Each of its pieces lies on
    one edge of C_n or is constant at a breakpoint. B_n is an end vertex of
    edges 0 and 1, hence an extreme point of each, and a sub-segment of an
    edge contains an extreme point of the edge only as one of its
    endpoints; B_n does not lie on edge 2, as the triangle is not
    degenerate. So a piece contains B_n only if one of its endpoints is B_n.
    """
    worst = 1
    qs = loop.path._qs
    for n, a, b, d in _spans(loop):
        if n <= worst:  # ALPHA is 0, below every circle index
            continue
        if d == 0:
            if loop.space.circle(n)._apex_q not in qs[a + 1 : b]:
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
    cutoff = choose_n(loop)
    edges = loop._chart
    ts, qs = loop.path._ts, loop.path._qs
    new_ts, new_qs, new_edges = [], [], []
    k = 0  # the first breakpoint of the current kept run
    for n, a, b, _ in _spans(loop):
        if n != ALPHA and n < cutoff:
            continue
        # keep breakpoints k..a, then one constant piece at p from a to b
        new_ts += ts[k : a + 1]
        new_qs += qs[k : a + 1]
        new_edges += edges[k:a]
        new_edges.append(None)
        k = b
    new_ts += ts[k:]
    new_qs += qs[k:]
    new_edges += edges[k:]
    x_space = loop.space.sibling(SpaceKind.BOUQUET_X)
    return _charted(_path(tuple(new_ts), tuple(new_qs)), x_space, tuple(new_edges))


def classify_y(loop: Loop) -> HomotopyClass:
    """Word of a loop in the compactification Y, read off its own spans.

    This is the word of ``collapse_to_x(loop)`` in X: the collapse keeps the
    excursions into C_n with n < N verbatim and contracts the rest, and
    ``choose_n`` puts every excursion of nonzero degree below N, so the
    contracted excursions (alpha arcs and the degree-0 arcs beyond N) spell
    no letter in either loop. Accepts loops carried by X as well (the
    inclusion is a homeomorphism onto its image).
    """
    return _classify(include_in_y(loop), SpaceKind.COMPACT_Y)


def classify(loop: Loop) -> HomotopyClass:
    """Classification in the loop's own space."""
    if loop.space.kind is SpaceKind.BOUQUET_X:
        return classify_x(loop)
    return classify_y(loop)


# -- probes -------------------------------------------------------------------


def probe_nondiscreteness_y(n_max: int, epsilon: Fraction, space: SpaceHandle) -> ProbeReport:
    """Certificates that the identity class of pi1(Y) is not open.

    For each n the report carries the exact sup distance between the circle
    loop f_n and the alpha loop f together with their words (g_n versus the
    identity). PASS means f is trivial, and the distances strictly decrease
    and end below epsilon while every f_n stays in a different class than
    f: every epsilon-ball around f meets another path component. Each
    failed check is a witness row, a nontrivial f included.
    """
    if n_max < 2:
        raise ProbeParameterError("n_max must be at least 2")
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise ProbeParameterError("epsilon must be positive")
    if not space.has_alpha:
        raise ProbeParameterError("nondiscreteness is probed in the compact space Y")
    digits = report_digits()

    def text(v: Fraction) -> str:
        return exact_str(v, f"probe nondiscreteness: n_max={n_max}")

    f = standard_f(space)
    word_f = classify_y(f).word
    rows = []
    witnesses = []
    if not word_f.is_identity:
        witnesses.append(
            (("loop", "f"), ("word", format_word(word_f)), ("reason", "limit loop not classified as identity"))
        )
    prev: Optional[Fraction] = None
    for n in range(2, n_max + 1):
        fn = standard_fn(n, space)
        d = sup_distance(fn.path, f.path)
        w = classify_y(fn).word
        rows.append((str(n), format_word(w), text(d.squared), d.decimal(digits)))
        if w.is_identity:
            witnesses.append((("n", str(n)), ("reason", "circle loop classified as identity")))
        if prev is not None and not d.squared < prev:
            witnesses.append(
                (("n", str(n)), ("d_sq", text(d.squared)), ("not_below_previous", text(prev)))
            )
        prev = d.squared
    if not prev < epsilon * epsilon:
        witnesses.append(
            (
                ("n", str(n_max)),
                ("d_sq", text(prev)),
                ("epsilon", rational_text(epsilon)),
                ("gap", "final sup distance is not yet below epsilon; enlarge n_max"),
            )
        )
    return ProbeReport(
        probe="nondiscreteness-Y",
        claim=(
            "the constant class of pi1(Y) is not open: essential circle loops "
            "converge uniformly to the inessential alpha loop"
        ),
        parameters=(
            ("space", str(space.kind)),
            ("width_profile", space.profile.name),
            ("n_max", str(n_max)),
            ("epsilon", rational_text(epsilon)),
            ("word_of_limit_loop", format_word(word_f)),
        ),
        table_header=("n", "word", "sup_dist_sq", f"sup_dist_dec({digits})"),
        table_rows=tuple(rows),
        witnesses=tuple(witnesses),
    )


def stability_radius(loop: Loop) -> Fraction:
    """The exact radius below which ``probe_discreteness_x`` draws; it
    bounds no loop's distance to another class.

    The family that ``_PerturbTable.walk`` draws keeps the word at every
    magnitude at which a draw stays in X, below rho or not. Nor is rho a
    radius for every X-loop: a loop that skips the short edge B_n D_n of a
    sliver can spell another word far inside it. Under pow10, one that
    goes up edge 0 of C_2 to B_2 and straight back down lies about 2.2e-20
    in sup distance from ``C(2).once``, against rho = 1/32, and spells 1.

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

    By step 4 that distance is the perpendicular one, s(M_n)/|D|, and it is
    read off the width pair (wn, wd) of w(m) in closed form: m*wd*D is
    (X, Y) = (wd + m**2*wn, m*(wd - wn)), so the squared distance is
    (Y - n*X)**2 / (4 n**2 (X**2 + Y**2)). Its dyadic floor at 2**-40 is
    the isqrt of the floor of that quotient times 2**80 (the floor of
    ``dyadic_sqrt_bounds``), taken on ints. C_m is still read through the
    handle, as its certificate is the premise of steps 1 to 5; and a
    distance to the line pD never exceeds the distance to the edge, so a
    foot off the edge could only shrink rho.

    The dyadic floor is monotone, so the least floor over adjacent pairs
    is the floor of the least distance over all pairs, which
    ``tests/oracles.py`` computes as the reference.
    """
    touched = sorted({span[0] for span in _spans(loop)} - {ALPHA})
    n_top = touched[-1] if touched else 2
    space = loop.space
    floors = []  # floor(distance * 2**40) per adjacent pair
    for n, m in zip(touched, touched[1:]):
        space.circle(m)  # its certificate is the premise of the closed form
        wn, wd = space.profile.pair(m)
        x, y = wd + m * m * wn, m * (wd - wn)
        floors.append(isqrt(((y - n * x) ** 2 << 80) // (4 * n * n * (x * x + y * y))))
    # with no pair, a clearance of 1 leaves 1/N^2
    return min(Fraction(1, n_top * n_top), Fraction(min(floors, default=1 << 40), 1 << 40)) / 8


_GRID = 64


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` bit for bit, as CPython 3.8 to 3.13 draws it;
    Python keeps only ``random()``'s sequence across versions. An n below 1
    is refused before any draw: getrandbits(0) is 0, never below n."""
    if n < 1:
        raise ValueError(f"empty range for _below({n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class _PerturbTable:
    """What every perturbation of one loop at one bound reads, built once
    per probe; ``walk`` draws one perturbation from it in one walk, on the
    loop's parameter pairs and kernel quads, and wraps no point.

    The family drawn: breakpoints whose two pieces lie on one edge slide
    along that edge, clamped to it, and one constant piece at p may become
    a degree-0 bounce into an arm at p. A breakpoint where the loop passes
    from one edge to another never moves, so the vertices B_n and D_n at
    which a traversal turns stay fixed; only a vertex at which the loop
    turns back along the same edge may slide. No other loop within the
    bound is drawn. The family keeps the word at every magnitude at which a
    draw stays in X: each slide is a homotopy within its edge, and each
    bounce goes out and back on one arm.

    ``pieces`` has, for each piece on an edge, the edge's quads ``a`` and
    ``b``, the edge parameters of the piece's two ends (one ``foot_param``
    each) and the slide scale: a slid point moves by bound * r /
    (2 * hi * grid) in edge parameter for a draw r in [-grid, grid], hi
    being the circle's ``length_hi`` of the edge, so ``scale`` is
    bound.numerator * hi.denominator and ``den`` is bound.denominator * 2 *
    hi.numerator * grid. A constant piece has None. ``slides[i]`` says
    whether the two pieces at breakpoint i lie on one edge. ``arms`` has,
    for each touched circle in index order (C_2 when none is touched), its
    edges 0 and 2 as (ref, p, far end, scale, den): a bounce point lies at
    scale * r / den of the way from p, for a draw r in [1, grid].
    """

    __slots__ = ("loop", "pieces", "slides", "arms")

    def __init__(self, loop: Loop, bound: Fraction):
        bn, bd = bound.numerator, bound.denominator
        space, qs, chart = loop.space, loop.path._qs, loop._chart

        def scaled(n, j):
            circ = space.circle(n)
            hi = circ.length_hi(j)
            return _edge_quads(circ)[j], bn * hi.denominator, bd * 2 * hi.numerator * _GRID

        pieces = []
        for i, ref in enumerate(chart):
            if ref is None:
                pieces.append(None)
                continue
            (a, b), scale, den = scaled(*ref)
            u0, u1 = kernels.foot_param(qs[i], a, b), kernels.foot_param(qs[i + 1], a, b)
            pieces.append((a, b, u0, u1, scale, den))
        touched = sorted({ref[0] for ref in chart if ref is not None} - {ALPHA})
        arms = []
        for n in touched or [2]:
            (p0, b0), s0, d0 = scaled(n, 0)
            (a2, p2), s2, d2 = scaled(n, 2)
            # edge 0 runs from p, edge 2 to p
            arms.append((((n, 0), p0, b0, s0, d0), ((n, 2), p2, a2, s2, d2)))
        self.loop = loop
        self.pieces = tuple(pieces)
        self.slides = (False,) + tuple(r is not None and r == s for r, s in zip(chart, chart[1:])) + (False,)
        self.arms = tuple(arms)

    def walk(self, rng: random.Random) -> tuple:
        """One perturbation of the loop, within sup distance ``bound`` of it
        for the bound the table was built at, as its parameter pairs, point
        quads and chart ``(ts, qs, chart)``, three tuples; no path and no
        loop is built.

        It draws 1 to 3 picks (piece i, k) and splits piece i at k/grid of
        its way, keeping its edge; a pick's parameter increases with (i, k),
        so the picks sort and dedupe as plain tuples. Each interior
        breakpoint whose two pieces lie on one edge may slide along it,
        clamped to the edge: a pick, or a breakpoint of the loop in
        ``slides``. Its edge parameter comes from its piece's ends. Then
        one constant piece at p may bounce into two pieces on an arm at p.
        The draws are taken in this order, breakpoint by breakpoint, and
        the chart and the constant pieces at p are read in the same walk.

        The bound: a slide moves its point along its edge by at most
        bound/2; a bounce point lies within bound/2 of p, where the loop is
        p or the midpoint of breakpoints slid onto p. Every point of X but
        p has x > 0, so no two of them are opposite from p, and the two
        points at one parameter differ by strictly less than bound. Between
        the perturbed breakpoints, which include the loop's, the paths'
        difference is affine.
        """
        grid = _GRID
        loop = self.loop
        ts0, qs0, chart0 = loop.path._ts, loop.path._qs, loop._chart
        draws = range(1 + _below(rng, 3))
        picks = sorted({(_below(rng, len(ts0) - 1), 1 + _below(rng, grid - 1)) for _ in draws})
        picks.append((len(ts0), 0))  # a sentinel past the last piece
        slides = self.slides
        base = ORIGIN._q
        ts, qs, chart, const_p = [ts0[0]], [qs0[0]], [], []
        q0 = base
        j = 0
        for i, piece in enumerate(self.pieces):
            ref = chart0[i]
            (n0, d0), (n1, d1) = ts0[i], ts0[i + 1]
            p0, p1 = qs0[i], qs0[i + 1]
            end = False
            while not end:
                if picks[j][0] == i:
                    k = picks[j][1]
                    j += 1
                    # t0 + (t1 - t0) * k / grid
                    n, d = n0 * d1 * grid + (n1 * d0 - n0 * d1) * k, d0 * d1 * grid
                    g = gcd(n, d)
                    t = (n // g, d // g)
                    if piece is not None and rng.random() >= 0.5:
                        a, b, (un0, ud0), (un1, ud1), scale, den = piece
                        # u0 + (u1 - u0) * k / grid
                        un, ud = un0 * ud1 * grid + (un1 * ud0 - un0 * ud1) * k, ud0 * ud1 * grid
                        q1 = _slide(a, b, un, ud, scale, den, rng)
                    else:
                        q1 = p0 if p0 == p1 else kernels.lerp(p0, p1, k, grid)
                else:
                    end = True
                    t = ts0[i + 1]
                    if slides[i + 1] and rng.random() >= 0.5:
                        a, b, _, (un, ud), scale, den = piece
                        q1 = _slide(a, b, un, ud, scale, den, rng)
                    else:
                        q1 = p1
                if q1 != q0:
                    chart.append(ref)
                else:
                    if q0 == base:
                        const_p.append(len(chart))
                    chart.append(None)
                ts.append(t)
                qs.append(q1)
                q0 = q1
        # bounce: replace one constant-at-p piece with a tiny degree-0 excursion
        if const_p and rng.random() < 0.75:
            i = const_p[_below(rng, len(const_p))]
            arm0, arm2 = self.arms[_below(rng, len(self.arms))]
            ref, a, b, scale, den = arm0 if rng.random() < 0.5 else arm2
            q = kernels.lerp(a, b, scale * (1 + _below(rng, grid)), den)
            (n0, d0), (n1, d1) = ts[i], ts[i + 1]
            # the midpoint (t0 + t1) / 2
            mn, md = n0 * d1 + n1 * d0, 2 * d0 * d1
            g = gcd(mn, md)
            ts.insert(i + 1, (mn // g, md // g))
            qs.insert(i + 1, q)
            chart[i : i + 1] = (ref, ref)
        return tuple(ts), tuple(qs), tuple(chart)


def _slide(a, b, un, ud, scale, den, rng: random.Random) -> tuple:
    """The quad of the point at edge parameter un/ud + scale * r / den on the
    edge from quad a to quad b, for a draw r in [-grid, grid], clamped to
    the edge."""
    d = ud * den
    n = un * den + scale * (_below(rng, 2 * _GRID + 1) - _GRID) * ud
    if n <= 0:
        n, d = 0, 1
    elif n >= d:
        n, d = 1, 1
    return kernels.lerp(a, b, n, d)


def probe_discreteness_x(
    loop: Loop, trials: int, magnitude: Fraction, seed: int = 0
) -> ProbeReport:
    """Word stability of an X loop under random on-complex perturbations.

    Every trial perturbs the loop once without leaving the 1-complex and
    re-classifies it. PASS means the word never changed. The trials draw
    from one ``_PerturbTable`` of the loop, and each checks and classifies
    the drawn tuples of ``walk``: the sup merge reads the parameter pairs
    and quads, ``_scan`` reads them with the chart, and the word's
    syllables are compared with the loop's. A trial builds no path, loop,
    word or class; a Word is built only for a witness row.
    The drawn family keeps the word at every magnitude at which a draw
    stays in X (``_PerturbTable``), so a PASS shows that classification is
    invariant under its homotopies. The stability radius rho bounds no
    loop's distance to another class (``stability_radius``); magnitudes at
    or above it are refused, as the claim is stated below it. A
    perturbation is within the magnitude by construction (``walk``). Each
    trial still checks its squared sup distance against magnitude**2 on
    int pairs, and one past it raises ``AssertionError`` naming the trial.
    """
    if loop.space.kind is not SpaceKind.BOUQUET_X:
        raise ProbeParameterError("discreteness is probed in the bouquet X")
    if trials < 1:
        raise ProbeParameterError("trials must be positive")
    magnitude = rat(magnitude)
    if magnitude <= 0:
        raise ProbeParameterError("magnitude must be positive")

    def text(v: Fraction, name: str) -> str:
        return exact_str(v, f"probe discreteness: {name}")

    rho = stability_radius(loop)
    if magnitude >= rho:
        raise ProbeParameterError(
            f"magnitude {rational_text(magnitude)} is not below the stability radius "
            f"{text(rho, 'stability_radius')}; "
            "the word-stability claim is only certified below the radius"
        )
    digits = report_digits()
    base_word = classify_x(loop).word
    rng = random.Random(seed)
    table = _PerturbTable(loop, magnitude)
    mn, md = magnitude.numerator ** 2, magnitude.denominator ** 2
    max_n, max_d = 0, 1
    witnesses = []
    space, ts0, qs0 = loop.space, loop.path._ts, loop.path._qs
    for trial in range(trials):
        ts, qs, chart = table.walk(rng)
        n, d = _sup_merge(ts, qs, ts0, qs0)
        if n * md >= mn * d:
            raise AssertionError(f"trial {trial}: perturbation not within the magnitude")
        if n * max_d > max_n * d:
            max_n, max_d = n, d
        syllables = _syllables(_scan(ts, qs, chart, space), ts, SpaceKind.BOUQUET_X)
        if syllables != base_word.syllables:
            witnesses.append(
                (
                    ("trial", str(trial)),
                    ("expected", format_word(base_word)),
                    ("got", format_word(_word(syllables))),
                    ("sup_dist_sq", text(Fraction(n, d), "sup_dist_sq")),
                )
            )
    return ProbeReport(
        probe="discreteness-X",
        claim=(
            "the class of a loop in the bouquet X is stable under every tested "
            "on-complex perturbation below the stability radius"
        ),
        parameters=(
            ("space", str(loop.space.kind)),
            ("width_profile", loop.space.profile.name),
            ("word", format_word(base_word)),
            ("trials", str(trials)),
            ("magnitude", rational_text(magnitude)),
            ("stability_radius", text(rho, "stability_radius")),
            ("stability_radius_dec", rational_decimal(rho, digits)),
            ("seed", decimal_text(seed)),
            ("max_perturbation_sq_seen", text(Fraction(max_n, max_d), "max_perturbation_sq_seen")),
            ("agreeing_trials", str(trials - len(witnesses))),
        ),
        witnesses=tuple(witnesses),
    )


def random_reduced_word(rng: random.Random, max_len: int) -> Word:
    """Uniform-ish reduced word in g2 ... g9: a random walk that never undoes
    its last letter."""
    length = _below(rng, max_len + 1)
    letters = []
    prev = None
    for _ in range(length):
        while True:
            n = 2 + _below(rng, 8)
            s = (1, -1)[_below(rng, 2)]
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
    far = choose_n(loop) + _below(rng, 4)
    base = ORIGIN._q
    mid = kernels.lerp(base, space.circle(far)._apex_q, 1, 2)
    bounce = _charted(_path(((0, 1), (1, 2), (1, 1)), (base, mid, base)), space, ((far, 0),) * 2)
    pattern = (
        (f, loop, bounce),
        (bounce, loop, f),
        (f, bounce, loop, f),
        (loop, f, bounce),
    )[_below(rng, 4)]
    return concatenate_all(list(pattern))


def probe_isomorphism_roundtrip(count: int, max_len: int, seed: int, space: SpaceHandle) -> ProbeReport:
    """Round-trip evidence that inclusion induces an isomorphism on classes.

    For random reduced words w: the loop realizing w in X, carried into Y
    by the inclusion, classifies back to w in Y (the induced map, read once;
    classification in Y reads the loop's excursions), and collapsing an
    alpha-decorated homotopic variant lands in X, passes ``validate`` and
    spells the same word (collapse soundness). The collapse is built only
    here, so its word is computed independently of classification in Y.
    Each of the three checks is one column of a witness row. Injectivity is
    word normal-form uniqueness, exercised by the word comparisons, which
    compare syllables read off each loop's spans: no class is built, and a
    Word only for a witness row.
    """
    if count < 1:
        raise ProbeParameterError("count must be positive")
    if max_len < 0:
        raise ProbeParameterError("max_len must not be negative")
    if not space.has_alpha:
        raise ProbeParameterError("the round trip is a statement about Y")
    x_space = space.sibling(SpaceKind.BOUQUET_X)
    rng = random.Random(seed)
    witnesses = []
    for k in range(count):
        w = random_reduced_word(rng, max_len)
        # the induced map: the word of the realized loop, read in Y
        ly = include_in_y(realize_word(w, x_space))
        s_y = _loop_syllables(ly, SpaceKind.COMPACT_Y)
        decorated = alpha_decorate(ly, rng)
        collapsed = collapse_to_x(decorated)
        s_dec = _loop_syllables(collapsed, SpaceKind.BOUQUET_X)
        collapsed_ok = (
            collapsed.space.kind is SpaceKind.BOUQUET_X and validate(collapsed) is None
        )
        if not (s_y == s_dec == w.syllables and collapsed_ok):
            witnesses.append(
                (
                    ("word", format_word(w)),
                    ("classify_Y", format_word(_word(s_y))),
                    ("decorated_collapse", format_word(_word(s_dec))),
                    ("collapsed_valid_in_X", str(collapsed_ok)),
                )
            )
    return ProbeReport(
        probe="isomorphism-roundtrip",
        claim=(
            "inclusion of the bouquet into its compactification induces a word-"
            "preserving bijection on the tested classes, stable under homotopic decoration"
        ),
        parameters=(
            ("space", str(space.kind)),
            ("width_profile", space.profile.name),
            ("words", str(count)),
            ("max_len", str(max_len)),
            ("seed", decimal_text(seed)),
        ),
        witnesses=tuple(witnesses),
    )


def loop_in_ball(loop: Loop, radius: Fraction) -> bool:
    """Exactly decide whether the loop's image lies in the closed ball at p.

    A ball of negative radius is empty, and a loop's image is not."""
    r = rat(radius)
    if r < 0:
        return False
    rn, rd = r.numerator**2, r.denominator**2
    base = ORIGIN._q
    return all(n * rd <= rn * d for n, d in (kernels.point_dist_sq(q, base) for q in loop.path._qs))


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
    grid = _GRID
    base = ORIGIN._q
    ts, qs = [(0, 1)], [base]
    chart = []
    rn, rd = radius.numerator, radius.denominator
    groups = 1 + _below(rng, 3)
    for g in range(groups):
        kind = ("alpha", "arm0", "arm2")[_below(rng, 3)]
        # |direction| is the length of its arm, the edge from p to it:
        # exactly 1 for alpha, bracketed above by hi for a circle's edge
        if kind == "alpha" and space.has_alpha:
            direction = ALPHA_SEGMENT.b._q
            ref = ALPHA_EDGE
            hi = 1
        else:
            n = 2 + _below(rng, 8)
            circ = space.circle(n)
            j = 2 if kind == "arm2" else 0
            direction = circ._apex_q if j == 0 else circ._tail_q
            ref = (n, j)
            hi = circ.length_hi(j)
        wiggles = 1 + _below(rng, 4)
        # the point at s = radius / hi * r / grid along the direction from p
        sn, sd = rn * hi.denominator, rd * hi.numerator * grid
        heights = [1 + _below(rng, grid) for _ in range(wiggles)]
        inner = len(heights)
        for k, r in enumerate(heights):
            q = kernels.lerp(base, direction, sn * r, sd)
            if qs[-1] == q:
                continue
            # (g + (k + 1) / (inner + 1)) / groups
            tn, td = g * (inner + 1) + k + 1, groups * (inner + 1)
            h = gcd(tn, td)
            ts.append((tn // h, td // h))
            qs.append(q)
            chart.append(ref)
        h = gcd(g + 1, groups)
        ts.append(((g + 1) // h, groups // h))
        qs.append(base)
        chart.append(ref)
    return _charted(_path(tuple(ts), tuple(qs)), space, tuple(chart))


def probe_slsc_y(radius: Fraction, samples: int, seed: int, space: SpaceHandle) -> ProbeReport:
    """Evidence that Y is semilocally simply connected at p.

    Samples valid loops confined to the closed ball of the given radius
    about p and checks that every one classifies to the identity in Y.
    Pair with probe_nondiscreteness_y: together they show a space can be
    semilocally simply connected at the base point while its fundamental
    group still fails to be discrete.

    The claim holds for every loop in the ball, not only the sampled ones.
    The word of a loop in Y is read off its excursions of nonzero winding
    degree; alpha excursions and degree-0 ones spell no letter. An
    excursion into C_n of nonzero degree passes the apex B_n: C_n minus
    B_n is an arc, and a loop in an arc has degree 0. B_n = (1/n, 1) has
    |B_n| > 1, and every admitted radius is below 1/2, so B_n lies outside
    every admitted ball. So a loop in the ball has no excursion of nonzero
    degree, and its word is the identity.
    """
    radius = rat(radius)
    if not 0 < radius < Fraction(1, 2):
        raise ProbeParameterError("radius must lie strictly between 0 and 1/2")
    if samples < 1:
        raise ProbeParameterError("samples must be positive")
    if not space.has_alpha:
        raise ProbeParameterError("semilocal simple connectivity is probed in Y")
    rng = random.Random(seed)
    witnesses = []
    for k in range(samples):
        lp = _sample_small_loop(space, radius, rng)
        if not loop_in_ball(lp, radius):
            raise AssertionError("sampler produced an out-of-ball loop")
        syllables = _loop_syllables(lp, SpaceKind.COMPACT_Y)
        if syllables:
            witnesses.append(
                (("sample", str(k)), ("word", format_word(_word(syllables))), ("reason", "nontrivial small loop"))
            )
    return ProbeReport(
        probe="slsc-Y",
        claim=(
            "every sampled loop within the ball about the base point is "
            "null-homotopic in Y (no circuit fits: each circle's apex sits at height 1)"
        ),
        parameters=(
            ("space", str(space.kind)),
            ("width_profile", space.profile.name),
            ("radius", rational_text(radius)),
            ("samples", str(samples)),
            ("seed", decimal_text(seed)),
            ("classified", str(samples)),
            ("trivial", str(samples - len(witnesses))),
            # a sample outside the ball raises above, so none is rejected
            ("rejected_out_of_ball", "0"),
        ),
        witnesses=tuple(witnesses),
        notes=(
            "combine with probe nondiscreteness-Y: Y is semilocally simply connected "
            "at p while pi1(Y) is not discrete",
        ),
    )
