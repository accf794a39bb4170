"""Based PL loops in the bouquet X or its compactification Y.

A loop is a PLPath based at p = (0,0) whose every linear piece lies inside
a single edge of the carrying space; this is checked exactly. Because every
edge of the construction has p as an extreme point, a valid loop meets p
only at breakpoints, so the decomposition into maximal excursions away from
p is a pure breakpoint scan. Winding degrees are read off the chart: edges
0 and 2 of a circle form a tree through p, so an excursion's degree is its
signed count of traversals of edge 1 (B -> D), and the edge changes only at
a vertex, so that count is the chart's edge changes 1 -> 2 minus its
changes 2 -> 1, never a numeric arc length.

A loop is charted when built, or refused. Its chart is the edge each
piece lies on (None for a constant piece). A loop of foreign geometry
(``Loop(path, space)``, hence ``points`` literals and
``loop_from_breakpoints``) is located once, breakpoint by breakpoint, when
it is built; an invalid path raises ``InvalidLoopError`` with its first
violation, so no invalid loop exists. The standard loops (``standard_f``,
``standard_fn``), the constant loop, ``realize_word`` and the samples of
the slsc probe are charted by construction: their pieces are put on known
edges, and ``pi1._PerturbTable.walk`` writes the chart of each
discreteness perturbation as it draws it. Operations that
rebuild a loop on points already charted carry the chart: concatenation,
reversal, the inclusion X -> Y and the collapse into X.
``validate`` always locates afresh, which makes it an independent check of
a carried chart.

Excursions are read by one integer scan of the chart, ``_scan``: each
maximal excursion is a span ``(component, first, last, degree)`` between
the breakpoints ``first`` and ``last`` at p. A loop's spans are computed
once and kept in its ``_spans`` slot, and the readers in ``pi1`` read
them; no excursion record is built. The inclusion X -> Y carries them
with the chart.

Paths keep their parameters as reduced int pairs and their points as
kernel quads, and the builders here emit both, with no Fraction and no
``Point2``: concatenation maps n/d to n/(2^s d) or (n + d)/(2^s d) and
reduces by the power of two that the numerator and 2^s share; reversal
maps n/d to (d - n)/d; ``realize_word`` places it at (k*d + n)/(total*d),
reduced by gcd(k*d + n, total). Locating, scanning and every builder
compare and copy quads. Fractions are built only for text, such as a
Violation or an excursion error.

A ``Loop`` is a plain record with ``__slots__``: its fields are set once
in the constructor, the spans are assigned to their own slot in place, and
equality and hashing read only the constructor's fields (a loop's chart is
fixed by its path and space). A chart's edges are the int pairs of
``spaces``, (n, j) for edge j of C_n or ``ALPHA_EDGE``, so an excursion's
component is the first entry of its edges, the circle index n or
``ALPHA``, and the least edge through a point is the least pair. Each edge
change of an excursion compares its point with the vertex the two edges
share, read from a small table, by quads.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Tuple

from .exactnum import rational_text
from .geometry import ORIGIN, PLPath, _path, _quad_str, pl_path
from .records import Record
from .spaces import (
    ALPHA,
    ALPHA_EDGE,
    ALPHA_SEGMENT,
    EdgeRef,
    SpaceError,
    SpaceHandle,
    SpaceKind,
    component_name,
)
from .words import Word, cut


class LoopError(Exception):
    pass


class InvalidLoopError(LoopError):
    """Raised for geometry that is not a valid loop of its space."""


class SpaceMismatchError(LoopError):
    """Two loops from different spaces were combined."""


class Loop(Record):
    """A based PL loop together with its carrying space and its chart.

    ``Loop(path, space)`` checks that the path is a PLPath and locates it
    once, by ``_first_violation``: the chart is the tuple of edges the
    pieces lie on (None for a constant piece), and an invalid path raises
    ``InvalidLoopError`` with the text ``invalid loop: <Violation>``. The
    builders of this module and of ``pi1`` chart their loops by
    construction and go through ``_charted``, which locates nothing. The
    spans are kept by ``_spans`` on its first call, in a slot assigned in
    place. Equality and hashing compare ``(path, space)`` only.
    """

    __slots__ = ("path", "space", "_chart", "_spans")
    _fields = ("path", "space")

    def __init__(self, path: PLPath, space: SpaceHandle):
        if not isinstance(path, PLPath):
            raise LoopError("Loop.path must be a PLPath")
        self.path = path
        self.space = space
        chart = _first_violation(self)
        if isinstance(chart, Violation):
            raise InvalidLoopError(f"invalid loop: {chart}")
        self._chart = chart
        self._spans = None


class Violation(Record):
    """First offending piece of an invalid loop, with its parameter interval."""

    __slots__ = _fields = ("piece_index", "t_start", "t_end", "reason")

    def __init__(self, piece_index: int, t_start: Fraction, t_end: Fraction, reason: str):
        self.piece_index = piece_index
        self.t_start = t_start
        self.t_end = t_end
        self.reason = reason

    def __str__(self) -> str:
        return f"piece {self.piece_index} on [{rational_text(self.t_start)}, {rational_text(self.t_end)}]: {self.reason}"


def _first_violation(loop: Loop):
    """Locate the path from scratch: its piece edges, or its first Violation.

    Each point other than p is located once, when a piece first ends at
    it, however often the path passes it; a moving piece lies on the edges
    through both of its endpoints, and on the least of them. Points are
    compared and remembered by their quads.

    A piece reads the edges through its start from the piece before it,
    and those through its end with one lookup. A constant piece locates
    nothing. The path starts at p, so each other point it passes is first
    reached by a moving piece, whose end check has located it, or returned
    the violation that it is outside the space, before any piece leaves it.
    """
    ts, qs = loop.path._ts, loop.path._qs
    base = ORIGIN._q

    def t(k: int) -> Fraction:
        return Fraction(*ts[k])

    if qs[0] != base:
        return Violation(0, t(0), t(0), f"loop starts at {_quad_str(qs[0])}, not at p")
    if qs[-1] != base:
        return Violation(len(qs) - 2, t(-1), t(-1), f"loop ends at {_quad_str(qs[-1])}, not at p")
    located: dict = {}  # quad -> the edges through that point
    r0 = None  # the edges through the current point, None at p
    edges = []
    for i, (q0, q1) in enumerate(zip(qs, qs[1:])):
        if q0 == q1:
            edges.append(None)
            continue
        if q1 == base:
            hits = [ref for ref in r0 if ref[1] != 1]
            r1 = None
        else:
            r1 = located.get(q1)
            if r1 is None:
                r1 = located[q1] = loop.space.edges_containing(q1)
            if not r1:
                return Violation(i, t(i), t(i + 1), f"breakpoint {_quad_str(q1)} is outside the space")
            if r0 is None:
                hits = [ref for ref in r1 if ref[1] != 1]
            else:
                hits = [ref for ref in r0 if ref in r1]
        if not hits:
            return Violation(
                i, t(i), t(i + 1), f"piece {_quad_str(q0)} -> {_quad_str(q1)} is not contained in a single edge"
            )
        edges.append(min(hits))
        r0 = r1
    return tuple(edges)


def _charted(path: PLPath, space: SpaceHandle, chart: Tuple[Optional[EdgeRef], ...]) -> Loop:
    """A loop on ``path`` whose pieces lie on the edges of ``chart``, one
    per piece, as the builder put them there. Nothing is located: the
    builder vouches for the chart, and ``validate`` checks it afresh."""
    loop = object.__new__(Loop)
    loop.path = path
    loop.space = space
    loop._chart = chart
    loop._spans = None
    return loop


def validate(loop: Loop) -> Optional[Violation]:
    """None when the loop's path is valid; otherwise its first violating piece.

    The path is located from scratch, never read back from the chart, so
    this is an independent check of the builder that charted the loop.
    """
    v = _first_violation(loop)
    return v if isinstance(v, Violation) else None


def _spans(loop: Loop) -> Tuple[tuple, ...]:
    """The loop's ``_scan``, computed at most once and kept in ``_spans``."""
    spans = loop._spans
    if spans is None:
        path = loop.path
        spans = loop._spans = _scan(path._ts, path._qs, loop._chart, loop.space)
    return spans


# The vertices p, B, D of a circle are numbered 0, 1, 2, and edge j runs
# from vertex j to vertex j + 1 mod 3. _SHARED[j][k] is the one vertex that
# the distinct edges j and k share.
_SHARED = ((None, 1, 0), (1, None, 2), (0, 2, None))


def _scan(ts, qs, chart, space) -> Tuple[tuple, ...]:
    """The span ``(component, first, last, degree)`` of each maximal
    excursion of the charted breakpoint quads ``qs``, in order, in one pass.

    ``first`` and ``last`` index the breakpoints at p that bound the
    excursion; its component is the one first entry of its edges. Its
    winding degree is its signed count of traversals of edge 1 (B -> D).
    The chart changes edge only at the vertex the two edges share, which
    each change compares with the point by quads, and p only bounds the
    excursion, so the degree is the count of changes 1 -> 2 minus the count
    of changes 2 -> 1. An alpha excursion, and one charted on edge 1 alone,
    has degree 0. A chart that names two components or changes edge away
    from the shared vertex raises ``InvalidLoopError``, and so does an edge-1
    run that would have to reach p: a first run that changes edge, or a
    last run after a change. ``_refuse`` gives an excursion that names two
    components that error before any other.
    """
    base = ORIGIN._q
    out = []
    first = 0  # the breakpoint at p where the current excursion starts
    n = None  # its component, once one of its pieces names it
    for k, ref in enumerate(chart):
        if ref is None:
            pass
        elif n is None:
            n, run = ref
            start, degree = run, 0  # the edge of its first run, its edge-1 traversals so far
            if n != ALPHA:
                circ = space.circle(n)
                vertex = (base, circ._apex_q, circ._tail_q)
        elif ref[0] != n:
            _refuse(ts, qs, chart, first, None)
        elif ref[1] != run and n != ALPHA:
            j = ref[1]
            if qs[k] != vertex[_SHARED[run][j]]:
                _refuse(ts, qs, chart, first, "discontinuous chart sequence in excursion")
            if start == 1:
                _refuse(ts, qs, chart, first, "excursion lift does not close up at p")
            # a change past the vertex check joins edge 1 to edge 0 or 2 (0
            # and 2 share only p), so this counts 1 -> 2 less 2 -> 1
            degree += (j == 2) - (run == 2)
            run = j
        if qs[k + 1] != base:
            continue
        if k > first:
            if n is None:
                _refuse(ts, qs, chart, first, None)
            if run == 1 != start:
                raise InvalidLoopError("excursion lift does not close up at p")
            out.append((n, first, k + 1, degree))
        first, n = k + 1, None
    return tuple(out)


def _refuse(ts, qs, chart, first: int, reason: Optional[str]):
    """Raise the error of the excursion from breakpoint ``first``: that it
    spans components, if its chart names other than one, else ``reason``."""
    last = qs.index(ORIGIN._q, first + 1)
    comps = {ref[0] for ref in chart[first:last] if ref is not None}
    if len(comps) != 1:
        raise InvalidLoopError(
            f"excursion on [{rational_text(Fraction(*ts[first]))}, {rational_text(Fraction(*ts[last]))}] spans components "
            f"{sorted(map(component_name, comps))}"
        )
    raise InvalidLoopError(reason)


def loop_from_breakpoints(raw: Sequence, space: SpaceHandle) -> Loop:
    """Loop from (t, x, y) rational triples; raises InvalidLoopError off the space."""
    return Loop(pl_path(raw), space)


def constant_loop(space: SpaceHandle) -> Loop:
    return _charted(_path(((0, 1), (1, 1)), (ORIGIN._q, ORIGIN._q)), space, (None,))


def standard_f(space: SpaceHandle) -> Loop:
    """The up-and-down traversal of alpha: p to (0,1) at half time, then back.

    Charted by construction: both pieces lie on alpha."""
    if not space.has_alpha:
        raise SpaceError("the alpha loop lives in the compact space Y")
    base, top = ORIGIN._q, ALPHA_SEGMENT.b._q
    return _charted(_path(((0, 1), (1, 2), (1, 1)), (base, top, base)), space, (ALPHA_EDGE, ALPHA_EDGE))


def _tail_param(n: int, space: SpaceHandle):
    """C_n and the reduced parameter pair (tn, td) at which ``standard_fn``
    reaches its tail D_n; refuses a C_n whose tail is not above p.

    The tail D_n sits at height 1 - w = yn/yd, where the alpha loop is at
    t = (2 - yn/yd)/2 = (2*yd - yn)/(2*yd). That pair shares no odd factor,
    since gcd(2*yd - yn, yd) = gcd(yn, yd) = 1, so it is reduced by 2 when
    yn is even. The tail parameter is below 1 only for w(n) < 1, that is
    for D_n above the height of p, which a certified C_n (n >= 3) has but
    C_2 need not.
    """
    circ = space.circle(n)
    _, _, yn, yd = circ._tail_q
    if yn <= 0:
        raise SpaceError(
            f"the loop around C{n} needs w({n}) < 1, which width profile {cut(space.profile.name)} does not give"
        )
    if yn & 1:
        return circ, 2 * yd - yn, 2 * yd
    return circ, yd - (yn >> 1), yd


def standard_fn(n: int, space: SpaceHandle) -> Loop:
    """One positive traversal of C_n, parametrized to shadow the alpha loop.

    The apex B_n is reached at t = 1/2 exactly like the alpha loop reaches
    (0,1); the cap B_n -> D_n is crossed on [1/2, (1+w)/2] so that during
    the descent the y-coordinates of this loop and the alpha loop agree
    identically. That makes sup_distance(f_n, f) exactly 1/n + n*w(n).
    Charted by construction: its pieces are the edges 0, 1, 2 of C_n.
    """
    circ, tn, td = _tail_param(n, space)
    return _charted(
        _path(((0, 1), (1, 2), (tn, td), (1, 1)), (ORIGIN._q, circ._apex_q, circ._tail_q, ORIGIN._q)),
        space,
        ((n, 0), (n, 1), (n, 2)),
    )


def concatenate(a: Loop, b: Loop) -> Loop:
    """Half-speed concatenation: a on [0, 1/2], b on [1/2, 1]."""
    return concatenate_all((a, b))


def concatenate_all(loops: Sequence[Loop]) -> Loop:
    """The loops concatenated at half speed from the left, in one walk: of m
    loops, the first runs on [0, 1/2^(m-1)] and loop k >= 1 on
    [1/2^(m-k), 1/2^(m-k-1)].

    A reduced n/d of loop k >= 1 goes to (n + d)/(2^s d) with s = m - k, and
    one of the first loop to n/(2^s d) with s = m - 1. Both numerators are
    coprime to d, so the pair reduces by the power of two that the
    numerator and 2^s share.
    """
    if not loops:
        raise LoopError("need at least one loop")
    space = loops[0].space
    m = len(loops)
    ts, qs, chart = [], [], []
    for k, lp in enumerate(loops):
        if lp.space != space:
            raise SpaceMismatchError("cannot concatenate loops from different spaces")
        # loop k >= 1 starts where the one before it ends
        lead, s = (1, m - k) if k else (0, m - 1)
        for n, d in lp.path._ts[lead:]:
            if lead:
                n += d
            r = s
            while r and not n & 1:
                n >>= 1
                r -= 1
            ts.append((n, d << r))
        qs += lp.path._qs[lead:]
        chart += lp._chart
    return _charted(_path(tuple(ts), tuple(qs)), space, tuple(chart))


def reverse(a: Loop) -> Loop:
    return _charted(a.path.reversed(), a.space, a._chart[::-1])


def realize_word(w: Word, space: SpaceHandle) -> Loop:
    """A loop in X whose excursion sequence spells the word letter by letter.

    Letter k runs as ``standard_fn(n)``, or as its reverse for g_n^-1, with
    each breakpoint t of it placed at (k + t)/total. Its three breakpoints
    after p are written from C_n's vertex quads and ``_tail_param``, each
    with the edge of the piece that ends there, so no loop is built.
    """
    total = len(w)
    if not total:
        return constant_loop(space)
    base = ORIGIN._q
    ts, qs, chart = [(0, 1)], [base], []
    k = 0
    for n, e in w.syllables:
        circ, tn, td = _tail_param(n, space)
        apex, tail = circ._apex_q, circ._tail_q
        if e > 0:
            letter = (((1, 2), apex, (n, 0)), ((tn, td), tail, (n, 1)), ((1, 1), base, (n, 2)))
        else:
            letter = (((td - tn, td), tail, (n, 2)), ((1, 2), apex, (n, 1)), ((1, 1), base, (n, 0)))
        for _ in range(abs(e)):
            # (k + t)/total = (k*d + m)/(total*d); gcd(k*d + m, d) = 1
            for (m, d), q, ref in letter:
                num = k * d + m
                g = gcd(num, total)
                ts.append((num // g, total // g * d))
                qs.append(q)
                chart.append(ref)
            k += 1
    return _charted(_path(tuple(ts), tuple(qs)), space, tuple(chart))


def include_in_y(loop: Loop) -> Loop:
    """Inclusion of an X loop into the compactification Y.

    Circle edges meet alpha only at p, so the loop's X chart is its Y chart,
    and the spans of that chart, if the X loop has them, are its Y spans.
    """
    if loop.space.kind is SpaceKind.COMPACT_Y:
        return loop
    out = _charted(loop.path, loop.space.sibling(SpaceKind.COMPACT_Y), loop._chart)
    out._spans = loop._spans
    return out
