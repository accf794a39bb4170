"""Based PL loops in the bouquet X or its compactification Y.

A loop is a PLPath based at p = (0,0) whose every linear piece lies inside
a single edge of the carrying space; this is checked exactly. Because every
edge of the construction has p as an extreme point, a valid loop meets p
only at breakpoints, so the decomposition into maximal excursions away from
p is a pure breakpoint scan. Winding degrees are read off the chart: the
edge changes only at a vertex, so each maximal run of pieces on one edge
steps between vertices, and the degree is an integer sum of those steps,
never a numeric arc length.

A loop is charted when built, or refused. Its chart is the edge each
piece lies on (None for a constant piece). A loop of foreign geometry
(``Loop(path, space)``, hence ``points`` literals and
``loop_from_breakpoints``) is located once, breakpoint by breakpoint, when
it is built; an invalid path raises ``InvalidLoopError`` with its first
violation, so no invalid loop exists. The standard loops (``standard_f``,
``standard_fn``), the constant loop, the perturbations of the
discreteness probe and the samples of the slsc probe are charted by
construction: their pieces are put on known edges. Operations that
rebuild a loop on points already charted carry the chart: concatenation,
reversal, the inclusion X -> Y, ``realize_word`` and the collapse into X.
``validate`` always locates afresh, which makes it an independent check of
a carried chart.

Excursions are read by one integer scan of the chart, ``_scan``: each
maximal excursion is a span ``(component, first, last, degree)`` between
the breakpoints ``first`` and ``last`` at p. A loop's spans are computed
once and kept in its ``_spans`` slot, and the readers in ``pi1`` read
them; no excursion record is built.

Paths keep their parameters as reduced int pairs, and the builders here
emit pairs, with no Fraction: concatenation halves n/d to n/(2d) or
(n + d)/(2d) and reduces by 2 when the numerator is even; reversal maps
n/d to (d - n)/d; ``realize_word`` places it at (k*d + n)/(total*d),
reduced by gcd(k*d + n, total). Fractions are built only for text, such as
a Violation or an excursion error, and when ``breakpoints`` or ``params``
is read.

A ``Loop`` is a plain record with ``__slots__``: its fields are set once
in the constructor, the spans are assigned to their own slot in place, and
equality and hashing read only the constructor's fields (a loop's chart is
fixed by its path and space). A chart's edges are the int pairs of
``spaces``, (n, j) for edge j of C_n or ``ALPHA_EDGE``, so an excursion's
component is the first entry of its edges, the circle index n or
``ALPHA``, and the least edge through a point is the least pair. The lift
of a winding degree compares vertex quads and reads each run's shared
vertex and its step of +1, -1 or 0 from small tables.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Tuple

from .geometry import ORIGIN, PLPath, _path, pl_path
from .records import Record
from .spaces import (
    ALPHA,
    ALPHA_EDGE,
    EdgeRef,
    SpaceError,
    SpaceHandle,
    SpaceKind,
    component_name,
    default_x,
    default_y,
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
        return f"piece {self.piece_index} on [{self.t_start}, {self.t_end}]: {self.reason}"


def _first_violation(loop: Loop):
    """Locate the path from scratch: its piece edges, or its first Violation.

    Each point other than p is located once, when a piece first needs it,
    however often the path passes it; a moving piece lies on the edges
    through both of its endpoints, and on the least of them. Points are
    compared and remembered by their quads.
    """
    ts, pts = loop.path._ts, loop.path.points
    base = ORIGIN._q

    def t(k: int) -> Fraction:
        return Fraction(*ts[k])

    if pts[0]._q != base:
        return Violation(0, t(0), t(0), f"loop starts at {pts[0]}, not at p")
    if pts[-1]._q != base:
        return Violation(len(pts) - 2, t(-1), t(-1), f"loop ends at {pts[-1]}, not at p")
    located: dict = {}  # quad -> the edges through that point

    def edges_at(k: int) -> Tuple[EdgeRef, ...]:
        refs = located.get(pts[k]._q)
        if refs is None:
            refs = located[pts[k]._q] = loop.space.edges_containing(pts[k])
        return refs

    edges = []
    for i, (p0, p1) in enumerate(zip(pts, pts[1:])):
        q0, q1 = p0._q, p1._q
        if q0 == q1:
            if q0 != base and not edges_at(i):
                return Violation(i, t(i), t(i + 1), f"stationary point {p0} is outside the space")
            edges.append(None)
            continue
        for k, q in ((i, p0), (i + 1, p1)):
            if q._q != base and not edges_at(k):
                return Violation(i, t(i), t(i + 1), f"breakpoint {q} is outside the space")
        if q1 == base:
            hits = [ref for ref in edges_at(i) if ref[1] != 1]
        elif q0 == base:
            hits = [ref for ref in edges_at(i + 1) if ref[1] != 1]
        else:
            hits = [ref for ref in edges_at(i) if ref in edges_at(i + 1)]
        if not hits:
            return Violation(i, t(i), t(i + 1), f"piece {p0} -> {p1} is not contained in a single edge")
        edges.append(min(hits))
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
        spans = loop._spans = _scan(path._ts, path.points, loop._chart, loop.space)
    return spans


# The vertices p, B, D of a circle are numbered 0, 1, 2, and edge j runs
# from vertex j to vertex j + 1 mod 3. _SHARED[j][k] is the one vertex that
# the distinct edges j and k share. _STEP[j][a][b] is the lifted step of a
# run on edge j from vertex a to vertex b: +1 forward along the edge, -1
# back, 0 when a == b, and None when edge j does not join a to b.
_SHARED = ((None, 1, 0), (1, None, 2), (0, 2, None))
_STEP = (
    ((0, 1, None), (-1, 0, None), (None, None, 0)),
    ((0, None, None), (None, 0, 1), (None, -1, 0)),
    ((0, None, -1), (None, 0, None), (1, None, 0)),
)


def _scan(ts, pts, chart, space) -> Tuple[tuple, ...]:
    """The span ``(component, first, last, degree)`` of each maximal
    excursion of the charted breakpoints ``pts``, in order.

    ``first`` and ``last`` index the breakpoints at p that bound the
    excursion; its component is the one first entry of its edges. Its
    winding degree is the lift of its chart: the chart changes edge only at
    the vertex the two edges share, and the excursion starts and ends at p,
    so each maximal run of pieces on one edge goes from a vertex of that
    edge to a vertex of it and lifts to a step of +1 (along the positive
    cycle p -> B -> D -> p), -1 or 0 on the vertex numbering. The degree is
    the sum of the steps divided by 3, so it depends only on the
    combinatorial edge-crossing sequence. Each edge change compares the
    point with the shared vertex by quads, and the shared vertex and the
    step are lookups in ``_SHARED`` and ``_STEP``. An alpha excursion has
    degree 0. A chart that names two components, changes edge away from
    the shared vertex or whose lift does not close raises
    ``InvalidLoopError``.
    """
    base = ORIGIN._q
    at_p = [i for i, q in enumerate(pts) if q._q == base]
    out = []
    for first, last in zip(at_p, at_p[1:]):
        if last == first + 1:
            continue
        edges = chart[first:last]
        comps = {ref[0] for ref in edges if ref is not None}
        if len(comps) != 1:
            raise InvalidLoopError(
                f"excursion on [{Fraction(*ts[first])}, {Fraction(*ts[last])}] spans components "
                f"{sorted(map(component_name, comps))}"
            )
        n = comps.pop()
        if n == ALPHA:
            out.append((n, first, last, 0))
            continue
        circ = space.circle(n)
        vertex = (base, circ.apex._q, circ.tail._q)
        lift = 0
        at = 0  # the vertex the current run started from
        run = None  # the edge of the current run
        k = first  # the breakpoint where the piece of ref starts
        for ref in edges:
            if ref is not None and ref[1] != run:
                j = ref[1]
                if run is not None:
                    v = _SHARED[run][j]
                    if pts[k]._q != vertex[v]:
                        raise InvalidLoopError("discontinuous chart sequence in excursion")
                    step = _STEP[run][at][v]
                    if step is None:
                        raise InvalidLoopError("excursion lift does not close up at p")
                    lift += step
                    at = v
                run = j
            k += 1
        step = _STEP[run][at][0]
        if step is None or (lift + step) % 3 != 0:
            raise InvalidLoopError("excursion lift does not close up at p")
        out.append((n, first, last, (lift + step) // 3))
    return tuple(out)


def loop_from_breakpoints(raw: Sequence, space: SpaceHandle) -> Loop:
    """Loop from (t, x, y) rational triples; raises InvalidLoopError off the space."""
    return Loop(pl_path(raw), space)


def constant_loop(space: SpaceHandle) -> Loop:
    return _charted(_path(((0, 1), (1, 1)), (ORIGIN, ORIGIN)), space, (None,))


def standard_f(space: Optional[SpaceHandle] = None) -> Loop:
    """The up-and-down traversal of alpha: p to (0,1) at half time, then back.

    Charted by construction: both pieces lie on alpha."""
    space = space if space is not None else default_y()
    if not space.has_alpha:
        raise SpaceError("the alpha loop lives in the compact space Y")
    top = space.alpha_segment.b
    return _charted(
        _path(((0, 1), (1, 2), (1, 1)), (ORIGIN, top, ORIGIN)), space, (ALPHA_EDGE, ALPHA_EDGE)
    )


def standard_fn(n: int, space: Optional[SpaceHandle] = None) -> Loop:
    """One positive traversal of C_n, parametrized to shadow the alpha loop.

    The apex B_n is reached at t = 1/2 exactly like the alpha loop reaches
    (0,1); the cap B_n -> D_n is crossed on [1/2, (1+w)/2] so that during
    the descent the y-coordinates of this loop and the alpha loop agree
    identically. That makes sup_distance(f_n, f) exactly 1/n + n*w(n).
    Charted by construction: its pieces are the edges 0, 1, 2 of C_n.

    The tail D_n sits at height 1 - w = yn/yd, where the alpha loop is at
    t = (2 - yn/yd)/2 = (2*yd - yn)/(2*yd). That pair shares no odd factor,
    since gcd(2*yd - yn, yd) = gcd(yn, yd) = 1, so it is reduced by 2 when
    yn is even. The tail parameter is below 1 only for w(n) < 1, that is
    for D_n above the height of p, which a certified C_n (n >= 3) has but
    C_2 need not.
    """
    space = space if space is not None else default_x()
    circ = space.circle(n)
    _, _, yn, yd = circ.tail.quad()
    if yn <= 0:
        raise SpaceError(
            f"the loop around C{n} needs w({n}) < 1, which width profile {cut(space.profile.name)} does not give"
        )
    tn, td = 2 * yd - yn, 2 * yd
    if not yn & 1:
        tn, td = tn >> 1, yd
    return _charted(
        _path(((0, 1), (1, 2), (tn, td), (1, 1)), (ORIGIN, circ.apex, circ.tail, ORIGIN)),
        space,
        ((n, 0), (n, 1), (n, 2)),
    )


def concatenate(a: Loop, b: Loop) -> Loop:
    """Half-speed concatenation: a on [0, 1/2], b on [1/2, 1].

    A reduced n/d goes to n/(2d) or (n + d)/(2d); the new numerator shares
    no odd factor with 2d, so the pair is reduced by 2 when it is even.
    """
    if a.space != b.space:
        raise SpaceMismatchError("cannot concatenate loops from different spaces")
    ts = [_half(n, d) for n, d in a.path._ts]
    ts.extend(_half(n + d, d) for n, d in b.path._ts[1:])
    pts = a.path.points + b.path.points[1:]
    return _charted(_path(tuple(ts), pts), a.space, a._chart + b._chart)


def _half(n: int, d: int) -> tuple:
    """n/(2d) reduced, for n coprime to d."""
    return (n >> 1, d) if not n & 1 else (n, d << 1)


def concatenate_all(loops: Sequence[Loop]) -> Loop:
    if not loops:
        raise LoopError("need at least one loop")
    out = loops[0]
    for nxt in loops[1:]:
        out = concatenate(out, nxt)
    return out


def reverse(a: Loop) -> Loop:
    return _charted(a.path.reversed(), a.space, a._chart[::-1])


def realize_word(w: Word, space: Optional[SpaceHandle] = None) -> Loop:
    """A loop in X whose excursion sequence spells the word letter by letter.

    Its chart joins the charts of the standard loops it is made of, so no
    point is located; the standard loop of each circle is built once per call.
    """
    space = space if space is not None else default_x()
    letters = list(w.letters())
    if not letters:
        return constant_loop(space)
    total = len(letters)
    parts = {}
    ts, pts, chart = [(0, 1)], [ORIGIN], []
    for k, (n, sgn) in enumerate(letters):
        if n not in parts:
            parts[n] = standard_fn(n, space)
        part = parts[n] if sgn > 0 else reverse(parts[n])
        chart += part._chart
        # (k + t)/total = (k*d + tn)/(total*d); gcd(k*d + tn, d) = 1
        for tn, d in part.path._ts[1:]:
            num = k * d + tn
            g = gcd(num, total)
            ts.append((num // g, total // g * d))
        pts.extend(part.path.points[1:])
    return _charted(_path(tuple(ts), tuple(pts)), space, tuple(chart))


def include_in_y(loop: Loop) -> Loop:
    """Inclusion of an X loop into the compactification Y.

    Circle edges meet alpha only at p, so the loop's X chart is its Y chart.
    """
    if loop.space.kind is SpaceKind.COMPACT_Y:
        return loop
    return _charted(loop.path, loop.space.sibling(SpaceKind.COMPACT_Y), loop._chart)
