"""The value records: equality, hashing, reprs and the checks they run."""
import re
from fractions import Fraction as F

import pytest

from pi1lab import dsl
from pi1lab.geometry import DegenerateSegmentError, ExactDistance, Segment, point
from pi1lab.loops import Violation, standard_fn
from pi1lab.pi1 import HomotopyClass
from pi1lab.report import FAIL, PASS, ProbeReport
from pi1lab.spaces import (
    CUBE,
    POW10,
    Circle,
    Membership,
    SpaceHandle,
    SpaceKind,
    WidthProfile,
    build_circle,
    compact_y,
)
from pi1lab.words import Word, WordError


def _fn(n):
    return F(1, n)


def fields(**named):
    return tuple(named.items())


_C3 = build_circle(3, CUBE)
_TS, _QUADS = ((0, 1), (1, 1)), ((0, 1, 0, 1), (0, 1, 0, 1))

# (make, fields): make() builds a fresh record whose fields, in order, are
# the (name, value) pairs ``fields``; one entry per record class.
RECORDS = [
    (lambda: dsl.SpaceDecl("S", "Y", 20, "pow10"), fields(name="S", kind="Y", hint=20, width="pow10")),
    (lambda: dsl.AlphaExpr(), ()),
    (lambda: dsl.CircleExpr(3, True), fields(index=3, inverse=True)),
    (lambda: dsl.ConcatExpr(("a", "b")), fields(args=("a", "b"))),
    (lambda: dsl.WordExpr(Word(((2, 1),))), fields(word=Word(((2, 1),)))),
    (lambda: dsl.PointsExpr(_TS, _QUADS, 0), fields(_ts=_TS, _quads=_QUADS)),
    (
        lambda: dsl.LoopBinding("a", dsl.CircleExpr(2, False)),
        fields(name="a", expr=dsl.CircleExpr(2, False)),
    ),
    (lambda: dsl.ClassifyStmt("a"), fields(name="a")),
    (lambda: dsl.DistStmt("a", "b"), fields(first="a", second="b")),
    (lambda: dsl.ProbeStmt("hausdorff", (("up_to", 5),)), fields(kind="hausdorff", args=(("up_to", 5),))),
    (lambda: dsl.RenderStmt(("S",), "out.svg"), fields(names=("S",), out="out.svg")),
    (lambda: dsl.Script((dsl.ClassifyStmt("a"),)), fields(statements=(dsl.ClassifyStmt("a"),))),
    (lambda: Segment(point(0, 0), point(1, 2)), fields(a=point(0, 0), b=point(1, 2))),
    (lambda: ExactDistance(F(1, 4), F(1, 2)), fields(squared=F(1, 4), attained_at=F(1, 2))),
    (
        lambda: Violation(1, F(0), F(1, 2), "why"),
        fields(piece_index=1, t_start=F(0), t_end=F(1, 2), reason="why"),
    ),
    (
        lambda: HomotopyClass(Word(((2, -1),)), SpaceKind.COMPACT_Y),
        fields(word=Word(((2, -1),)), space_kind=SpaceKind.COMPACT_Y),
    ),
    (
        lambda: ProbeReport("p", "c", FAIL, (("k", "v"),), ("h",), (("r",),), ((("w", "x"),),), notes=("n",)),
        fields(
            probe="p",
            claim="c",
            verdict=FAIL,
            parameters=(("k", "v"),),
            table_header=("h",),
            table_rows=(("r",),),
            witnesses=((("w", "x"),),),
            notes=("n",),
        ),
    ),
    (lambda: WidthProfile("w", _fn), fields(name="w", fn=_fn)),
    (
        lambda: Circle(3, _C3.apex, _C3.tail, _C3.edges),
        fields(index=3, apex=_C3.apex, tail=_C3.tail, edges=_C3.edges),
    ),
    (lambda: Membership("circle", 3, 1), fields(kind="circle", circle_index=3, edge_index=1)),
    (lambda: Word(((2, 3), (5, -1))), fields(syllables=((2, 3), (5, -1)))),
]
RECORD_IDS = [make().__class__.__name__ for make, _ in RECORDS]


@pytest.mark.parametrize("make, fields", RECORDS, ids=RECORD_IDS)
def test_equal_fields_give_equal_records(make, fields):
    a, b = make(), make()
    values = tuple(v for _, v in fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != values and a != object()


@pytest.mark.parametrize("make, fields", RECORDS, ids=RECORD_IDS)
def test_repr_names_each_field_in_order(make, fields):
    record = make()
    name = record.__class__.__name__
    assert repr(record) == f"{name}(" + ", ".join(f"{k}={v!r}" for k, v in fields) + ")"


@pytest.mark.parametrize("make", [make for make, _ in RECORDS] + [compact_y], ids=RECORD_IDS + ["SpaceHandle"])
def test_records_keep_no_instance_dict(make):
    assert not hasattr(make(), "__dict__")


def test_records_of_different_classes_differ():
    assert dsl.DistStmt("a", "b") != dsl.LoopBinding("a", "b")
    assert dsl.ClassifyStmt("a") != dsl.WordExpr("a")


def test_field_values_are_compared():
    assert dsl.CircleExpr(3, True) != dsl.CircleExpr(3, False)
    assert Membership("circle", 3, 1) != Membership("circle", 3, 2)
    assert Segment(point(0, 0), point(1, 2)) != Segment(point(1, 2), point(0, 0))


def test_points_expr_equality_ignores_top():
    a = dsl.PointsExpr(_TS, _QUADS, 0)
    b = dsl.PointsExpr(_TS, _QUADS, 3)
    assert a == b and hash(a) == hash(b)
    assert a != dsl.PointsExpr(_TS, ((0, 1, 0, 1), (1, 2, 0, 1)), 0)
    assert repr(a) == f"PointsExpr(_ts={_TS!r}, _quads={_QUADS!r})"


def test_alpha_expr_is_truthy():
    assert dsl.AlphaExpr() and repr(dsl.AlphaExpr()) == "AlphaExpr()"


class TestWord:
    def test_len_counts_letters(self):
        assert len(Word(((2, 3), (5, -2)))) == 5
        assert len(Word()) == 0 and not Word() and Word(((2, -1),))

    def test_syllables_are_int_pairs(self):
        w = Word([(F(2), F(3))])
        assert w.syllables == ((2, 3),) and type(w.syllables[0][1]) is int

    @pytest.mark.parametrize(
        "syllables, message",
        [
            (((1, 1),), "generator index must be >= 2, got g1"),
            (((2, 0),), "zero exponent in normal form"),
            (((2, 1), (2, 1)), "adjacent syllables share a generator; not reduced"),
        ],
    )
    def test_refusals(self, syllables, message):
        with pytest.raises(WordError, match=f"^{re.escape(message)}$"):
            Word(syllables)


class TestProbeReport:
    def test_refusals(self):
        with pytest.raises(ValueError, match=r"^verdict must be PASS or FAIL, got 'MAYBE'$"):
            ProbeReport("p", "c", "MAYBE")
        with pytest.raises(ValueError, match=r"^a FAIL report must carry at least one counter-witness$"):
            ProbeReport("p", "c", FAIL)
        assert not ProbeReport("p", "c", FAIL, witnesses=((("k", "v"),),)).passed

    def test_defaults(self):
        report = ProbeReport("p", "c", PASS)
        assert report.passed
        assert ProbeReport("p", "c", PASS, (), (), (), (), ()) == report


class TestSegment:
    def test_degenerate_refused(self):
        with pytest.raises(DegenerateSegmentError, match=r"^degenerate segment at \(1/2, 1\)$"):
            Segment(point(F(1, 2), 1), point(F(1, 2), 1))

    def test_length_bracket_is_kept(self):
        seg = Segment(point(0, 0), point(1, 2))
        first = seg.length_bracket
        assert seg.length_bracket is first
        lo, hi = first
        assert lo * lo <= 5 <= hi * hi


class TestSpaceHandle:
    def test_siblings_share_circles(self):
        y = compact_y(hint=8)
        x = y.sibling(SpaceKind.BOUQUET_X)
        assert x._circles is y._circles
        circ = x.circle(5)
        assert y.circle(5) is circ and list(y._circles) == [5]
        assert SpaceHandle(SpaceKind.COMPACT_Y)._circles is not SpaceHandle(SpaceKind.COMPACT_Y)._circles

    def test_equality_reads_kind_and_profile_name(self):
        y = SpaceHandle(SpaceKind.COMPACT_Y, POW10, 8)
        other = SpaceHandle(SpaceKind.COMPACT_Y, WidthProfile("pow10", _fn), 40)
        other.circle(2)
        assert y == other and hash(y) == hash(other)
        assert y != y.sibling(SpaceKind.BOUQUET_X)
        assert y != SpaceHandle(SpaceKind.COMPACT_Y, CUBE, 8)

    def test_repr(self):
        y = SpaceHandle(SpaceKind.COMPACT_Y, CUBE, 8)
        want = f"SpaceHandle(kind={SpaceKind.COMPACT_Y!r}, profile={CUBE!r}, hint=8, cached_circles={{}})"
        assert repr(y) == want.format(0)
        y.circle(2), y.circle(3)
        assert repr(y) == want.format(2)

    def test_loop_repr_does_not_print_the_circles(self):
        """The repr printed the whole circle cache: 76,568 characters for
        pow10 C_2 ... C_32, in every loop's repr."""
        y = compact_y(hint=32)
        for n in range(2, 33):
            y.circle(n)
        assert len(repr(standard_fn(2, y))) < 1000


def test_built_circle_equals_its_record():
    assert build_circle(3, CUBE) == _C3
    assert _C3.vertices == (point(0, 0), _C3.apex, _C3.tail)
