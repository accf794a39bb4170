"""The declarative script language: spaces, loop bindings, probes, renders.

Line-oriented; ``#`` starts a comment. Rational literals are ``num`` or
``num/den`` — decimal floats are rejected so no precision is ever lost
silently. The values of a ``points`` literal are parsed to reduced int
pairs and kept as such (``PointsExpr``), so the literal is weighed and
pathed without a Fraction; the other rationals are Fractions. The parser
resolves names eagerly: using a name before binding it, binding a loop
before any space is active, or giving a probe a key twice, is a parse
diagnostic with line and column.

    space S = Y(20) width=pow10
    loop f = alpha.updown
    loop f2 = C(2).once
    loop g = concat(f2, f)
    loop w = word g2 g3^-1
    loop q = points [(0, 0, 0), (1/2, 0, 1), (1, 0, 0)]
    classify g
    dist f2 f
    probe disjointness up_to=10
    probe hausdorff up_to=20
    probe nondiscreteness n_max=32 epsilon=1/10
    probe slsc radius=1/4 samples=50 seed=7
    space T = X(20) width=pow10
    loop h2 = C(2).once
    probe discreteness loop=h2 trials=100 magnitude=1/1000 seed=7
    render S f2 f -> scene.svg

Input limits are checked when the script is parsed, so a script over one
fails at once with a parse error instead of running for seconds to hours:

- circle indices are capped at ``MAX_CIRCLE_INDEX``: ``C(n)``, word
  generators ``gN``, a space's hint, ``n_max`` and ``up_to``, and the one
  circle each ``points`` breakpoint can lie on, ``max(2, ceil(y/x))`` for
  x > 0 (``spaces.candidate_circle``, which point location uses too);
- no integer literal may have more than ``MAX_LITERAL_DIGITS`` digits;
- a one-off literal (``parse_loop_literals``) nests ``concat`` at most
  ``MAX_NESTING`` levels deep, which bounds the recursion of every walk
  over its tree: the parser, the price and the evaluation;
- every statement has a price in units of work (``_PRICES``), and one
  script may spend at most ``MAX_SCRIPT_WORK`` units: the statement that
  passes the limit is refused at its line. A price is a closed form in what
  the parser knows: a loop's letters (a word's length, 1 per circle or
  alpha, 1 per ``points`` piece, the sum over a ``concat``) and its weight
  (the circle price p(n) of each letter's circle, and the digits of a
  ``points`` literal), ``trials``, ``samples``, ``up_to``, ``n_max``, a
  space's hint, and the digits of a radius or magnitude. p(n) is the
  squared bit size of C_n's width under the space's width profile, in
  units of 2**16: the default pow10 width of C_n has a 10n-digit
  denominator, and exact arithmetic on C_n costs about p(n) times more
  than on a small circle.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Tuple, Union

from .records import Record
from .spaces import candidate_circle, profile_by_name
from .words import QUOTE_CHARS, Word, WordError, cut, parse_word, quote


# Largest circle index a script may reach. Under pow10, a points loop on
# C_1000 classifies in about 0.01 s, on C_10000 in 0.25 s and on C_40000 in
# 2.2 s (pure-Python kernels, Python 3.11, one core of a 2-vCPU VM).
MAX_CIRCLE_INDEX = 1000

# Longest integer literal a script may hold: Python's default limit for
# converting a decimal string to an int.
MAX_LITERAL_DIGITS = 4300

# Deepest nesting of ``concat`` in a one-off literal. The parser, the price
# and the evaluation each recurse once per level; 1,000 levels passed the
# interpreter's recursion limit and ended in a RecursionError traceback.
MAX_NESTING = 100

# Longest script, in bytes, that `pi1lab run` and `pi1lab render` read; a
# longer one is refused before it is parsed. A points line is parsed whole
# before its price refuses it: a line at the cap of pieces through the tail
# of C_100 is refused in 0.4 s, and one of pieces whose t, x and y have
# 4,300-digit parts in 0.5 s (it ran 1.4 s when a piece was priced whatever
# its digits), and 10 lines of 4,000 pieces through C_100 (80 MB) ran 23 s
# (pure-Python kernels, Python 3.11, one core of a 2-vCPU VM).
MAX_SCRIPT_BYTES = 4000000

# Most units of work one script may spend. A unit is about a microsecond of
# CPU (pure-Python kernels, Python 3.11, one core of a 2-vCPU VM), and each
# price is at or above the measured cost of its work; a points binding pays
# for the digits of its breakpoints through the weight of its literals.
# Building a circle is not priced: a script caches circles per width
# profile, only pow10 and cube certify circles past C_2 (a uniform width is
# not decreasing, so C_3 fails), and all 999 of pow10 take 0.1 s in a fresh
# process, which the limit leaves room for. Hausdorff and disjointness build
# the circles the script has not, within their prices.
MAX_SCRIPT_WORK = 3000000

# Prices in units of work; (a, b) prices an item on circle n at a + b * p(n).
_PRICES = {
    "statement": 100,  # every statement, once
    "letter": (70, 2),  # a binding, per letter, plus 2 x the weight of its points literals
    "classify": 30,  # per letter of the loop
    "dist": (150, 18),  # per letter of both loops
    "pair": (200, 15),  # disjointness, per pair of circles, on the larger
    "hausdorff": (120, 9),  # per circle up to up_to
    "nondiscreteness": (90, 15),  # per circle up to n_max
    "radius": (30, 15),  # discreteness, per letter of the loop, plus 15 x its weight
    "trial": 130,  # discreteness, per trial
    "trial_letter": (15, 10),  # per trial and letter, plus the magnitude's bits / 4
    "sample": 100,  # slsc, per sample, plus the radius's bits
    "draw": 200,  # render, per circle of a space up to its hint
    "draw_letter": 100,  # render, per letter of a loop
}

_LONG_LITERAL_RE = re.compile(r"(?<!\d)\d{%d,}" % (MAX_LITERAL_DIGITS + 1))
_DELIMITER_RE = re.compile(r"[(),\[\]]")


class DslError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


# -- AST ----------------------------------------------------------------------


class SpaceDecl(Record):
    __slots__ = _fields = ("name", "kind", "hint", "width")

    def __init__(self, name: str, kind: str, hint: int, width: str):
        self.name = name
        self.kind = kind  # "X" | "Y"
        self.hint = hint
        self.width = width


class AlphaExpr(Record):
    __slots__ = ()


class CircleExpr(Record):
    __slots__ = _fields = ("index", "inverse")

    def __init__(self, index: int, inverse: bool):
        self.index = index
        self.inverse = inverse


class ConcatExpr(Record):
    __slots__ = _fields = ("args",)

    def __init__(self, args: Tuple[Union[str, "LoopExpr"], ...]):
        # script form uses bound names; the CLI literal form allows nested exprs
        self.args = args


class WordExpr(Record):
    __slots__ = _fields = ("word",)

    def __init__(self, word: Word):
        self.word = word


class PointsExpr(Record):
    """A ``points`` literal: its breakpoints (t, x, y) as reduced ints.

    ``PointsExpr(ts, quads, top)`` takes each t as an int pair (n, d)
    and each (x, y) as a kernel quad (xn, xd, yn, yd), both in lowest terms
    with d > 0, as the parser reads them, so the path and the points are
    built from them without a Fraction. ``weight`` is what the literal adds
    to its binding's weight: per piece, the squared bit size of its longest
    breakpoint, in units of 2**16. ``top`` is the largest candidate circle
    of a breakpoint with x > 0, or 0 if there is none. Equality, hashing
    and the repr read ``_ts`` and ``_quads`` only.
    """

    __slots__ = ("_ts", "_quads", "weight", "top")
    _fields = ("_ts", "_quads")

    def __init__(self, ts: tuple, quads: tuple, top: int):
        bits = max((sum(map(int.bit_length, t + q)) for t, q in zip(ts, quads)), default=0)
        self._ts = ts
        self._quads = quads
        self.weight = (len(ts) - 1) * (bits * bits >> 16)
        self.top = top


LoopExpr = Union[AlphaExpr, CircleExpr, ConcatExpr, WordExpr, PointsExpr]


class LoopBinding(Record):
    __slots__ = _fields = ("name", "expr")

    def __init__(self, name: str, expr: LoopExpr):
        self.name = name
        self.expr = expr


class ClassifyStmt(Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name


class DistStmt(Record):
    __slots__ = _fields = ("first", "second")

    def __init__(self, first: str, second: str):
        self.first = first
        self.second = second


class ProbeStmt(Record):
    __slots__ = _fields = ("kind", "args")

    def __init__(self, kind: str, args: Tuple[Tuple[str, object], ...]):
        self.kind = kind
        self.args = args


class RenderStmt(Record):
    __slots__ = _fields = ("names", "out")

    def __init__(self, names: Tuple[str, ...], out: str):
        self.names = names
        self.out = out


Statement = Union[SpaceDecl, LoopBinding, ClassifyStmt, DistStmt, ProbeStmt, RenderStmt]


class Script(Record):
    __slots__ = _fields = ("statements",)

    def __init__(self, statements: Tuple[Statement, ...]):
        self.statements = statements


# -- parsing ------------------------------------------------------------------

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")
_INT_RE = re.compile(r"^-?\d+$")
_NAME_RE = re.compile(r"^\w+$")
_CIRCLE_RE = re.compile(r"^C\(\s*(-?\d+)\s*\)\.(once|inv)$")
_TRIPLE_RE = re.compile(r"^\(\s*([^\s,]+)\s*,\s*([^\s,]+)\s*,\s*([^\s,]+)\s*\)$")
_SPACE_RE = re.compile(r"^space\s+(\w+)\s*=\s*([XY])\(\s*(\d+)\s*\)(?:\s+width=(\S+))?$")
_UNIFORM_RE = re.compile(r"^uniform:-?\d+(/\d+)?$")
_LOOP_RE = re.compile(r"^loop\s+(\w+)\s*=\s*(.+)$")
_CLASSIFY_RE = re.compile(r"^classify\s+(\w+)$")
_DIST_RE = re.compile(r"^dist\s+(\w+)\s+(\w+)$")
_PROBE_RE = re.compile(r"^probe\s+(\w+)((?:\s+\w+=\S+)*)$")
_RENDER_RE = re.compile(r"^render\s+((?:\w+\s+)*\w+)\s*->\s*(\S+)$")

PROBE_SIGNATURES = {
    "disjointness": (("up_to", "int"),),
    "hausdorff": (("up_to", "int"),),
    "nondiscreteness": (("n_max", "int"), ("epsilon", "rat")),
    "discreteness": (
        ("loop", "name"),
        ("trials", "int"),
        ("magnitude", "rat"),
        ("seed", "int?"),
    ),
    "slsc": (("radius", "rat"), ("samples", "int"), ("seed", "int?")),
}


def parse_rational(text: str, line: int, col: int) -> Fraction:
    return Fraction(*_rational_pair(text, line, col))


def _rational_pair(text: str, line: int, col: int) -> Tuple[int, int]:
    """The rational literal ``text`` as a reduced int pair (n, d), d > 0;
    refused with the texts of ``parse_rational``."""
    if not _RAT_RE.match(text):
        raise DslError(line, col, f"expected a rational like 3 or 1/10, got {quote(text)}")
    # from two ints, which the pattern has checked: the denominator has no sign
    num, _, den = text.partition("/")
    n, d = int(num), int(den or 1)
    if d == 1:
        return n, 1
    if d == 0:
        raise DslError(line, col, f"zero denominator in {quote(text)}")
    g = gcd(n, d)
    return n // g, d // g


def _check_literals(text: str, line: int) -> None:
    """Refuse an integer literal longer than MAX_LITERAL_DIGITS digits, at its column."""
    m = _LONG_LITERAL_RE.search(text)
    if m:
        raise DslError(
            line, m.start() + 1, f"integer literal exceeds the limit of {MAX_LITERAL_DIGITS} digits"
        )


def _check_index(n: int, what: str, line: int, col: int) -> None:
    """Refuse a circle index above MAX_CIRCLE_INDEX. ``what`` names it, with
    ``{}`` where n goes, cut as ``cut`` cuts; the text is built on refusal
    only."""
    if n > MAX_CIRCLE_INDEX:
        raise DslError(line, col, f"{what.format(cut(str(n)))} exceeds the limit {MAX_CIRCLE_INDEX} on circle indices")


def _spend(total: int, cost: int, what: str, line: int, col: int) -> int:
    """The script's work once the statement ``what`` adds its price
    ``cost``; refused at its line and column past MAX_SCRIPT_WORK, with
    ``what`` cut as ``quote`` cuts its input."""
    total += cost
    if total > MAX_SCRIPT_WORK:
        raise DslError(
            line,
            col,
            f"{cut(what)} costs {cost} units of work, which brings the script to {total} "
            f"and exceeds the limit of {MAX_SCRIPT_WORK}",
        )
    return total


def _bits(q: Fraction) -> int:
    """The bit size of q: its numerator's and its denominator's."""
    return q.numerator.bit_length() + q.denominator.bit_length()


@lru_cache(maxsize=64)
def _circle_prices(width: str):
    """n -> p(n) under the profile named ``width``: the squared bit size of
    C_n's width, in units of 2**16, read off the profile's width pairs,
    which it evaluates once per index. Kept for the 64 profiles last asked
    for."""
    pair = profile_by_name(width).pair

    def price(n: int) -> int:
        wn, wd = pair(n)
        return (wn.bit_length() + wd.bit_length()) ** 2 >> 16

    return price


def _measure(expr: LoopExpr, loops: dict, p) -> Tuple[int, int]:
    """(letters, weight) of a loop expression: its letter count and the sum
    of the circle price ``p`` over its letters. A points piece weighs the
    price of its top circle, the largest under pow10, cube and a uniform
    width, plus the squared bit size of its longest breakpoint, in the same
    units (``PointsExpr.weight``). ``loops`` maps bound names to their
    (letters, weight). An exponent past MAX_SCRIPT_WORK counts as
    MAX_SCRIPT_WORK letters, which alone pass the limit."""
    if isinstance(expr, WordExpr):
        counts = [(n, min(abs(e), MAX_SCRIPT_WORK)) for n, e in expr.word.syllables]
        return sum(k for _, k in counts), sum(k * p(n) for n, k in counts)
    if isinstance(expr, CircleExpr):
        return 1, p(expr.index)
    if isinstance(expr, ConcatExpr):
        parts = [loops[a] if isinstance(a, str) else _measure(a, loops, p) for a in expr.args]
        return sum(q[0] for q in parts), sum(q[1] for q in parts)
    if isinstance(expr, PointsExpr):
        pieces = len(expr._ts) - 1
        return pieces, pieces * (p(expr.top) if expr.top else 0) + expr.weight
    return 1, 0


def _literal_weight(expr: LoopExpr) -> int:
    """The weight of the ``points`` literals an expression holds, which its
    binding pays for too (``PointsExpr.weight``)."""
    if isinstance(expr, PointsExpr):
        return expr.weight
    if isinstance(expr, ConcatExpr):
        return sum(_literal_weight(a) for a in expr.args if not isinstance(a, str))
    return 0


def _binding_price(expr: LoopExpr, letters: int) -> int:
    """The price of binding a loop expression of ``letters`` letters."""
    a, b = _PRICES["letter"]
    return a * letters + b * _literal_weight(expr)


def _probe_price(kind: str, args: dict, loops: dict, width: str) -> int:
    """The price of a probe in a space of ``width``. A count past
    MAX_SCRIPT_WORK is priced as MAX_SCRIPT_WORK, which alone passes the
    limit, so that no price outgrows what str() prints."""
    p = _circle_prices(width)
    if kind in ("hausdorff", "nondiscreteness"):
        a, b = _PRICES[kind]
        top = args.get("up_to", args.get("n_max"))
        return sum(a + b * p(n) for n in range(2, top + 1))
    if kind == "disjointness":
        a, b = _PRICES["pair"]
        return sum((n - 2) * (a + b * p(n)) for n in range(3, args["up_to"] + 1))
    if kind == "slsc":
        samples = min(max(args["samples"], 0), MAX_SCRIPT_WORK)
        return samples * (_PRICES["sample"] + _bits(args["radius"]))
    # discreteness: the stability radius of the loop, then its trials
    letters, weight = loops[args["loop"]]
    a, b = _PRICES["radius"]
    radius = a * letters + b * weight
    a, b = _PRICES["trial_letter"]
    trial = _PRICES["trial"] + letters * (a + _bits(args["magnitude"]) // 4) + b * weight
    return radius + min(max(args["trials"], 0), MAX_SCRIPT_WORK) * trial


def _parse_loop_expr(text: str, line: int, col: int, known_loops: Optional[dict]) -> LoopExpr:
    """Loop expression parser.

    With ``known_loops`` given (script mode, the bound names)
    concat arguments must be bound names; with ``known_loops=None`` (CLI
    literal mode) concat arguments are themselves expressions, nested at
    most MAX_NESTING deep. The first concat or points list scans the
    delimiters of ``text`` once (``_CommaScan``); every level reads its
    top-level commas off that scan and passes its arguments on as spans of
    ``text``, so parsing takes time linear in the text at any nesting.
    """
    return _parse_span(text, 0, len(text), line, col, known_loops, 0, None)


def _parse_span(
    text: str, start: int, end: int, line: int, col: int, known_loops: Optional[dict], depth: int, scan
) -> LoopExpr:
    """The loop expression text[start:end], inside ``depth`` enclosing
    concats, so at delimiter depth ``depth`` of ``text``; ``scan`` is the
    ``_CommaScan`` of ``text`` once built."""
    start, end = _strip_span(text, start, end)
    if text.startswith("points", start, end):
        return _parse_points(text, start, end, line, col, depth, scan)
    if not (text.startswith("concat(", start, end) and text[end - 1] == ")"):
        return _parse_leaf(text[start:end], line, col)
    if depth == MAX_NESTING:
        raise DslError(line, col, f"concat nesting exceeds the limit of {MAX_NESTING} levels")
    if scan is None:
        scan = _CommaScan(text)
    spans = scan.split(text, start + len("concat("), end - 1, depth + 1)
    if not spans:
        raise DslError(line, col, "concat needs at least one argument")
    args = []
    for a, b in spans:
        if known_loops is not None:
            part = text[a:b].strip()
            if not _NAME_RE.match(part):
                raise DslError(line, col, f"concat arguments must be loop names, got {quote(part)}")
            if part not in known_loops:
                raise DslError(line, col, f"unbound loop name {quote(part)}")
            args.append(part)
        else:
            args.append(_parse_span(text, a, b, line, col, None, depth + 1, scan))
    return ConcatExpr(tuple(args))


def _parse_leaf(text: str, line: int, col: int) -> LoopExpr:
    """A loop expression other than a concat or a points list, stripped."""
    if text == "alpha.updown":
        return AlphaExpr()
    m = _CIRCLE_RE.match(text)
    if m:
        idx = int(m.group(1))
        if idx < 2:
            raise DslError(line, col, f"circle index must be >= 2, got C({cut(str(idx))})")
        _check_index(idx, "C({})", line, col)
        return CircleExpr(idx, m.group(2) == "inv")
    if text.startswith("word(") and text.endswith(")"):
        return _word_expr(text[len("word(") : -1], line, col)
    if text.startswith("word ") or text == "word":
        return _word_expr(text[4:], line, col)
    raise DslError(line, col, f"unrecognized loop expression {quote(text)}")


def _parse_points(text: str, start: int, end: int, line: int, col: int, depth: int, scan) -> PointsExpr:
    """The points literal text[start:end], stripped, at delimiter depth
    ``depth``; its triples are split on ``scan``, built here if None."""
    start, _ = _strip_span(text, start + len("points"), end)
    if not (start < end and text[start] == "[" and text[end - 1] == "]"):
        raise DslError(line, col, "points expects a bracketed list of (t, x, y) triples")
    if scan is None:
        scan = _CommaScan(text)
    ts, quads, top = [], [], 0
    for a, b in scan.split(text, start + 1, end - 1, depth + 1):
        part = text[a:b].strip()
        m = _TRIPLE_RE.match(part)
        if not m:
            raise DslError(line, col, f"bad points triple {quote(part)}")
        t, (xn, xd), (yn, yd) = (_rational_pair(m.group(i), line, col) for i in (1, 2, 3))
        q = (xn, xd, yn, yd)
        if xn > 0:
            n = candidate_circle(q)
            if n > MAX_CIRCLE_INDEX:
                # y/x of two literals can pass the digit limit of str(), and
                # an index longer than a quote is not named
                circle = f"C({n})" if n < 10**QUOTE_CHARS else "a circle"
                x, y = Fraction(xn, xd), Fraction(yn, yd)
                raise DslError(
                    line,
                    col,
                    f"breakpoint {cut(f'({x}, {y})')} can only lie on {circle}, which exceeds "
                    f"the limit {MAX_CIRCLE_INDEX} on circle indices",
                )
            top = max(top, n)
        ts.append(t)
        quads.append(q)
    if len(ts) < 2:
        raise DslError(line, col, "points needs at least two (t, x, y) triples")
    return PointsExpr(tuple(ts), tuple(quads), top)


def _word_expr(body: str, line: int, col: int) -> WordExpr:
    try:
        word = parse_word(body)
    except WordError as exc:
        msg = str(exc)
        if "index must be" in msg:
            msg = msg.replace("generator index", "circle index")
        raise DslError(line, col, msg) from None
    for n, _ in word.syllables:
        _check_index(n, "g{}", line, col)
    return WordExpr(word)


def _strip_span(text: str, start: int, end: int) -> Tuple[int, int]:
    """The span text[start:end] without its leading and trailing whitespace,
    as str.strip() would strip it, by moving its ends."""
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


class _CommaScan:
    """One pass over the delimiters of a text: the positions of its commas
    at each delimiter depth, ascending. The top-level commas of a span just
    inside an opening delimiter at depth d are then the span's commas at
    depth d, found by bisection without scanning the span again. Only the
    delimiters are visited, so the digits between them cost no Python
    step."""

    __slots__ = ("commas",)

    def __init__(self, text: str):
        commas, depth = {}, 0
        for m in _DELIMITER_RE.finditer(text):
            ch = m.group()
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            else:
                commas.setdefault(depth, []).append(m.start())
        self.commas = commas

    def split(self, text: str, start: int, end: int, depth: int):
        """text[start:end], which text[start - 1] opens at ``depth``, split
        on its commas not nested in parentheses or brackets, as spans; an
        empty or blank last part is dropped."""
        at = self.commas.get(depth, [])
        spans = []
        for c in at[bisect_left(at, start) : bisect_left(at, end)]:
            spans.append((start, c))
            start = c + 1
        if _strip_span(text, start, end)[0] < end:
            spans.append((start, end))
        return spans


def parse_loop_literals(texts: Tuple[str, ...]) -> Tuple[LoopExpr, ...]:
    """One-off loop literals (CLI form, concat arguments may nest) and the
    statement that reads them: one literal is classified, two are measured
    against each other. They are priced as a script's bindings followed by
    its ``classify`` or ``dist``, from a fresh total, in pow10."""
    p = _circle_prices("pow10")
    exprs, sizes, work = [], [], 0
    for text in texts:
        _check_literals(text, 1)
        exprs.append(_parse_loop_expr(text, 1, 1, None))
        sizes.append(_measure(exprs[-1], {}, p))
        cost = _binding_price(exprs[-1], sizes[-1][0])
        work = _spend(work, _PRICES["statement"] + cost, "the loop literal", 1, 1)
    if len(sizes) == 1:
        what, cost = "classify", _PRICES["classify"] * sizes[0][0]
    else:
        a, b = _PRICES["dist"]
        what, cost = "dist", sum(a * letters + b * weight for letters, weight in sizes)
    _spend(work, _PRICES["statement"] + cost, what, 1, 1)
    return tuple(exprs)


def parse(text: str) -> Script:
    statements = []
    spaces: dict = {}  # space name -> its SpaceDecl
    loops: dict = {}  # bound loop name -> (letters, weight)
    work = 0  # the price of every statement so far
    active_space: Optional[SpaceDecl] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        _check_literals(line, lineno)
        col = len(line) - len(line.lstrip()) + 1
        stripped = line.strip()
        head = stripped.split(None, 1)[0]
        what, cost = head, 0
        if head == "space":
            m = _SPACE_RE.match(stripped)
            if not m:
                raise DslError(lineno, col, "expected: space <name> = X(<hint>)|Y(<hint>) [width=default|pow10|cube|uniform:<q>]")
            name, kind, hint, width = m.group(1), m.group(2), int(m.group(3)), m.group(4) or "pow10"
            if width == "default":
                width = "pow10"
            if not (width in ("pow10", "cube") or _UNIFORM_RE.match(width)):
                raise DslError(lineno, col, f"unknown width profile {quote(width)}")
            if width.startswith("uniform:"):
                parse_rational(width[len("uniform:") :], lineno, col)
            if hint < 2:
                raise DslError(lineno, col, "space hint must be at least 2")
            _check_index(hint, "space hint {}", lineno, col + m.start(3))
            st = active_space = spaces[name] = SpaceDecl(name, kind, hint, width)
            what = f"space {name}"
        elif head == "loop":
            m = _LOOP_RE.match(stripped)
            if not m:
                raise DslError(lineno, col, "expected: loop <name> = <expression>")
            if active_space is None:
                raise DslError(lineno, col, "no active space: declare one with 'space' first")
            name = m.group(1)
            expr = _parse_loop_expr(m.group(2), lineno, col, loops)
            if isinstance(expr, AlphaExpr) and active_space.kind != "Y":
                raise DslError(lineno, col, "alpha.updown needs the compact space Y")
            letters, weight = loops[name] = _measure(expr, loops, _circle_prices(active_space.width))
            cost = _binding_price(expr, letters)
            st, what = LoopBinding(name, expr), f"loop {name}"
        elif head == "classify":
            m = _CLASSIFY_RE.match(stripped)
            if not m:
                raise DslError(lineno, col, "expected: classify <loop-name>")
            name = m.group(1)
            if name not in loops:
                raise DslError(lineno, col, f"unbound loop name {quote(name)}")
            st, what, cost = ClassifyStmt(name), f"classify {name}", _PRICES["classify"] * loops[name][0]
        elif head == "dist":
            m = _DIST_RE.match(stripped)
            if not m:
                raise DslError(lineno, col, "expected: dist <loop-name> <loop-name>")
            first, second = m.groups()
            for nm in (first, second):
                if nm not in loops:
                    raise DslError(lineno, col, f"unbound loop name {quote(nm)}")
            a, b = _PRICES["dist"]
            cost = sum(a * loops[nm][0] + b * loops[nm][1] for nm in (first, second))
            st, what = DistStmt(first, second), f"dist {first} {second}"
        elif head == "probe":
            m = _PROBE_RE.match(stripped)
            if not m:
                raise DslError(lineno, col, "expected: probe <kind> key=value ...")
            kind = m.group(1)
            if kind not in PROBE_SIGNATURES:
                raise DslError(
                    lineno, col, f"unknown probe {quote(kind)}; known: {', '.join(sorted(PROBE_SIGNATURES))}"
                )
            if active_space is None:
                raise DslError(lineno, col, "no active space: declare one with 'space' first")
            known = {key for key, _ in PROBE_SIGNATURES[kind]}
            raw_args = {}
            for kv in m.group(2).split():
                key, val = kv.split("=", 1)
                if key in raw_args and key in known:
                    raise DslError(lineno, col, f"probe {kind} takes {quote(key)} once")
                raw_args[key] = val
            args = []
            for key, typ in PROBE_SIGNATURES[kind]:
                optional = typ.endswith("?")
                typ = typ.rstrip("?")
                if key not in raw_args:
                    if optional:
                        continue
                    raise DslError(lineno, col, f"probe {kind} needs {key}=...")
                val = raw_args.pop(key)
                if typ == "int":
                    if not _INT_RE.match(val):
                        raise DslError(lineno, col, f"{key} must be an integer, got {quote(val)}")
                    if key in ("n_max", "up_to"):
                        _check_index(int(val), f"{key}={cut(val)}", lineno, col)
                    args.append((key, int(val)))
                elif typ == "rat":
                    args.append((key, parse_rational(val, lineno, col)))
                else:  # name
                    if val not in loops:
                        raise DslError(lineno, col, f"unbound loop name {quote(val)}")
                    args.append((key, val))
            if raw_args:
                stray = sorted(raw_args)[0]
                raise DslError(lineno, col, f"probe {kind} does not take {quote(stray)}")
            cost = _probe_price(kind, dict(args), loops, active_space.width)
            st, what = ProbeStmt(kind, tuple(args)), f"probe {kind}"
        elif head == "render":
            m = _RENDER_RE.match(stripped)
            if not m:
                raise DslError(lineno, col, "expected: render <names> -> <file>")
            names = tuple(m.group(1).split())
            for nm in names:
                if nm in spaces:
                    cost += _PRICES["draw"] * (spaces[nm].hint - 1)
                elif nm in loops:
                    cost += _PRICES["draw_letter"] * loops[nm][0]
                else:
                    raise DslError(lineno, col, f"unbound name {quote(nm)}")
            st = RenderStmt(names, m.group(2))
        else:
            raise DslError(lineno, col, f"unrecognized statement {quote(head)}")
        work = _spend(work, _PRICES["statement"] + cost, what, lineno, col)
        statements.append(st)
    return Script(tuple(statements))
