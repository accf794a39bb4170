"""The declarative script language: spaces, loop bindings, probes, renders.

One statement a line; ``#`` starts a comment. ``_TOKEN_RE`` cuts a line
into tokens, each with the whitespace before it: names (runs of \\w
characters), numbers ``n`` and ``n/d`` with an optional ``-`` (decimal
floats are rejected, so no precision is ever lost silently), points triples
``(t, x, y)`` of numbers, ``( ) [ ] , = : ->`` and any other run of
non-space characters. Whitespace may stand between any two tokens but inside
``X(``, ``Y(``, ``C(n).once``, ``word(``, ``concat(``, a ``key=value`` and
a render's file; a ``concat`` or ``points`` list may end in a comma. A
recursive descent reads each statement off its tokens, in time linear in
the line at any nesting. Names resolve eagerly: using a name before binding
it, binding a loop before any space is active, or giving a probe a key
twice, is a parse diagnostic with line and column. Each probe kind is one
entry of ``PROBES``: its parameters, its price and its run.

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
  generators ``gN``, a space's hint, a probe's ``index`` parameters and the
  one circle each ``points`` breakpoint can lie on, ``max(2, ceil(y/x))``
  for x > 0 (``spaces.candidate_circle``, which point location uses too);
- no integer literal may have more than ``MAX_LITERAL_DIGITS`` digits;
- a one-off literal (``parse_loop_literals``) nests ``concat`` at most
  ``MAX_NESTING`` levels deep, which bounds the recursion of every walk
  over its tree: the parser, the price and the evaluation;
- every statement has a price in units of work (``_PRICES``), and one script
  may spend at most ``MAX_SCRIPT_WORK`` units: the statement that passes the
  limit is refused at its line. A price is a closed form in what the parser
  knows: a loop's letters (a word's length, 1 per circle or alpha, 1 per
  ``points`` piece, the sum over a ``concat``) and its weight (the circle
  price p(n) of each letter's circle, and the digits of a ``points``
  literal), a space's hint and a probe's arguments. p(n) is the squared bit
  size of C_n's width under the space's width profile, in units of 2**16:
  the pow10 width of C_n has a 10n-digit denominator, and exact arithmetic
  on C_n costs about p(n) times more than on a small circle.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

from .exactnum import decimal_int, decimal_text, rational_text
from .pi1 import probe_discreteness_x, probe_nondiscreteness_y, probe_slsc_y
from .records import Record
from .report import MAX_REPORT_DIGITS as MAX_LITERAL_DIGITS
from .spaces import MAX_CIRCLE_INDEX, candidate_circle, hausdorff_convergence, profile_by_name, verify_disjointness
from .words import QUOTE_CHARS, Word, WordError, cut, parse_word, quote

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

# A literal past MAX_LITERAL_DIGITS is refused before any other error of its
# line, even inside a token: a second scan, of long lines only.
_LONG_LITERAL_RE = re.compile(r"(?<!\d)\d{%d,}" % (MAX_LITERAL_DIGITS + 1))


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

# A character of a word (not whitespace, ( ) [ ] , = : or the - of ->); a number
_W = r"(?:[^\s()\[\],=:-]|-(?!>))"
_N = r"-?\d+(?:/\d+)?"

# One token and the whitespace before it, as (space, text, name, t, x, y,
# number) from ``findall``; the commonest kinds come first. A name or number
# is a whole word; any other word is cut at each "-", as a repeated
# alternation would take regex memory per character.
_TOKEN_RE = re.compile(
    rf"(\s*)((\w+)(?!{_W})"
    rf"|[)\[\],=:]"
    rf"|\(\s*({_N})\s*,\s*({_N})\s*,\s*({_N})\s*\)"
    rf"|\(|({_N})(?!{_W})|->?|[^\s()\[\],=:-]+)"
)
_NAME, _TRIPLE, _NUMBER = 2, 3, 6
_END = ("",) * 7  # ends each token list, so the parser may read one token ahead
_OPEN = ("", "(") + ("",) * 5  # a "(" token, for a concat whose arguments read as a points triple
_ENDS = (("",), ("", ",", ")"))  # what may follow a loop expression at the top of a line, and in a concat
_POINTS_SHAPE = "points expects a bracketed list of (t, x, y) triples"


def _rational_pair(text: str, line: int, col: int, number=True) -> Tuple[int, int]:
    """The number ``text`` as a reduced int pair (n, d), d > 0; refused if
    it is no number (``number`` false) or has a zero denominator."""
    if not number:
        raise DslError(line, col, f"expected a rational like 3 or 1/10, got {quote(text)}")
    num, _, den = text.partition("/")
    if not den:
        return decimal_int(num), 1
    n, d = decimal_int(num), decimal_int(den)
    if d == 0:
        raise DslError(line, col, f"zero denominator in {quote(text)}")
    g = gcd(n, d)
    return n // g, d // g


def _check_literals(text: str, line: int) -> None:
    """Refuse an integer literal longer than MAX_LITERAL_DIGITS digits, at its column."""
    m = len(text) > MAX_LITERAL_DIGITS and _LONG_LITERAL_RE.search(text)
    if m:
        raise DslError(
            line, m.start() + 1, f"integer literal exceeds the limit of {MAX_LITERAL_DIGITS} digits"
        )


def _check_index(n: int, what: str, line: int, col: int) -> None:
    """Refuse a circle index above MAX_CIRCLE_INDEX. ``what`` names it, with
    ``{}`` where n goes, cut as ``cut`` cuts; the text is built on refusal
    only."""
    if n > MAX_CIRCLE_INDEX:
        raise DslError(line, col, f"{what.format(cut(decimal_text(n)))} exceeds the limit {MAX_CIRCLE_INDEX} on circle indices")


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


def _circle_prices(width: str):
    """n -> p(n) under the profile named ``width``: the squared bit size of
    C_n's width, in units of 2**16, read off the profile's width pairs,
    which it evaluates once per index. ``parse`` asks once per ``space``
    statement, and that space's bindings and probes read the answer."""
    pair = profile_by_name(width).pair

    def price(n: int) -> int:
        wn, wd = pair(n)
        return (wn.bit_length() + wd.bit_length()) ** 2 >> 16

    return price


def _measure(expr: LoopExpr, loops: dict, p) -> Tuple[int, int, int]:
    """(letters, weight, literal) of a loop expression: its letter count,
    the sum of the circle price ``p`` over its letters, and the weight of
    the ``points`` literals it holds, which its binding pays for too. A
    points piece weighs the price of its top circle, the largest under
    pow10, cube and a uniform width, plus the squared bit size of its
    longest breakpoint, in the same units (``PointsExpr.weight``). ``loops``
    maps bound names to their (letters, weight); a bound name holds no
    literal of this binding. An exponent past MAX_SCRIPT_WORK counts as
    MAX_SCRIPT_WORK letters, which alone pass the limit."""
    if isinstance(expr, WordExpr):
        counts = [(n, min(abs(e), MAX_SCRIPT_WORK)) for n, e in expr.word.syllables]
        return sum(k for _, k in counts), sum(k * p(n) for n, k in counts), 0
    if isinstance(expr, CircleExpr):
        return 1, p(expr.index), 0
    if isinstance(expr, ConcatExpr):
        parts = [(*loops[a], 0) if isinstance(a, str) else _measure(a, loops, p) for a in expr.args]
        return sum(q[0] for q in parts), sum(q[1] for q in parts), sum(q[2] for q in parts)
    if isinstance(expr, PointsExpr):
        pieces = len(expr._ts) - 1
        return pieces, pieces * (p(expr.top) if expr.top else 0) + expr.weight, expr.weight
    return 1, 0, 0


def _per_circle(key: str, top: int, p, pairs: bool) -> int:
    """``_PRICES[key]`` = (a, b) as a + b * p(n) per circle n <= top, or per pair on its larger n."""
    a, b = _PRICES[key]
    return sum((n - 2 if pairs else 1) * (a + b * p(n)) for n in range(2, top + 1))


def _discreteness_price(args: dict, loops: dict, p) -> int:
    """The stability radius of the loop, then its trials."""
    letters, weight = loops[args["loop"]]
    (a, b), (c, d) = _PRICES["radius"], _PRICES["trial_letter"]
    trial = _PRICES["trial"] + letters * (c + _bits(args["magnitude"]) // 4) + d * weight
    return a * letters + b * weight + min(max(args["trials"], 0), MAX_SCRIPT_WORK) * trial


# One entry per probe kind: its (name, type) parameters in order, of type "int",
# "rat", "name" (a bound loop) or "index" (an int capped by MAX_CIRCLE_INDEX),
# "?" if optional; its price(args, loops, p) from the bound loops' (letters,
# weight) and circle price p, a count past MAX_SCRIPT_WORK priced as that
# limit; and its run(space, loops, **args) on the active space and Loops.
PROBES = {
    "disjointness": (
        (("up_to", "index"),),
        lambda a, loops, p: _per_circle("pair", a["up_to"], p, True),
        lambda space, loops, up_to: verify_disjointness(space, up_to),
    ),
    "hausdorff": (
        (("up_to", "index"),),
        lambda a, loops, p: _per_circle("hausdorff", a["up_to"], p, False),
        lambda space, loops, up_to: hausdorff_convergence(space, up_to),
    ),
    "nondiscreteness": (
        (("n_max", "index"), ("epsilon", "rat")),
        lambda a, loops, p: _per_circle("nondiscreteness", a["n_max"], p, False),
        lambda space, loops, n_max, epsilon: probe_nondiscreteness_y(n_max, epsilon, space),
    ),
    "discreteness": (
        (("loop", "name"), ("trials", "int"), ("magnitude", "rat"), ("seed", "int?")),
        _discreteness_price,
        lambda space, loops, loop, trials, magnitude, seed=0: probe_discreteness_x(
            loops[loop], trials, magnitude, seed
        ),
    ),
    "slsc": (
        (("radius", "rat"), ("samples", "int"), ("seed", "int?")),
        lambda a, loops, p: min(max(a["samples"], 0), MAX_SCRIPT_WORK) * (_PRICES["sample"] + _bits(a["radius"])),
        lambda space, loops, radius, samples, seed=0: probe_slsc_y(radius, samples, seed, space),
    ),
}


def _text(toks: list, i: int, j: int) -> str:
    """The source text of toks[i:j], from the first token on."""
    return "".join([t[0] + t[1] for t in toks[i:j]])[len(toks[i][0]) :]


def _number(t: tuple) -> str:
    """The number the token ``t`` spells, or ""."""
    return t[_NUMBER] or (t[_NAME] if t[_NAME].isdecimal() else "")


def _glued(toks: list, j: int) -> int:
    """The index past the tokens from toks[j] on with no whitespace between them."""
    j += 1
    while toks[j][1] and not toks[j][0]:
        j += 1
    return j


def _tight(toks: list, i: int, j: int) -> bool:
    """Whether no whitespace stands between the tokens toks[i:j]."""
    return j <= i + 1 or _glued(toks, i) >= j


def _run_end(toks: list, j: int, close: str) -> int:
    """Where the concat argument (``close`` ")") or points element ("]")
    from toks[j] on ends: at ``close`` or a comma with nothing open. In a
    concat "(" and "[" open and ")" and "]" close; in a points list only
    parentheses do, and a closer with nothing open is part of the run. A
    run that reaches the end of the line, as one left open does, ends
    before a last ``close``, which then ends the concat or list."""
    opens, shuts = ("(", ")") if close == "]" else ("([", ")]")
    depth = 0
    for k in range(j, len(toks) - 1):
        s = toks[k][1]
        if not depth and (s == close or s == ","):
            return k
        if s in opens:
            depth += 1
        elif depth and s in shuts:
            depth -= 1
    k = len(toks) - 1
    return k - 1 if toks[k - 1][1] == close else k


def _closed(toks: list, j: int, line: int, col: int, depth: int, what: str) -> int:
    """The index past toks[j], the ")" or "]" that ends ``what``, which
    must be followed by the end of the line at the top of a line, and by a
    comma or ")" in a concat; otherwise what follows is refused."""
    if toks[j + 1][1] not in _ENDS[depth > 0]:
        end = _run_end(toks, j + 1, ")") if depth else len(toks) - 1
        raise DslError(line, col, f"unexpected {quote(_text(toks, j + 1, end))} after {what}")
    return j + 1


def _expr(toks: list, i: int, line: int, col: int, loops: Optional[dict], depth: int) -> Tuple[LoopExpr, int]:
    """The loop expression at toks[i], inside ``depth`` concats, and the
    index past it. Concat arguments are bound names in script mode (``loops``
    the bound names), and expressions nested at most MAX_NESTING deep in CLI
    literal mode (``loops=None``)."""
    s = toks[i][1]
    if s.startswith("points"):
        return _points(toks, i, line, col, depth)
    if s == "concat" and toks[i + 1][1][:1] == "(" and not toks[i + 1][0]:
        return _concat(toks, i, line, col, loops, depth)
    end = _run_end(toks, i, ")") if depth else len(toks) - 1
    if s == "alpha.updown" and end == i + 1:
        return AlphaExpr(), end
    if s == "C" and end == i + 5:
        _, lparen, num, rparen, suffix = toks[i:end]
        index = _number(num)
        # C(n).once or C(n).inv, with whitespace only around n
        shaped = lparen[1] == "(" and rparen[1] == ")" and suffix[1] in (".once", ".inv")
        if shaped and not (lparen[0] or suffix[0]) and index and "/" not in index:
            idx = decimal_int(index)
            if idx < 2:
                raise DslError(line, col, f"circle index must be >= 2, got C({cut(str(idx))})")
            _check_index(idx, "C({})", line, col)
            return CircleExpr(idx, suffix[1] == ".inv"), end
    text = _text(toks, i, end)
    if text.startswith("word(") and text.endswith(")"):
        return _word_expr(text[5:-1], line, col), end
    if s == "word" and (end == i + 1 or toks[i + 1][0]):
        return _word_expr(text[4:], line, col), end
    raise DslError(line, col, f"unrecognized loop expression {quote(text)}")


def _concat(
    toks: list, i: int, line: int, col: int, loops: Optional[dict], depth: int
) -> Tuple[ConcatExpr, int]:
    """The concat at toks[i]; see ``_expr``."""
    if depth == MAX_NESTING:
        raise DslError(line, col, f"concat nesting exceeds the limit of {MAX_NESTING} levels")
    if toks[i + 1][_TRIPLE]:  # concat(1, 2, 3): its arguments spell a points triple; read them one by one
        toks[i + 1 : i + 2] = [_OPEN] + _TOKEN_RE.findall(toks[i + 1][1][1:])
    args, bad, j = [], "", i + 2
    while toks[j][1] not in (")", ""):
        if loops is None:
            arg, j = _expr(toks, j, line, col, None, depth + 1)
        else:  # a bound name; the first that is not is refused once the concat has ended
            k, j = j, _run_end(toks, j, ")")
            arg = toks[k][_NAME] if j == k + 1 else ""
            if not bad and arg not in loops:
                got = quote(_text(toks, k, j))
                bad = f"unbound loop name {got}" if arg else f"concat arguments must be loop names, got {got}"
        args.append(arg)
        if toks[j][1] == ",":
            j += 1
    if not toks[j][1]:
        raise DslError(line, col, f"unrecognized loop expression {quote(_text(toks, i, j))}")
    j = _closed(toks, j, line, col, depth, "the concat")
    if not args:
        raise DslError(line, col, "concat needs at least one argument")
    if bad:
        raise DslError(line, col, bad)
    return ConcatExpr(tuple(args)), j


def _points(toks: list, i: int, line: int, col: int, depth: int) -> Tuple[PointsExpr, int]:
    """The points literal at toks[i]: its elements, each one triple token
    followed by a comma or "]", in turn."""
    if toks[i][1] != "points" or toks[i + 1][1] != "[":
        raise DslError(line, col, _POINTS_SHAPE)
    ts, quads, top, j = [], [], 0, i + 2
    while toks[j][1] != "]":
        tok = toks[j]
        if not (tok[_TRIPLE] and toks[j + 1][1] in (",", "]")):
            _bad_triple(toks, j, line, col)
        j += 2 if toks[j + 1][1] == "," else 1
        t = _rational_pair(tok[3], line, col)
        xn, xd = _rational_pair(tok[4], line, col)
        yn, yd = _rational_pair(tok[5], line, col)
        q = (xn, xd, yn, yd)
        if xn > 0:
            n = candidate_circle(q)
            if n > MAX_CIRCLE_INDEX:
                # an index longer than a quote is not named
                circle = f"C({n})" if n < 10**QUOTE_CHARS else "a circle"
                x, y = rational_text(Fraction(xn, xd)), rational_text(Fraction(yn, yd))
                raise DslError(
                    line,
                    col,
                    f"breakpoint {cut(f'({x}, {y})')} can only lie on {circle}, which exceeds "
                    f"the limit {MAX_CIRCLE_INDEX} on circle indices",
                )
            top = max(top, n)
        ts.append(t)
        quads.append(q)
    j = _closed(toks, j, line, col, depth, "the points list")
    if len(ts) < 2:
        raise DslError(line, col, "points needs at least two (t, x, y) triples")
    return PointsExpr(tuple(ts), tuple(quads), top), j


def _bad_triple(toks: list, j: int, line: int, col: int) -> None:
    """Refuse the points element at toks[j], which is not one triple token
    followed by a comma or "]": quoting the element, or its first field that
    is no number if it is three one-word fields in parentheses; or as a list
    that is never closed."""
    end = _run_end(toks, j, "]")
    if not toks[end][1]:
        raise DslError(line, col, _POINTS_SHAPE)
    text = _text(toks, j, end)
    fields = text[1:-1].split(",") if text[:1] == "(" and text[-1:] == ")" else ()
    if len(fields) == 3 and all(len(f.split()) == 1 for f in fields):
        for f in map(str.strip, fields):
            m = _TOKEN_RE.fullmatch(f)
            _rational_pair(f, line, col, m and _number(m.groups("")))
    raise DslError(line, col, f"bad points triple {quote(text)}")


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


def _loop_literal(text: str) -> LoopExpr:
    """The loop literal ``text`` (CLI form), unpriced."""
    _check_literals(text, 1)
    return _expr(_TOKEN_RE.findall(text.rstrip()) + [_END], 0, 1, 1, None, 0)[0]


def parse_loop_literals(texts: Tuple[str, ...]) -> Tuple[LoopExpr, ...]:
    """One-off loop literals (CLI form, concat arguments may nest) and the
    statement that reads them: one literal is classified, two are measured
    against each other. They are priced as a script's bindings followed by
    its ``classify`` or ``dist``, from a fresh total, in pow10."""
    p = _circle_prices("pow10")
    a, b = _PRICES["letter"]
    exprs, sizes, work = [], [], 0
    for text in texts:
        exprs.append(_loop_literal(text))
        letters, weight, literal = _measure(exprs[-1], {}, p)
        sizes.append((letters, weight))
        work = _spend(work, _PRICES["statement"] + a * letters + b * literal, "the loop literal", 1, 1)
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
    price = None  # the active space's circle price
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        _check_literals(line, lineno)
        toks = _TOKEN_RE.findall(line)
        if not toks:
            continue
        n, col = len(toks), len(toks[0][0]) + 1
        toks.append(_END)
        # the head is the statement's first word, spaced from what follows
        head = toks[0][1] if n == 1 or toks[1][0] else ""
        what, cost = head, 0
        if head == "space":
            # whitespace may stand around "=" and the hint, must before "width", and nowhere else
            width_arg = n > 9 and toks[7][0] and toks[7][1] == "width" and toks[8][1] == "=" and _tight(toks, 7, n)
            if not (
                n >= 7 and toks[1][_NAME] and toks[2][1] == "=" and toks[3][1] in ("X", "Y") and toks[4][1] == "("
                and _tight(toks, 3, 5) and toks[5][1].isdecimal() and toks[6][1] == ")" and (n == 7 or width_arg)
            ):
                raise DslError(lineno, col, "expected: space <name> = X(<hint>)|Y(<hint>) [width=default|pow10|cube|uniform:<q>]")
            name, kind, hint = toks[1][_NAME], toks[3][1], decimal_int(toks[5][1])
            width = _text(toks, 9, n) if n > 7 else "default"
            width = "pow10" if width == "default" else width
            if width not in ("pow10", "cube"):
                if not (n == 12 and toks[9][1] == "uniform" and toks[10][1] == ":" and _number(toks[11])):
                    raise DslError(lineno, col, f"unknown width profile {quote(width)}")
                _rational_pair(toks[11][1], lineno, col)
            if hint < 2:
                raise DslError(lineno, col, "space hint must be at least 2")
            if hint > MAX_CIRCLE_INDEX:  # refused at the column of the hint
                _check_index(hint, "space hint {}", lineno, col + len(_text(toks, 0, 5)) + len(toks[5][0]))
            st = active_space = spaces[name] = SpaceDecl(name, kind, hint, width)
            price = _circle_prices(width)
            what = f"space {name}"
        elif head == "loop":
            name = toks[1][_NAME]
            if not (n > 3 and name and toks[2][1] == "="):
                raise DslError(lineno, col, "expected: loop <name> = <expression>")
            if active_space is None:
                raise DslError(lineno, col, "no active space: declare one with 'space' first")
            expr = _expr(toks, 3, lineno, col, loops, 0)[0]
            if isinstance(expr, AlphaExpr) and active_space.kind != "Y":
                raise DslError(lineno, col, "alpha.updown needs the compact space Y")
            letters, weight, literal = _measure(expr, loops, price)
            loops[name] = (letters, weight)
            a, b = _PRICES["letter"]
            cost = a * letters + b * literal
            st, what = LoopBinding(name, expr), f"loop {name}"
        elif head == "classify":
            name = toks[1][_NAME]
            if n != 2 or not name:
                raise DslError(lineno, col, "expected: classify <loop-name>")
            if name not in loops:
                raise DslError(lineno, col, f"unbound loop name {quote(name)}")
            st, what, cost = ClassifyStmt(name), f"classify {name}", _PRICES["classify"] * loops[name][0]
        elif head == "dist":
            names = (toks[1][_NAME], toks[2][_NAME]) if n == 3 else ("",)
            if not all(names):
                raise DslError(lineno, col, "expected: dist <loop-name> <loop-name>")
            for nm in names:
                if nm not in loops:
                    raise DslError(lineno, col, f"unbound loop name {quote(nm)}")
            a, b = _PRICES["dist"]
            cost = sum(a * loops[nm][0] + b * loops[nm][1] for nm in names)
            st, what = DistStmt(*names), "dist " + " ".join(names)
        elif head == "probe":
            # key=value arguments, with no whitespace in them
            kind, pairs, j = toks[1][_NAME], [], 2
            valid = bool(kind) and (n == 2 or bool(toks[2][0]))
            while valid and j < n:
                k = _glued(toks, j)
                valid = bool(toks[j][_NAME]) and toks[j + 1][1] == "=" and k > j + 2
                pairs.append((toks[j][_NAME], j + 2, k))
                j = k
            if not valid:
                raise DslError(lineno, col, "expected: probe <kind> key=value ...")
            if kind not in PROBES:
                raise DslError(lineno, col, f"unknown probe {quote(kind)}; known: {', '.join(sorted(PROBES))}")
            if active_space is None:
                raise DslError(lineno, col, "no active space: declare one with 'space' first")
            params, price_of, _ = PROBES[kind]
            known, raw_args = {key for key, _ in params}, {}
            for key, a, b in pairs:
                if key in raw_args and key in known:
                    raise DslError(lineno, col, f"probe {kind} takes {quote(key)} once")
                raw_args[key] = (a, b)
            args = {}
            for key, typ in params:
                if key not in raw_args:
                    if typ.endswith("?"):
                        continue
                    raise DslError(lineno, col, f"probe {kind} needs {key}=...")
                a, b = raw_args.pop(key)
                val, number = _text(toks, a, b), _number(toks[a]) if b == a + 1 else ""
                typ = typ.rstrip("?")
                if typ in ("int", "index"):
                    if not number or "/" in number:
                        raise DslError(lineno, col, f"{key} must be an integer, got {quote(val)}")
                    args[key] = decimal_int(val)
                    if typ == "index":
                        _check_index(args[key], f"{key}={cut(val)}", lineno, col)
                elif typ == "rat":
                    args[key] = Fraction(*_rational_pair(val, lineno, col, number))
                else:  # name
                    if val not in loops:
                        raise DslError(lineno, col, f"unbound loop name {quote(val)}")
                    args[key] = val
            if raw_args:
                raise DslError(lineno, col, f"probe {kind} does not take {quote(min(raw_args))}")
            cost = price_of(args, loops, price)
            st, what = ProbeStmt(kind, tuple(args.items())), f"probe {kind}"
        elif head == "render":
            k = next(k for k in range(1, n + 1) if not toks[k][_NAME])
            if not (k > 1 and toks[k][1] == "->" and k + 1 < n and _tight(toks, k + 1, n)):
                raise DslError(lineno, col, "expected: render <names> -> <file>")
            names = tuple(t[_NAME] for t in toks[1:k])
            for nm in names:
                if nm in spaces:
                    cost += _PRICES["draw"] * (spaces[nm].hint - 1)
                elif nm in loops:
                    cost += _PRICES["draw_letter"] * loops[nm][0]
                else:
                    raise DslError(lineno, col, f"unbound name {quote(nm)}")
            st = RenderStmt(names, _text(toks, k + 1, n))
        else:
            raise DslError(lineno, col, f"unrecognized statement {quote(line.split(None, 1)[0])}")
        work = _spend(work, _PRICES["statement"] + cost, what, lineno, col)
        statements.append(st)
    return Script(tuple(statements))
