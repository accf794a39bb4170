"""The declarative script language: spaces, loop bindings, probes, renders.

Line-oriented; ``#`` starts a comment. Rational literals are ``num`` or
``num/den`` — decimal floats are rejected so no precision is ever lost
silently. The parser resolves names eagerly: using a name before binding
it, or binding a loop before any space is active, is a parse diagnostic
with line and column.

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

Input budgets are checked when the script is parsed, so a script over one
fails at once with a parse error instead of running for seconds to hours:

- circle indices are capped at ``MAX_CIRCLE_INDEX``: ``C(n)``, word
  generators ``gN``, a space's hint, ``n_max`` and ``up_to``, and the one
  circle each ``points`` breakpoint can lie on, ``max(2, ceil(y/x))`` for
  x > 0 (``spaces.candidate_circle``, which point location uses too). The default pow10 width of C_n has a 10n-digit denominator, so
  the cost of a single circle grows with its index;
- ``probe disjointness`` intersects every pair of circles exactly, so its
  ``up_to`` is capped lower, at ``MAX_PAIRWISE_UP_TO``;
- no integer literal may have more than ``MAX_LITERAL_DIGITS`` digits;
- no word literal or ``concat`` may have more than ``MAX_WORD_LETTERS``
  letters. The parser records a letter count for each bound loop: a
  word's length, and 1 per circle, alpha or ``points`` piece;
- one script may spend at most ``MAX_SCRIPT_LETTERS`` letters in all: each
  binding adds its letter count (a rebinding counts again), each
  ``classify`` its loop's and each ``dist`` both loops';
- ``probe discreteness`` runs at most ``MAX_TRIALS`` trials and ``probe
  slsc`` at most ``MAX_SAMPLES`` samples;
- ``probe discreteness`` runs at most ``MAX_TRIAL_LETTERS`` letter-trials:
  its ``trials`` times the letter count of its loop;
- ``probe discreteness`` first computes its loop's stability radius, at
  most ``MAX_RADIUS_WORK`` units of work: the pairs of circles the loop
  touches times the square of the largest index. The parser records the
  circles each bound loop can touch: a word's generators, ``C(n)``'s n,
  the candidate circle of each ``points`` breakpoint with x > 0, and the
  union over a ``concat``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import FrozenSet, Optional, Tuple, Union

from .records import Record
from .spaces import candidate_circle
from .words import Word, WordError, format_word, parse_word


# Largest circle index a script may reach. Under pow10, a points loop on
# C_1000 classifies in about 0.01 s, on C_10000 in 0.25 s and on C_40000 in
# 2.2 s (pure-Python kernels, Python 3.11, one core of a 2-vCPU VM).
MAX_CIRCLE_INDEX = 1000

# Largest up_to of the pairwise disjointness probe, which intersects every
# pair of circles 2..up_to exactly. On a fresh pow10 compact_y,
# verify_disjointness took 1.5 s to 60, 6.7 s to 100, 35.7 s to 150 and
# 117.7 s to 200 (pure-Python kernels, Python 3.11, one core of a 2-vCPU VM).
MAX_PAIRWISE_UP_TO = 100

# Longest integer literal a script may hold: Python's default limit for
# converting a decimal string to an int.
MAX_LITERAL_DIGITS = 4300

# Most letters (the sum of |exponent| over the reduced word) a word literal
# or a concat may have; realizing and classifying a word costs time linear
# in it.
MAX_WORD_LETTERS = 10000

# Most letters one script may spend in all: each binding's letters, and the
# letters of the loops each classify and dist reads. Building or reading a
# loop takes time linear in its letters, and MAX_WORD_LETTERS bounds only one
# binding, so before this budget a script's work grew with its line count.
# `pi1lab run` on 40,000 letters took 0.25 s as words of 10,000 letters,
# 0.75 s as one-letter C(2).once lines, and 1.3 s and 1.8 s as points pieces
# through the apex of C_2 and of C_1000, the costliest letters (fresh
# process, pure-Python kernels, Python 3.11, one core of a 2-vCPU VM).
# Before, 50 lines of 10,000-letter words took 1.7 s, and 500 lines of a
# 10,000-letter concat 12 s, and 200 lines of classify a on a 10,000-letter
# word 1.3-1.6 s. The documented scripts spend under 100 letters.
MAX_SCRIPT_LETTERS = 40000

# Most trials of probe discreteness and samples of probe slsc, whose time
# is linear in the count. A trial of the loop C(2).once took 0.28 ms of CPU,
# one of a 10-letter word loop 1.1 ms and an slsc sample 0.53 ms, so 10,000
# take about 3, 11 and 5 s (pure-Python kernels, Python 3.11, one core of a
# 2-vCPU VM). 100,000 of either ran past 30 s.
MAX_TRIALS = 10000
MAX_SAMPLES = 10000

# Most letter-trials of probe discreteness: its trials times the letter
# count of its loop. A trial perturbs, measures and reclassifies the whole
# loop, so its time is linear in the letters, and MAX_TRIALS alone let a
# 10,000-letter word run 10,000 trials (about 40 minutes). A letter-trial of
# g2^1000 or g2^10000 under pow10 took 12-21 us of CPU, and the probe on
# g2^10000 at 10 trials 1.6 s (pure-Python kernels, Python 3.11, one core of
# a 2-vCPU VM). The documented scripts run 100.
MAX_TRIAL_LETTERS = 100000

# Most units of stability-radius work of probe discreteness: the pairs of
# distinct circles its loop touches times the square of the largest index.
# The radius takes 9 exact segment distances per pair, before the magnitude
# is checked, on operands whose digits grow with the index. A unit took
# 3-6 us of CPU under pow10: g2 ... g21 (84k units) 0.4 s, g40 ... g55 (363k)
# 2.1 s, g999 g1000 (1M) 3.1 s (pure-Python kernels, Python 3.11, one core
# of a 2-vCPU VM). The demo's loops need at most 25 units (g2^2 g5^-1), and
# the documented scripts none.
MAX_RADIUS_WORK = 350000

# Longest script, in bytes, that `pi1lab run` and `pi1lab render` read; a
# longer one is refused before it is parsed. MAX_SCRIPT_LETTERS counts a
# points piece as one letter whatever its digits: points pieces cost 0.29 s
# per MB through the tail of C_100 and 0.36 s per MB with 4,300-digit
# coordinates on C_2, so a script at the cap ran 1.1-1.4 s, and 10 lines of
# 4,000 pieces through C_100 (80 MB) ran 23 s (fresh process, pure-Python
# kernels, Python 3.11, one core of a 2-vCPU VM).
MAX_SCRIPT_BYTES = 4000000

# Count parameters bounded above, checked before any name on the line is
# resolved.
_COUNT_BUDGETS = (("trials", MAX_TRIALS), ("samples", MAX_SAMPLES))

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
    """Equality, hashing and the repr read ``triples`` only."""

    __slots__ = ("triples", "circles")
    _fields = ("triples",)

    def __init__(
        self,
        triples: Tuple[Tuple[Fraction, Fraction, Fraction], ...],
        circles: FrozenSet[int] = frozenset(),
    ):
        self.triples = triples
        # the candidate circle of each breakpoint with x > 0, found by the parser
        self.circles = circles


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
    if not _RAT_RE.match(text):
        raise DslError(line, col, f"expected a rational like 3 or 1/10, got {text!r}")
    return Fraction(text)


def _check_literals(text: str, line: int) -> None:
    """Refuse an integer literal longer than MAX_LITERAL_DIGITS digits, at its column."""
    m = _LONG_LITERAL_RE.search(text)
    if m:
        raise DslError(
            line, m.start() + 1, f"integer literal exceeds the limit of {MAX_LITERAL_DIGITS} digits"
        )


def _check_index(n: int, what: str, line: int, col: int) -> None:
    """Refuse a circle index above MAX_CIRCLE_INDEX; ``what`` names it."""
    if n > MAX_CIRCLE_INDEX:
        raise DslError(line, col, f"{what} exceeds the limit {MAX_CIRCLE_INDEX} on circle indices")


def _check_trial_letters(args: dict, loops: dict, line_text: str, line: int, col: int) -> None:
    """Refuse a discreteness probe whose trials times its loop's letters
    exceed MAX_TRIAL_LETTERS, at the column of the trials value."""
    trials, letters = args["trials"], loops[args["loop"]]
    if trials * letters > MAX_TRIAL_LETTERS:
        at = list(re.finditer(r"\strials=", line_text))[-1].end()
        raise DslError(
            line,
            col + at,
            f"trials={trials} times the {letters} letters of loop {args['loop']} "
            f"exceeds the limit of {MAX_TRIAL_LETTERS} letter-trials",
        )


def _check_radius_work(args: dict, touched: dict, line_text: str, line: int, col: int) -> None:
    """Refuse a discreteness probe whose loop's stability radius would
    exceed MAX_RADIUS_WORK units, at the column of the loop value."""
    circles = touched[args["loop"]]
    k = len(circles)
    if k < 2:
        return
    top = max(circles)
    pairs = k * (k - 1) // 2
    if pairs * top * top > MAX_RADIUS_WORK:
        at = list(re.finditer(r"\sloop=", line_text))[-1].end()
        raise DslError(
            line,
            col + at,
            f"the stability radius of loop {args['loop']}, through {k} circles up to C({top}), "
            f"needs {pairs * top * top} units of work (pairs of circles times {top}^2), "
            f"which exceeds the limit of {MAX_RADIUS_WORK}",
        )


def _spend_letters(total: int, letters: int, what: str, line: int, col: int) -> int:
    """The script's letter total once the statement ``what`` adds
    ``letters``; refused at its line and column past MAX_SCRIPT_LETTERS."""
    total += letters
    if total > MAX_SCRIPT_LETTERS:
        raise DslError(
            line,
            col,
            f"{what} brings the script to {total} letters, "
            f"which exceeds the limit of {MAX_SCRIPT_LETTERS} letters per script",
        )
    return total


def _circles(expr: LoopExpr, touched: dict) -> frozenset:
    """The circle indices a loop expression can touch, the set
    MAX_RADIUS_WORK is measured on; ``touched`` maps bound names to theirs."""
    if isinstance(expr, WordExpr):
        return frozenset(n for n, _ in expr.word.syllables)
    if isinstance(expr, CircleExpr):
        return frozenset((expr.index,))
    if isinstance(expr, ConcatExpr):
        return frozenset().union(*(touched[a] for a in expr.args))
    if isinstance(expr, PointsExpr):
        return expr.circles
    return frozenset()


def _letters(expr: LoopExpr, known_loops: Optional[dict]) -> int:
    """Letter count of a loop expression, the measure MAX_WORD_LETTERS bounds."""
    if isinstance(expr, WordExpr):
        return len(expr.word)
    if isinstance(expr, ConcatExpr):
        return sum(known_loops[a] if isinstance(a, str) else _letters(a, known_loops) for a in expr.args)
    if isinstance(expr, PointsExpr):
        return len(expr.triples) - 1
    return 1


def _parse_loop_expr(text: str, line: int, col: int, known_loops: Optional[dict]) -> LoopExpr:
    """Loop expression parser.

    With ``known_loops`` given (script mode, bound name -> letter count)
    concat arguments must be bound names; with ``known_loops=None`` (CLI
    literal mode) concat arguments are themselves expressions.
    """
    text = text.strip()
    if text == "alpha.updown":
        return AlphaExpr()
    m = re.match(r"^C\(\s*(-?\d+)\s*\)\.(once|inv)$", text)
    if m:
        idx = int(m.group(1))
        if idx < 2:
            raise DslError(line, col, f"circle index must be >= 2, got C({idx})")
        _check_index(idx, f"C({idx})", line, col)
        return CircleExpr(idx, m.group(2) == "inv")
    if text.startswith("concat(") and text.endswith(")"):
        inner = text[len("concat(") : -1]
        parts = _split_top_level(inner)
        if not parts:
            raise DslError(line, col, "concat needs at least one argument")
        args = []
        for part in parts:
            part = part.strip()
            if known_loops is not None:
                if not re.match(r"^\w+$", part):
                    raise DslError(line, col, f"concat arguments must be loop names, got {part!r}")
                if part not in known_loops:
                    raise DslError(line, col, f"unbound loop name {part!r}")
                args.append(part)
            else:
                args.append(_parse_loop_expr(part, line, col, None))
        expr = ConcatExpr(tuple(args))
        if _letters(expr, known_loops) > MAX_WORD_LETTERS:
            raise DslError(line, col, f"concat exceeds the limit of {MAX_WORD_LETTERS} letters")
        return expr
    if text.startswith("word(") and text.endswith(")"):
        return _word_expr(text[len("word(") : -1], line, col)
    if text.startswith("word ") or text == "word":
        return _word_expr(text[4:], line, col)
    if text.startswith("points"):
        body = text[len("points") :].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise DslError(line, col, "points expects a bracketed list of (t, x, y) triples")
        triples, circles = [], set()
        inner = body[1:-1].strip()
        if inner:
            for part in _split_top_level(inner):
                part = part.strip()
                m = re.match(r"^\(\s*([^\s,]+)\s*,\s*([^\s,]+)\s*,\s*([^\s,]+)\s*\)$", part)
                if not m:
                    raise DslError(line, col, f"bad points triple {part!r}")
                t, x, y = (parse_rational(m.group(i), line, col) for i in (1, 2, 3))
                if x > 0:
                    n = candidate_circle((x.numerator, x.denominator, y.numerator, y.denominator))
                    # y/x of two literals can pass the digit limit of str()
                    circle = f"C({n})" if n.bit_length() < 10000 else "a circle"
                    _check_index(n, f"breakpoint ({x}, {y}) can only lie on {circle}, which", line, col)
                    circles.add(n)
                triples.append((t, x, y))
        if len(triples) < 2:
            raise DslError(line, col, "points needs at least two (t, x, y) triples")
        return PointsExpr(tuple(triples), frozenset(circles))
    raise DslError(line, col, f"unrecognized loop expression {text!r}")


def _word_expr(body: str, line: int, col: int) -> WordExpr:
    try:
        word = parse_word(body)
    except WordError as exc:
        msg = str(exc)
        if "index must be" in msg:
            msg = msg.replace("generator index", "circle index")
        raise DslError(line, col, msg) from None
    for n, _ in word.syllables:
        _check_index(n, f"g{n}", line, col)
    if len(word) > MAX_WORD_LETTERS:
        raise DslError(line, col, f"word exceeds the limit of {MAX_WORD_LETTERS} letters")
    return WordExpr(word)


def _split_top_level(text: str):
    """Split on commas not nested in parentheses or brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_loop_literal(text: str) -> LoopExpr:
    """One-off loop literal (CLI form); concat arguments may nest."""
    _check_literals(text, 1)
    return _parse_loop_expr(text, 1, 1, None)


def parse(text: str) -> Script:
    statements = []
    spaces: set = set()
    loops: dict = {}  # bound loop name -> letter count
    touched: dict = {}  # bound loop name -> the circle indices it can touch
    script_letters = 0  # the letters of every binding, classify and dist so far
    active_space: Optional[SpaceDecl] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        _check_literals(line, lineno)
        col = len(line) - len(line.lstrip()) + 1
        stripped = line.strip()
        head = stripped.split(None, 1)[0]
        if head == "space":
            m = re.match(r"^space\s+(\w+)\s*=\s*([XY])\(\s*(\d+)\s*\)(?:\s+width=(\S+))?$", stripped)
            if not m:
                raise DslError(lineno, col, "expected: space <name> = X(<hint>)|Y(<hint>) [width=default|pow10|cube|uniform:<q>]")
            name, kind, hint, width = m.group(1), m.group(2), int(m.group(3)), m.group(4) or "pow10"
            if width == "default":
                width = "pow10"
            if not (width in ("pow10", "cube") or re.match(r"^uniform:-?\d+(/\d+)?$", width)):
                raise DslError(lineno, col, f"unknown width profile {width!r}")
            if hint < 2:
                raise DslError(lineno, col, "space hint must be at least 2")
            _check_index(hint, f"space hint {hint}", lineno, col + m.start(3))
            decl = SpaceDecl(name, kind, hint, width)
            statements.append(decl)
            spaces.add(name)
            active_space = decl
        elif head == "loop":
            m = re.match(r"^loop\s+(\w+)\s*=\s*(.+)$", stripped)
            if not m:
                raise DslError(lineno, col, "expected: loop <name> = <expression>")
            if active_space is None:
                raise DslError(lineno, col, "no active space: declare one with 'space' first")
            name = m.group(1)
            expr = _parse_loop_expr(m.group(2), lineno, col, loops)
            if isinstance(expr, AlphaExpr) and active_space.kind != "Y":
                raise DslError(lineno, col, "alpha.updown needs the compact space Y")
            loops[name] = _letters(expr, loops)
            script_letters = _spend_letters(script_letters, loops[name], f"loop {name}", lineno, col)
            statements.append(LoopBinding(name, expr))
            touched[name] = _circles(expr, touched)
        elif head == "classify":
            m = re.match(r"^classify\s+(\w+)$", stripped)
            if not m:
                raise DslError(lineno, col, "expected: classify <loop-name>")
            name = m.group(1)
            if name not in loops:
                raise DslError(lineno, col, f"unbound loop name {name!r}")
            script_letters = _spend_letters(script_letters, loops[name], f"classify {name}", lineno, col)
            statements.append(ClassifyStmt(name))
        elif head == "dist":
            m = re.match(r"^dist\s+(\w+)\s+(\w+)$", stripped)
            if not m:
                raise DslError(lineno, col, "expected: dist <loop-name> <loop-name>")
            first, second = m.groups()
            for nm in (first, second):
                if nm not in loops:
                    raise DslError(lineno, col, f"unbound loop name {nm!r}")
            script_letters = _spend_letters(
                script_letters, loops[first] + loops[second], f"dist {first} {second}", lineno, col
            )
            statements.append(DistStmt(first, second))
        elif head == "probe":
            m = re.match(r"^probe\s+(\w+)((?:\s+\w+=\S+)*)$", stripped)
            if not m:
                raise DslError(lineno, col, "expected: probe <kind> key=value ...")
            kind = m.group(1)
            if kind not in PROBE_SIGNATURES:
                raise DslError(
                    lineno, col, f"unknown probe {kind!r}; known: {', '.join(sorted(PROBE_SIGNATURES))}"
                )
            if active_space is None:
                raise DslError(lineno, col, "no active space: declare one with 'space' first")
            raw_args = dict(
                kv.split("=", 1) for kv in m.group(2).split() if kv
            )
            for key, limit in _COUNT_BUDGETS:
                val = raw_args.get(key, "")
                if re.fullmatch(r"[0-9]+", val) and int(val) > limit:
                    at = list(re.finditer(rf"\s{key}=", stripped))[-1].end()
                    raise DslError(lineno, col + at, f"{key}={val} exceeds the limit {limit}")
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
                    if not re.match(r"^-?\d+$", val):
                        raise DslError(lineno, col, f"{key} must be an integer, got {val!r}")
                    if key in ("n_max", "up_to"):
                        _check_index(int(val), f"{key}={val}", lineno, col)
                    if kind == "disjointness" and int(val) > MAX_PAIRWISE_UP_TO:
                        raise DslError(
                            lineno, col, f"up_to={val} exceeds the limit {MAX_PAIRWISE_UP_TO} of the pairwise check"
                        )
                    args.append((key, int(val)))
                elif typ == "rat":
                    args.append((key, parse_rational(val, lineno, col)))
                else:  # name
                    if val not in loops:
                        raise DslError(lineno, col, f"unbound loop name {val!r}")
                    args.append((key, val))
            if raw_args:
                stray = sorted(raw_args)[0]
                raise DslError(lineno, col, f"probe {kind} does not take {stray!r}")
            if kind == "discreteness":
                _check_trial_letters(dict(args), loops, stripped, lineno, col)
                _check_radius_work(dict(args), touched, stripped, lineno, col)
            statements.append(ProbeStmt(kind, tuple(args)))
        elif head == "render":
            m = re.match(r"^render\s+((?:\w+\s+)*\w+)\s*->\s*(\S+)$", stripped)
            if not m:
                raise DslError(lineno, col, "expected: render <names> -> <file>")
            names = tuple(m.group(1).split())
            for nm in names:
                if nm not in loops and nm not in spaces:
                    raise DslError(lineno, col, f"unbound name {nm!r}")
            statements.append(RenderStmt(names, m.group(2)))
        else:
            raise DslError(lineno, col, f"unrecognized statement {head!r}")
    return Script(tuple(statements))


# -- pretty printing ------------------------------------------------------------


def format_expr(expr: LoopExpr) -> str:
    if isinstance(expr, AlphaExpr):
        return "alpha.updown"
    if isinstance(expr, CircleExpr):
        return f"C({expr.index}).{'inv' if expr.inverse else 'once'}"
    if isinstance(expr, ConcatExpr):
        inner = ", ".join(a if isinstance(a, str) else format_expr(a) for a in expr.args)
        return f"concat({inner})"
    if isinstance(expr, WordExpr):
        return f"word {format_word(expr.word)}"
    if isinstance(expr, PointsExpr):
        triples = ", ".join(f"({t}, {x}, {y})" for t, x, y in expr.triples)
        return f"points [{triples}]"
    raise TypeError(f"not a loop expression: {expr!r}")


def format_script(script: Script) -> str:
    lines = []
    for st in script.statements:
        if isinstance(st, SpaceDecl):
            lines.append(f"space {st.name} = {st.kind}({st.hint}) width={st.width}")
        elif isinstance(st, LoopBinding):
            lines.append(f"loop {st.name} = {format_expr(st.expr)}")
        elif isinstance(st, ClassifyStmt):
            lines.append(f"classify {st.name}")
        elif isinstance(st, DistStmt):
            lines.append(f"dist {st.first} {st.second}")
        elif isinstance(st, ProbeStmt):
            args = " ".join(f"{k}={v}" for k, v in st.args)
            lines.append(f"probe {st.kind} {args}".rstrip())
        elif isinstance(st, RenderStmt):
            lines.append(f"render {' '.join(st.names)} -> {st.out}")
        else:
            raise TypeError(f"not a statement: {st!r}")
    return "\n".join(lines) + ("\n" if lines else "")
