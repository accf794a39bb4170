import re
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from test_cli import dsl_docstring_script, readme_script, run_cli

from pi1lab import dsl, runner
from pi1lab.geometry import GeometryError
from pi1lab.loops import LoopError, loop_from_breakpoints, standard_fn
from pi1lab.pi1 import probe_discreteness_x, probe_nondiscreteness_y, probe_slsc_y
from pi1lab.spaces import (
    bouquet_x,
    compact_y,
    hausdorff_convergence,
    profile_by_name,
    verify_disjointness,
)
from pi1lab.words import parse_word

GOOD = """\
space S = Y(20) width=pow10
loop f = alpha.updown
loop f2 = C(2).once
loop r = C(3).inv
loop g = concat(f2, f)
loop w = word g2 g3^-1
loop q = points [(0, 0, 0), (1/2, 0, 1), (1, 0, 0)]
classify g
dist f2 f
probe disjointness up_to=10
probe hausdorff up_to=20
probe nondiscreteness n_max=32 epsilon=1/10
probe discreteness loop=f2 trials=100 magnitude=1/1000 seed=7
probe slsc radius=1/4 samples=50 seed=7
render S f2 f -> scene.svg
"""


class TestParse:
    def test_full_script(self):
        script = dsl.parse(GOOD)
        kinds = [type(st).__name__ for st in script.statements]
        assert kinds == [
            "SpaceDecl",
            "LoopBinding",
            "LoopBinding",
            "LoopBinding",
            "LoopBinding",
            "LoopBinding",
            "LoopBinding",
            "ClassifyStmt",
            "DistStmt",
            "ProbeStmt",
            "ProbeStmt",
            "ProbeStmt",
            "ProbeStmt",
            "ProbeStmt",
            "RenderStmt",
        ]

    def test_alpha_binding(self):
        script = dsl.parse("space S = Y(5)\nloop f = alpha.updown\n")
        binding = script.statements[1]
        assert isinstance(binding.expr, dsl.AlphaExpr)

    def test_word_binding(self):
        script = dsl.parse("space S = X(5)\nloop w = word g2 g3^-1\n")
        assert script.statements[1].expr.word == parse_word("g2 g3^-1")

    @pytest.mark.parametrize("gap", ["\t", "  ", " \t", "\t\t"])
    def test_word_after_any_whitespace(self, gap):
        """``word`` may be spaced from its letters by any whitespace, as any
        two tokens may; a tab was refused as an unrecognized expression."""
        script = dsl.parse(f"space S = X(5)\nloop w = word{gap}g2{gap}g3^-1\n")
        assert script.statements[1].expr.word == parse_word("g2 g3^-1")
        (expr,) = dsl.parse_loop_literals((f"concat(word{gap}g2, C(3).once)",))
        assert expr.args[0].word == parse_word("g2")

    def test_points_rationals(self):
        script = dsl.parse("space S = Y(5)\nloop q = points [(0,0,0), (1/2,0,1), (1,0,0)]\n")
        expr = script.statements[1].expr
        assert (expr._ts[1], expr._quads[1]) == ((1, 2), (0, 1, 1, 1))

    def test_comments_and_blanks(self):
        script = dsl.parse("# header\n\nspace S = X(4)  # trailing\n")
        assert len(script.statements) == 1

    def test_probe_args_typed(self):
        script = dsl.parse("space S = Y(5)\nprobe nondiscreteness n_max=8 epsilon=1/4\n")
        args = dict(script.statements[1].args)
        assert args == {"n_max": 8, "epsilon": Fraction(1, 4)}


class TestDiagnostics:
    def test_circle_index_bound(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse("space S = X(5)\nloop bad = C(1).once\n")
        assert "circle index must be >= 2" in str(err.value)
        assert err.value.line == 2

    def test_unbound_name(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse("space S = X(5)\nloop g = concat(nope)\n")
        assert "unbound loop name" in str(err.value)

    def test_classify_unbound(self):
        with pytest.raises(dsl.DslError):
            dsl.parse("space S = X(5)\nclassify nothing\n")

    def test_loop_before_space(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse("loop f = C(2).once\n")
        assert "no active space" in str(err.value)

    def test_alpha_in_x_rejected(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse("space S = X(5)\nloop f = alpha.updown\n")
        assert "compact space Y" in str(err.value)

    def test_float_literal_rejected(self):
        with pytest.raises(dsl.DslError):
            dsl.parse("space S = Y(5)\nloop q = points [(0,0,0), (0.5,0,1), (1,0,0)]\n")

    def test_unknown_probe(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse("space S = Y(5)\nprobe magic a=1\n")
        assert "unknown probe" in str(err.value)

    def test_missing_probe_arg(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse("space S = Y(5)\nprobe nondiscreteness n_max=8\n")
        assert "epsilon" in str(err.value)

    def test_stray_probe_arg(self):
        with pytest.raises(dsl.DslError):
            dsl.parse("space S = Y(5)\nprobe disjointness up_to=5 extra=1\n")

    @pytest.mark.parametrize(
        "args,message",
        [
            ("slsc radius=1/4 samples=2 seed=1 seed=2", "probe slsc takes 'seed' once"),
            ("slsc radius=1/4 samples=2 radius=1/8", "probe slsc takes 'radius' once"),
            ("disjointness up_to=5 up_to=5", "probe disjointness takes 'up_to' once"),
            ("disjointness up_to=5 n=1 n=2", "probe disjointness does not take 'n'"),
        ],
        ids=["seed", "radius", "same-value", "stray"],
    )
    def test_repeated_probe_key(self, args, message):
        """A key given twice was read as its last value: seed=1 seed=2 ran
        with seed 2, and a second radius replaced the first. A key the
        probe does not take is refused as such, however often it is given."""
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(f"space S = Y(5)\n  probe {args}\n")
        assert (err.value.line, err.value.col, err.value.message) == (2, 3, message)

    def test_unknown_statement_line_col(self):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse("space S = Y(5)\n  frobnicate x\n")
        assert err.value.line == 2 and err.value.col == 3

    def test_bad_width(self):
        with pytest.raises(dsl.DslError):
            dsl.parse("space S = Y(5) width=exponential\n")

    def test_render_unbound(self):
        with pytest.raises(dsl.DslError):
            dsl.parse("space S = Y(5)\nrender ghost -> out.svg\n")

    @pytest.mark.parametrize(
        "body,literal",
        [
            ("probe nondiscreteness n_max=5 epsilon=1/0", "1/0"),
            ("loop q = points [(0,0,0), (1/2,0,1/000), (1,0,0)]", "1/000"),
            ("space T = Y(5) width=uniform:3/0", "3/0"),
        ],
        ids=["epsilon", "points", "width"],
    )
    def test_zero_denominator(self, body, literal):
        """A zero denominator ended in a ZeroDivisionError traceback, from the
        parser or, for a width, when the space was built."""
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(f"space S = Y(5)\n{body}\n")
        assert (err.value.line, err.value.message) == (2, f"zero denominator in {literal!r}")


class TestRoundTrip:
    def test_empty_script(self):
        assert dsl.parse("") == dsl.Script(())

    def test_width_is_canonical(self):
        """The default width reads as pow10; a uniform width is kept as written."""
        cases = (("Y(5)", "pow10"), ("Y(5) width=default", "pow10"), ("X(5) width=uniform:1/2", "uniform:1/2"))
        for text, width in cases:
            (decl,) = dsl.parse(f"space S = {text}\n").statements
            assert decl == dsl.SpaceDecl("S", text[0], 5, width)


class CountingTokens:
    """The token pattern, counting its scans and the characters they cover."""

    def __init__(self, real=dsl._TOKEN_RE):
        self.real, self.calls, self.scanned = real, 0, 0

    def findall(self, text, pos=0, endpos=None):
        end = len(text) if endpos is None else min(endpos, len(text))
        self.calls += 1
        self.scanned += end - pos
        return self.real.findall(text, pos, end)


class TestLoopLiterals:
    def test_simple(self):
        alpha, expr = dsl.parse_loop_literals(("alpha.updown", "C(4).once"))
        assert isinstance(alpha, dsl.AlphaExpr)
        assert expr.index == 4 and not expr.inverse

    def test_nested_concat(self):
        (expr,) = dsl.parse_loop_literals(("concat(C(2).once, concat(C(3).inv, alpha.updown))",))
        assert isinstance(expr, dsl.ConcatExpr)
        assert isinstance(expr.args[1], dsl.ConcatExpr)

    def test_word_paren_form(self):
        (expr,) = dsl.parse_loop_literals(("word(g2 g3^-1)",))
        assert expr.word == parse_word("g2 g3^-1")

    def test_bad_literal(self):
        with pytest.raises(dsl.DslError):
            dsl.parse_loop_literals(("spiral.updown",))

    def test_concat_of_numbers(self):
        """After ``concat``, ``(1, 2, 3)`` is one points-triple token; it is
        read again as three arguments, and the first is refused alone."""
        with pytest.raises(dsl.DslError, match=r"^line 1, col 1: unrecognized loop expression '1'$"):
            dsl.parse_loop_literals(("concat(1, 2, 3)",))

    def test_nested_concats_scan_the_literal_once(self, monkeypatch):
        """Every concat level scanned the rest of the literal again: about
        100 times its length for 100 levels around a 25 KB points literal.
        Characters scanned are counted at the token pattern, the one scanner
        of the parser."""
        points = "points [" + ", ".join(f"({k}/1200, 1/{2 + k % 990}, 1)" for k in range(1200)) + "]"
        assert len(points) > 25000
        counting = CountingTokens()
        monkeypatch.setattr(dsl, "_TOKEN_RE", counting)
        expr = dsl._loop_literal("concat(" * 100 + points + ")" * 100)
        monkeypatch.undo()
        assert 0 < counting.scanned < 3 * len(points)
        for _ in range(100):
            assert isinstance(expr, dsl.ConcatExpr) and len(expr.args) == 1
            (expr,) = expr.args
        assert expr == dsl._loop_literal(points)

    def test_one_token_scan_per_line(self, monkeypatch):
        """Parsing the docstring script runs the token pattern once per
        non-blank line, over that line only."""
        script = dsl_docstring_script()
        lines = [line for line in script.splitlines() if line.strip()]
        counting = CountingTokens()
        monkeypatch.setattr(dsl, "_TOKEN_RE", counting)
        dsl.parse(script)
        assert (counting.calls, counting.scanned) == (len(lines), sum(map(len, lines)))


class TestCircleIndexLimit:
    LIMIT = dsl.MAX_CIRCLE_INDEX

    def over(self, body: str):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(f"space S = Y(5)\n  {body}\n")
        assert err.value.line == 2 and err.value.col == 3
        assert f"limit {self.LIMIT}" in err.value.message
        return err.value.message

    def test_limit_value(self):
        assert self.LIMIT == 1000

    def test_circle(self):
        dsl.parse(f"space S = Y(5)\nloop c = C({self.LIMIT}).inv\n")
        assert self.over(f"loop c = C({self.LIMIT + 1}).once").startswith(f"C({self.LIMIT + 1})")

    def test_word_generator(self):
        dsl.parse(f"space S = Y(5)\nloop w = word g2 g{self.LIMIT}^-3\n")
        self.over(f"loop w = word g2 g{self.LIMIT + 1}")
        self.over(f"loop w = word(g{10**6})")

    def test_points_candidate_circle(self):
        # (1/n, 1) is the apex of C_n: its one candidate circle is C_n
        ok = f"points [(0, 0, 0), (1/2, 1/{self.LIMIT}, 1), (1, 0, 0)]"
        dsl.parse(f"space S = Y(5)\nloop q = {ok}\n")
        msg = self.over("loop q = points [(0,0,0), (1/2, 1/40000, 1), (1,0,0)]")
        assert "C(40000)" in msg
        # on alpha, left of it or at slopes below 2 no circle is looked up
        dsl.parse("space S = Y(5)\nloop q = points [(0,0,0), (1/3,0,1), (1/2,-1,5), (2/3,7,1), (1,0,0)]\n")

    def test_points_candidate_circle_found_once(self, monkeypatch):
        """The parser looks up each breakpoint's candidate circle once, for
        the index cap, and the top circle of a points loop is the largest
        of those."""
        calls = []

        def counted(q, _orig=dsl.candidate_circle):
            calls.append(q)
            return _orig(q)

        monkeypatch.setattr(dsl, "candidate_circle", counted)
        script = dsl.parse(
            "space S = Y(5)\nloop q = points [(0,0,0), (1/5,1/3,1), (2/5,0,1), (3/5,1/7,1), (4/5,1/3,1), (1,0,0)]\n"
        )
        assert len(calls) == 3
        assert script.statements[1].expr.top == 7
        assert dsl.parse("space S = Y(5)\nloop q = points [(0,0,0), (1/2,0,1), (1,0,0)]\n").statements[1].expr.top == 0

    def test_probe_bounds(self):
        dsl.parse(f"space S = Y(5) width=cube\nprobe hausdorff up_to={self.LIMIT}\n")
        self.over(f"probe disjointness up_to={self.LIMIT + 1}")
        self.over(f"probe hausdorff up_to={self.LIMIT + 1}")
        self.over(f"probe nondiscreteness n_max={self.LIMIT + 1} epsilon=1/10")

    def test_cli_literal(self):
        with pytest.raises(dsl.DslError):
            dsl.parse_loop_literals((f"concat(C(2).once, C({self.LIMIT + 1}).inv)",))


def p10(n: int) -> int:
    """The circle price of C_n under pow10, whose width is 1/10**(10n): the
    squared bit size of the width in units of 2**16."""
    bits = 1 + (10 ** (10 * n)).bit_length()
    return bits * bits >> 16


def filler(units: int) -> str:
    """Three statements that cost exactly ``units`` (at least 402): a space,
    a word of K letters (100 + 70K) and an slsc probe of one sample at
    radius 1/2**k, whose k + 2 bits make it cost 202 + k."""
    k_letters, k = divmod(units - 402, 70)
    return f"space F = Y(5)\nloop z = word g2^{k_letters}\nprobe slsc radius=1/{2**k} samples=1\n"


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# For each probe kind, a script that gives only its required parameters, and
# the direct call that it stands for, with seed 0.
REQUIRED_ONLY = {
    "disjointness": ("space S = Y(5)\nprobe disjointness up_to=6\n", lambda: verify_disjointness(compact_y(5), 6)),
    "hausdorff": ("space S = Y(5)\nprobe hausdorff up_to=6\n", lambda: hausdorff_convergence(compact_y(5), 6)),
    "nondiscreteness": (
        "space S = Y(5)\nprobe nondiscreteness n_max=8 epsilon=1/10\n",
        lambda: probe_nondiscreteness_y(8, Fraction(1, 10), compact_y(5)),
    ),
    "discreteness": (
        "space T = X(5)\nloop a = C(3).once\nprobe discreteness loop=a trials=3 magnitude=1/1000\n",
        lambda: probe_discreteness_x(standard_fn(3, bouquet_x(5)), 3, Fraction(1, 1000), 0),
    ),
    "slsc": ("space S = Y(5)\nprobe slsc radius=1/4 samples=5\n", lambda: probe_slsc_y(Fraction(1, 4), 5, 0, compact_y(5))),
}


class TestProbeTable:
    """``dsl.PROBES`` holds the probe kinds that the documents name: each
    kind has a row in the README's price table and a line in the dsl
    docstring's example, and the README names no other probe. A kind's
    optional parameters default as its direct call's do."""

    KINDS = sorted(dsl.PROBES)

    @pytest.mark.parametrize("kind", KINDS)
    def test_price_table_row(self, kind):
        assert f"| `probe {kind}` |" in README

    @pytest.mark.parametrize("kind", KINDS)
    def test_docstring_example_line(self, kind):
        assert any(line.startswith(f"probe {kind} ") for line in dsl_docstring_script().splitlines())

    def test_readme_names_only_table_kinds(self):
        named = set(re.findall(r"`probe (\w+)", README)) | set(re.findall(r"^probe (\w+)", readme_script(), re.M))
        assert named and named <= set(dsl.PROBES)

    @pytest.mark.parametrize("kind", KINDS)
    def test_required_parameters_only(self, capsys, tmp_path, kind):
        script, direct = REQUIRED_ONLY[kind]
        optional = [key for key, typ in dsl.PROBES[kind][0] if typ.endswith("?")]
        assert not [key for key in optional if f" {key}=" in script]
        path = tmp_path / "probe.pi1"
        path.write_text(script, encoding="utf-8")
        rep = direct()
        assert run_cli(capsys, ["run", str(path)]) == (0 if rep.passed else 1, rep.render(), "")


# (prefix, its price, statement, its name in the message, its price) for
# each statement kind, the prices worked out from the table in dsl._PRICES.
WORK_CASES = {
    "space": ("", 0, "space T = X(20) width=cube", "space T", 100),
    "loop-word": ("space T = Y(5)\n", 100, "loop w = word g2^3 g5^-2 g7", "loop w", 100 + 70 * 6),
    "loop-points": (
        "space T = Y(5)\n",
        100,
        "loop q = points [(0,0,0), (1/3,0,1), (2/3,0,1/2), (1,0,0)]",
        "loop q",
        100 + 70 * 3,
    ),
    # each piece pays twice the squared bit size of the longest breakpoint,
    # (1/3, 1/(2 * 10**999), 1/10**999), in units of 2**16
    "loop-points-digits": (
        "space T = Y(5)\n",
        100,
        f"loop q = points [(0,0,0), (1/3, 1/{2 * 10**999}, 1/{10**999}), (2/3,0,1/2), (1,0,0)]",
        "loop q",
        100 + 70 * 3 + 2 * 3 * ((1 + 2 + 1 + (2 * 10**999).bit_length() + 1 + (10**999).bit_length()) ** 2 >> 16),
    ),
    "loop-concat": (
        "space T = Y(5)\nloop w = word g2^3\nloop f = alpha.updown\n",
        100 + 310 + 170,
        "loop k = concat(w, f, w)",
        "loop k",
        100 + 70 * 7,
    ),
    "classify": ("space T = Y(5)\nloop w = word g2^3\n", 410, "classify w", "classify w", 100 + 30 * 3),
    "dist": (
        "space T = Y(5)\nloop h = C(100).once\nloop f = alpha.updown\n",
        440,
        "dist h f",
        "dist h f",
        100 + 150 * 2 + 18 * p10(100),
    ),
    "disjointness": (
        "space T = Y(5)\n",
        100,
        "probe disjointness up_to=20",
        "probe disjointness",
        100 + sum((n - 2) * (200 + 15 * p10(n)) for n in range(3, 21)),
    ),
    "hausdorff": (
        "space T = Y(5)\n",
        100,
        "probe hausdorff up_to=30",
        "probe hausdorff",
        100 + sum(120 + 9 * p10(n) for n in range(2, 31)),
    ),
    "nondiscreteness": (
        "space T = Y(5)\n",
        100,
        "probe nondiscreteness n_max=30 epsilon=1/10",
        "probe nondiscreteness",
        100 + sum(90 + 15 * p10(n) for n in range(2, 31)),
    ),
    # the radius and each trial price the 3 letters and the weight; a trial
    # reads the 11 bits of the magnitude 1/1000 too
    "discreteness": (
        "space T = X(20)\nloop a = word g20 g30^2\n",
        410,
        "probe discreteness loop=a trials=7 magnitude=1/1000",
        "probe discreteness",
        100
        + (3 * 30 + 15 * (p10(20) + 2 * p10(30)))
        + 7 * (130 + 3 * (15 + 11 // 4) + 10 * (p10(20) + 2 * p10(30))),
    ),
    # radius 1/4 has 1 + 3 bits
    "slsc": ("space T = Y(5)\n", 100, "probe slsc radius=1/4 samples=9 seed=3", "probe slsc", 100 + 9 * (100 + 4)),
    "render": (
        "space T = Y(12)\nloop w = word g2^3\n", 410, "render T w -> x.svg", "render", 100 + 200 * 11 + 100 * 3
    ),
}


class TestInputBudgets:
    DIGITS = dsl.MAX_LITERAL_DIGITS
    LIMIT = dsl.MAX_SCRIPT_WORK

    def refused(self, body: str):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(f"space S = Y(5)\n{body}\n")
        assert err.value.line == 2
        return err.value

    def test_limit_values(self):
        assert (self.DIGITS, self.LIMIT) == (4300, 3000000)
        assert sorted(name for name in vars(dsl) if name.startswith("MAX_")) == [
            "MAX_CIRCLE_INDEX", "MAX_LITERAL_DIGITS", "MAX_NESTING", "MAX_SCRIPT_BYTES", "MAX_SCRIPT_WORK"
        ]
        assert dsl.MAX_NESTING == 100

    @pytest.mark.parametrize("case", list(WORK_CASES))
    def test_work_limit(self, case):
        """Every statement adds its price to one total per script: a script
        whose last statement reaches the limit parses, and one unit more
        refuses that statement at its line and column, naming its price,
        the script's total and the limit."""
        prefix, prefix_cost, statement, what, cost = WORK_CASES[case]
        line = 4 + prefix.count("\n")
        at_limit = filler(self.LIMIT - prefix_cost - cost) + prefix + "  " + statement + "\n"
        assert dsl.parse(at_limit).statements[-1] is not None
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(filler(self.LIMIT - prefix_cost - cost + 1) + prefix + "  " + statement + "\n")
        assert (err.value.line, err.value.col) == (line, 3)
        assert err.value.message == (
            f"{what} costs {cost} units of work, which brings the script to {self.LIMIT + 1} "
            f"and exceeds the limit of {self.LIMIT}"
        )

    def test_trial_letter_budget(self):
        """A discreteness probe pays for each trial by the letters of its
        loop: the most trials the limit allows shrink as the loop grows,
        letters reached through a concat count, and negative trials cost
        nothing. g2 and g3 have a circle price of 0, and magnitude 1/1000
        has 11 bits, so a trial costs 130 + 17 per letter, on top of the
        radius at 30 per letter."""
        head = (
            "space T = X(20)\nloop a = word g2^1000\nloop b = word g3^10\n"
            "loop q = points [(0,0,0), (1/3,0,1), (2/3,0,1/2), (1,0,0)]\nloop k = concat(a, q)\n"
        )
        spent = 100 + (100 + 70 * 1000) + (100 + 70 * 10) + (100 + 70 * 3) + (100 + 70 * 1003)
        dsl.parse(head + "probe discreteness loop=a trials=-5 magnitude=1/1000\n")
        most = {}
        for name, letters in (("a", 1000), ("b", 10), ("k", 1003)):
            trial = 130 + 17 * letters
            trials = (self.LIMIT - spent - 100 - 30 * letters) // trial
            most[name] = trials
            dsl.parse(head + f"probe discreteness loop={name} trials={trials} magnitude=1/1000\n")
            with pytest.raises(dsl.DslError) as err:
                dsl.parse(head + f"probe discreteness trials={trials + 1} loop={name} magnitude=1/1000\n")
            cost = 100 + 30 * letters + (trials + 1) * trial
            assert (err.value.line, err.value.col) == (6, 1)
            assert err.value.message == (
                f"probe discreteness costs {cost} units of work, which brings the script to "
                f"{spent + cost} and exceeds the limit of {self.LIMIT}"
            )
        assert most["b"] > 50 * most["a"] >= 50 * most["k"]

    def test_each_space_prices_its_own_statements(self):
        """Bindings and probes are priced under the width of the space
        declared last before them, not of an earlier one: every circle price
        is 0 under cube, and p(1000) is not under pow10."""
        cube, pow10 = "space C = Y(5) width=cube\n", "space P = Y(5)\n"
        probe = "probe hausdorff up_to=1000\n"
        dsl.parse(pow10 + cube + probe)
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(cube + pow10 + probe)
        cost = 100 + sum(120 + 9 * p10(n) for n in range(2, 1001))
        assert err.value.message.startswith(f"probe hausdorff costs {cost} units of work")
        body = cube + pow10 + "loop h = C(1000).once\ndist h h\n"
        cost = 100 + 2 * 150 + 18 * 2 * p10(1000)
        room = self.LIMIT - 100 - 100 - (100 + 70) - cost
        dsl.parse(filler(room) + body)
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(filler(room + 1) + body)
        assert (err.value.line, err.value.col) == (7, 1)
        assert err.value.message.startswith(f"dist h h costs {cost} units of work")

    def test_radius_work_budget(self):
        """The stability radius costs 30 per letter of the loop plus 15
        times its weight, one point-to-edge distance per adjacent pair of
        touched circles at most, whichever way the loop is bound. The pair
        C(999), C(1000), which a price per pair of touched circles refused,
        parses as a word, a concat or points; a probe of no trials pays for
        its radius only."""
        through = " ".join(f"g{n}" for n in range(2, 22))
        head = (
            f"space T = X(20)\nloop a = word {through}\nloop b = word g1000^3 g999^-2\n"
            "loop c = C(999).once\nloop d = C(1000).inv\nloop k = concat(c, d)\n"
            "loop q = points [(0,0,0), (1/4,1/999,1), (1/2,0,0), (3/4,1/1000,1), (1,0,0)]\n"
        )
        spent = 100 + sum(100 + 70 * letters for letters in (20, 5, 1, 1, 2, 4))
        top, below = p10(1000), p10(999)
        radius = {
            "a": 30 * 20 + 15 * sum(p10(n) for n in range(2, 22)),
            "b": 30 * 5 + 15 * (3 * top + 2 * below),
            "k": 30 * 2 + 15 * (below + top),
            "q": 30 * 4 + 15 * 4 * top,
        }
        assert radius["k"] < 2500 + 450 * top
        for name, cost in radius.items():
            probe = f"probe discreteness loop={name} trials=0 magnitude=1/1000\n"
            room = self.LIMIT - spent - 100 - cost
            assert dsl.parse(filler(room) + head + probe).statements[-1].kind == "discreteness"
            with pytest.raises(dsl.DslError) as err:
                dsl.parse(filler(room + 1) + head + probe)
            assert (err.value.line, err.value.col) == (11, 1)
            assert err.value.message == (
                f"probe discreteness costs {100 + cost} units of work, which brings the script to "
                f"{self.LIMIT + 1} and exceeds the limit of {self.LIMIT}"
            )

    def test_loop_literals_spend_one_fresh_total(self):
        """The literals of ``pi1lab word`` and ``pi1lab dist`` are priced as
        bindings followed by the classify or dist that reads them, from one
        fresh total: a binding costs 100 + 70 per letter, a classify 100 + 30
        per letter, a dist 100 + 150 per letter of both loops plus 18 times
        their weight. g2 and g3 have a circle price of 0."""
        letters = (self.LIMIT - 200) // 100
        dsl.parse_loop_literals((f"concat(word g2^{letters - 1}, C(3).once)",))
        with pytest.raises(dsl.DslError) as err:
            dsl.parse_loop_literals((f"concat(word g2^{letters}, C(3).once)",))
        assert (err.value.line, err.value.col) == (1, 1)
        assert err.value.message == (
            f"classify costs {100 + 30 * (letters + 1)} units of work, which brings the script to "
            f"{200 + 100 * (letters + 1)} and exceeds the limit of {self.LIMIT}"
        )
        each = (self.LIMIT - 300) // 440
        dsl.parse_loop_literals((f"word g2^{each}", f"word g3^{each}"))
        with pytest.raises(dsl.DslError) as err:
            dsl.parse_loop_literals((f"word g2^{each + 1}", f"word g3^{each + 1}"))
        assert err.value.message == (
            f"dist costs {100 + 300 * (each + 1)} units of work, which brings the script to "
            f"{300 + 440 * (each + 1)} and exceeds the limit of {self.LIMIT}"
        )
        # two short literals on C_1000 pass as bindings and are refused by their weight
        with pytest.raises(dsl.DslError) as err:
            dsl.parse_loop_literals(("word g1000^100", "word g999^100"))
        cost = 100 + 2 * 150 * 100 + 18 * 100 * (p10(1000) + p10(999))
        assert err.value.message.startswith(f"dist costs {cost} units of work")

    def test_counts_past_the_limit_are_priced_as_the_limit(self):
        """trials, samples and exponents of 4300 digits give a price str()
        can print: each counts as the limit."""
        many = "9" * self.DIGITS
        for body in (
            f"probe slsc radius=1/4 samples={many}",
            f"space T = X(5)\nloop a = C(2).once\nprobe discreteness loop=a trials={many} magnitude=1/1000",
            f"loop w = word g2^{many}",
            f"loop w = word g1000^-{many} g2^{many}",
        ):
            with pytest.raises(dsl.DslError) as err:
                dsl.parse(f"space S = Y(5)\n{body}\n")
            assert "exceeds the limit" in str(err.value)
        for literals in ((f"word g2^{many}",), ("C(2).once", f"word(g3^-{many})")):
            with pytest.raises(dsl.DslError) as err:
                dsl.parse_loop_literals(literals)
            assert err.value.message == (
                f"the loop literal costs {100 + 70 * self.LIMIT} units of work, which brings the script to "
                f"{100 * len(literals) + 70 * (self.LIMIT + len(literals) - 1)} and exceeds the limit of {self.LIMIT}"
            )

    def test_every_long_integer_literal_is_refused_at_its_column(self):
        long = "1" * (self.DIGITS + 1)
        for body in (
            f"loop c = C({long}).once",
            f"loop w = word g{long}",
            f"loop w = word(g2 g3^-{long})",
            f"loop q = points [(0, 0, 0), (1/{long}, 0, 1), (1, 0, 0)]",
            f"probe nondiscreteness n_max=5 epsilon=1/{long}",
            f"probe slsc radius=1/4 samples=5 seed={long}",
        ):
            err = self.refused(body)
            assert err.col == body.index(long) + 1
            assert err.message == f"integer literal exceeds the limit of {self.DIGITS} digits"
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(f"space S = Y({long})\n")
        assert (err.value.line, err.value.col) == (1, 13)
        with pytest.raises(dsl.DslError):
            dsl.parse_loop_literals((f"concat(C(2).once, word g2^{long})",))

    def test_literals_at_the_digit_limit_parse(self):
        at_limit = "1" * self.DIGITS
        dsl.parse(f"space S = Y(5)\nprobe slsc radius=1/4 samples=5 seed={at_limit}\n")
        dsl.parse(f"space S = Y(5)\nprobe nondiscreteness n_max=5 epsilon=1/{at_limit}\n")

    def test_points_breakpoint_far_beyond_any_circle(self):
        # y/x has about 8000 digits, more than str() prints
        big = "9" * self.DIGITS
        err = self.refused(f"loop q = points [(0, 0, 0), (1/2, 1/{big}, {big}), (1, 0, 0)]")
        assert "can only lie on a circle" in err.message


# -- points literals: int pairs against the Fraction route ---------------------

CUBE = profile_by_name("cube")
# a part of MAX_LITERAL_DIGITS (4,300) digits
_BIG = 10 ** (dsl.MAX_LITERAL_DIGITS - 1)


def _cube_tail(m: int) -> tuple:
    w = Fraction(1, 10 * m**3)
    return Fraction(1, m) + m * w, 1 - w


def _text(draw, q) -> str:
    """A Fraction as literal text, often unreduced, or as a bare integer."""
    k = draw(st.sampled_from((1, 1, 2, 3)))
    if q.denominator == 1 and k == 1 and draw(st.booleans()):
        return str(q.numerator)
    return f"{q.numerator * k}/{q.denominator * k}"


# texts that are not the reduced form of a breakpoint in the space
_ODD_TEXTS = ["1/0", "0/0", "0/5", "2/2", "-1", "-3/6", "1.5", "x", "1/-2", "7/1", f"1/{_BIG}", f"{_BIG}/{_BIG + 1}"]
# points off the space, past C_1000, or past any circle a quote names
_ODD_POINTS = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(-1), Fraction(5)),
    (Fraction(1, 2000), Fraction(1)),
    (Fraction(1, 3000), Fraction(2, 3)),
    (Fraction(1, 10**90), Fraction(1)),
    (Fraction(1, _BIG), Fraction(_BIG)),
    (Fraction(0), Fraction(_BIG, _BIG + 1)),
]


@st.composite
def points_parts(draw):
    """The text triples of a points literal: loops through C_2 ... C_40 of a
    cube Y and alpha, then perhaps odd points, odd texts, parameters out of
    order or not ending at 1, and parts of 4,300 digits."""
    pts = [(Fraction(0), Fraction(0))]
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(2, 40))
        kind = draw(st.sampled_from(("circuit", "arm", "alpha", "odd")))
        if kind == "circuit":
            apex, tail = (Fraction(1, m), Fraction(1)), _cube_tail(m)
            pts += [apex, tail] if draw(st.booleans()) else [tail, apex]
        elif kind == "arm":
            u = Fraction(draw(st.integers(1, 15)), 16)
            pts.append((u / m, u))
        elif kind == "alpha":
            pts.append((Fraction(0), Fraction(draw(st.integers(1, 16)), 16)))
        else:
            pts.append(draw(st.sampled_from(_ODD_POINTS)))
        pts.append((Fraction(0), Fraction(0)))
    pts = pts[: draw(st.integers(1, len(pts)))] if draw(st.integers(0, 9)) == 0 else pts
    k = len(pts) - 1
    ts = [Fraction(i, max(k, 1)) for i in range(k + 1)]
    if k and draw(st.booleans()):
        ts[1] = Fraction(1, _BIG)
    parts = [[_text(draw, t), _text(draw, x), _text(draw, y)] for t, (x, y) in zip(ts, pts)]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        i, j = draw(st.integers(0, k)), draw(st.integers(0, 2))
        parts[i][j] = draw(st.sampled_from(_ODD_TEXTS))
    if k > 1 and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, k - 1))
        parts[i][0], parts[i + 1][0] = parts[i + 1][0], parts[i][0]
    return parts


def _outcome(build):
    """What ``build`` returns, or the type and text of what it raises."""
    try:
        return build()
    except (dsl.DslError, GeometryError, LoopError) as exc:
        return type(exc), str(exc)


class TestPointsRoute:
    SPACE = compact_y(40, CUBE)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(points_parts())
    # the seed pins the draws, which derandomize alone takes from the source text
    @seed(7)
    @example([["0/5", "0", "0"], ["2/4", "1/3", "1"], ["3/4", "31/90", "269/270"], ["2/2", "0", "0"]])
    @example([["0", "0", "0"], [f"1/{_BIG}", "0", f"{_BIG}/{_BIG + 1}"], ["1", "0", "0"]])
    @example([["0", "0", "0"], ["2/4", "2/80000", "2/2"], ["1", "0", "0"]])
    @example([["0", "0", "0"], ["1/2", "2/6000", "4/6"], ["1", "0", "0"]])
    @example([["0", "0", "0"], ["1/2", "0", "1/0"], ["1", "0", "0"]])
    @example([["0", "0", "0"], ["2/4", "0", "1/2"], ["1/2", "0", "0"], ["1", "0", "0"]])
    def test_matches_the_fraction_route(self, parts):
        """A points literal parsed to int pairs and pathed from them has
        the triples, weight, top circle and loop of the Fraction route
        (oracles.points_literal, then loop_from_breakpoints); where that
        route raises, the same exception type and text."""
        text = "points [" + ", ".join(f"({t}, {x}, {y})" for t, x, y in parts) + "]"
        want = _outcome(lambda: oracles.points_literal(parts))
        got = _outcome(lambda: dsl._loop_literal(text))
        if not isinstance(want, tuple) or not isinstance(got, dsl.PointsExpr):
            assert got == want
            return
        triples, circles, weight = want
        loop = _outcome(lambda: runner._Runner().eval_expr(got, self.SPACE))
        got_triples = tuple(
            (Fraction(*t), Fraction(xn, xd), Fraction(yn, yd)) for t, (xn, xd, yn, yd) in zip(got._ts, got._quads)
        )
        assert (got_triples, got.weight, got.top) == (triples, weight, max(circles, default=0))
        want_loop = _outcome(lambda: loop_from_breakpoints(triples, self.SPACE))
        assert loop == want_loop
        if not isinstance(want_loop, tuple):
            assert loop.path._ts == want_loop.path._ts
            assert [p._q for p in loop.path.points] == [p._q for p in want_loop.path.points]
            assert loop._chart == want_loop._chart

    def test_the_points_route_builds_no_fraction(self, monkeypatch):
        """Parsing and running a points binding and its classification in a
        cube Y builds no Fraction once the profile's width pairs are warm;
        the route through parse_rational and loop_from_breakpoints built 48."""
        text = (
            "space S = Y(40) width=cube\n"
            "loop q = points [(0, 0, 0), (1/8, 1/3, 1), (2/8, 31/90, 269/270), (3/8, 0, 0), "
            "(4/8, 1/6, 1/2), (5/8, 0, 0), (6/8, 0, 1/2), (1, 0, 0)]\n"
            "classify q\n"
        )
        for n in range(2, 41):
            CUBE.pair(n)
        built = []

        def counted(cls, *args, _orig=Fraction.__new__, **kwargs):
            built.append(args)
            return _orig(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        script = runner._Runner()
        code = script.run(dsl.parse(text))
        monkeypatch.undo()
        assert (code, script.out) == (0, ["word: g3"])
        assert built == []
