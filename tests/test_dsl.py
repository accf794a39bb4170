from fractions import Fraction

import pytest

from pi1lab import dsl
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

    def test_points_rationals(self):
        script = dsl.parse("space S = Y(5)\nloop q = points [(0,0,0), (1/2,0,1), (1,0,0)]\n")
        triples = script.statements[1].expr.triples
        assert triples[1] == (Fraction(1, 2), Fraction(0), Fraction(1))

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


class TestRoundTrip:
    def test_parse_format_parse(self):
        script = dsl.parse(GOOD)
        printed = dsl.format_script(script)
        assert dsl.parse(printed) == script

    def test_format_is_canonical(self):
        script = dsl.parse("space S = Y(5)\n")
        printed = dsl.format_script(script)
        assert printed == "space S = Y(5) width=pow10\n"
        assert dsl.format_script(dsl.parse(printed)) == printed

    def test_uniform_width_round_trip(self):
        text = "space S = X(5) width=uniform:1/2\n"
        script = dsl.parse(text)
        assert dsl.format_script(script) == text

    def test_empty_script(self):
        assert dsl.parse("") == dsl.Script(())
        assert dsl.format_script(dsl.Script(())) == ""


class TestLoopLiterals:
    def test_simple(self):
        assert isinstance(dsl.parse_loop_literal("alpha.updown"), dsl.AlphaExpr)
        expr = dsl.parse_loop_literal("C(4).once")
        assert expr.index == 4 and not expr.inverse

    def test_nested_concat(self):
        expr = dsl.parse_loop_literal("concat(C(2).once, concat(C(3).inv, alpha.updown))")
        assert isinstance(expr, dsl.ConcatExpr)
        assert isinstance(expr.args[1], dsl.ConcatExpr)

    def test_word_paren_form(self):
        expr = dsl.parse_loop_literal("word(g2 g3^-1)")
        assert expr.word == parse_word("g2 g3^-1")

    def test_bad_literal(self):
        with pytest.raises(dsl.DslError):
            dsl.parse_loop_literal("spiral.updown")


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
        the index cap, and the circles a points loop touches are those."""
        calls = []

        def counted(q, _orig=dsl.candidate_circle):
            calls.append(q)
            return _orig(q)

        monkeypatch.setattr(dsl, "candidate_circle", counted)
        script = dsl.parse(
            "space S = Y(5)\nloop q = points [(0,0,0), (1/5,1/3,1), (2/5,0,1), (3/5,1/7,1), (4/5,1/3,1), (1,0,0)]\n"
        )
        assert len(calls) == 3
        assert script.statements[1].expr.circles == {3, 7}

    def test_probe_bounds(self):
        dsl.parse(f"space S = Y(5)\nprobe hausdorff up_to={self.LIMIT}\n")
        dsl.parse(f"space S = Y(5)\nprobe disjointness up_to={dsl.MAX_PAIRWISE_UP_TO}\n")
        self.over(f"probe disjointness up_to={self.LIMIT + 1}")
        self.over(f"probe hausdorff up_to={self.LIMIT + 1}")
        self.over(f"probe nondiscreteness n_max={self.LIMIT + 1} epsilon=1/10")

    def test_cli_literal(self):
        with pytest.raises(dsl.DslError):
            dsl.parse_loop_literal(f"concat(C(2).once, C({self.LIMIT + 1}).inv)")


class TestInputBudgets:
    DIGITS = dsl.MAX_LITERAL_DIGITS
    LETTERS = dsl.MAX_WORD_LETTERS

    def refused(self, body: str):
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(f"space S = Y(5)\n{body}\n")
        assert err.value.line == 2
        return err.value

    def test_limit_values(self):
        assert (self.DIGITS, self.LETTERS) == (4300, 10000)

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
            dsl.parse_loop_literal(f"concat(C(2).once, word g2^{long})")

    def test_literals_at_the_digit_limit_parse(self):
        at_limit = "1" * self.DIGITS
        dsl.parse(f"space S = Y(5)\nprobe slsc radius=1/4 samples=5 seed={at_limit}\n")
        dsl.parse(f"space S = Y(5)\nprobe nondiscreteness n_max=5 epsilon=1/{at_limit}\n")

    def test_points_breakpoint_far_beyond_any_circle(self):
        # y/x has about 8000 digits, more than str() prints
        big = "9" * self.DIGITS
        err = self.refused(f"loop q = points [(0, 0, 0), (1/2, 1/{big}, {big}), (1, 0, 0)]")
        assert "can only lie on a circle" in err.message

    def test_word_letter_budget(self):
        for ok in (f"g2^{self.LETTERS}", f"g2^-{self.LETTERS - 1} g3", f"g2^{self.LETTERS + 1} g2^-1"):
            dsl.parse(f"space S = Y(5)\nloop w = word {ok}\n")
        for bad in (f"g2^{self.LETTERS + 1}", f"g2^{self.LETTERS // 2} g3^-{self.LETTERS // 2 + 1}"):
            err = self.refused(f"loop w = word {bad}")
            assert err.message == f"word exceeds the limit of {self.LETTERS} letters"

    def test_concat_letter_budget(self):
        # a word counts its letters; a circle or alpha 1, a points literal 1 per piece
        head = (
            f"space S = Y(5)\nloop w = word g2^{self.LETTERS - 5}\nloop c = C(3).once\n"
            "loop f = alpha.updown\nloop q = points [(0,0,0), (1/3,0,1), (2/3,0,1/2), (1,0,0)]\n"
        )
        dsl.parse(head + "loop k = concat(w, c, f, q)\n")
        with pytest.raises(dsl.DslError) as err:
            dsl.parse(head + "loop k = concat(w, c, f, q)\nloop m = concat(k, c)\n")
        assert (err.value.line, err.value.message) == (7, f"concat exceeds the limit of {self.LETTERS} letters")

    def test_script_letter_budget(self):
        """The letters of every binding add up, rebindings included: a script
        at the limit parses, and the binding that passes it is refused at its
        line, naming the script's total and the limit."""
        limit = dsl.MAX_SCRIPT_LETTERS
        assert limit == 40000
        words = f"loop w = word g2^{self.LETTERS}\n" * (limit // self.LETTERS)
        dsl.parse(f"space S = Y(5)\n{words}")
        for line, name, total in (
            ("loop c = C(3).once", "c", limit + 1),
            ("  loop q = points [(0,0,0), (1/3,0,1), (2/3,0,0), (1,0,0)]", "q", limit + 3),
            ("loop w = concat(w)", "w", limit + self.LETTERS),
        ):
            with pytest.raises(dsl.DslError) as err:
                dsl.parse(f"space S = Y(5)\n{words}{line}\n")
            assert (err.value.line, err.value.col) == (6, line.index("loop") + 1)
            assert err.value.message == (
                f"loop {name} brings the script to {total} letters, "
                f"which exceeds the limit of {limit} letters per script"
            )

    def test_classify_and_dist_spend_letters(self):
        """classify adds its loop's letters to the script's total and dist
        both loops': at the limit parses, and the statement that passes it
        is refused at its line and column, naming the total and the limit."""
        limit = dsl.MAX_SCRIPT_LETTERS
        head = f"space S = Y(5)\nloop a = word g2^{self.LETTERS}\n"
        dsl.parse(head + "classify a\ndist a a\n")
        for body, line, what, total in (
            ("classify a\ndist a a\n  classify a", "  classify a", "classify a", limit + self.LETTERS),
            ("loop c = C(3).once\nclassify a\nclassify a\ndist c a", "dist c a", "dist c a", limit + 2),
        ):
            with pytest.raises(dsl.DslError) as err:
                dsl.parse(head + body + "\n")
            assert (err.value.line, err.value.col) == (3 + body.count("\n"), line.index(what) + 1)
            assert err.value.message == (
                f"{what} brings the script to {total} letters, "
                f"which exceeds the limit of {limit} letters per script"
            )

    def test_trial_letter_budget(self):
        """trials times the loop's letters: at the limit parses, one over is
        refused at the trials value, naming both values and the limit."""
        limit = dsl.MAX_TRIAL_LETTERS
        assert limit == 100000
        head = (
            "space T = X(20)\nloop a = word g2^1000\nloop b = word g3^10\n"
            "loop q = points [(0,0,0), (1/3,0,1), (2/3,0,1/2), (1,0,0)]\nloop k = concat(a, q)\n"
        )
        for ok in ("loop=a trials=100", "loop=b trials=10000", "loop=a trials=-5", "trials=99 loop=k"):
            dsl.parse(head + f"probe discreteness {ok} magnitude=1/1000\n")
        for line, name, letters, trials in (
            ("probe discreteness loop=a trials=101 magnitude=1/1000", "a", 1000, 101),
            ("  probe discreteness magnitude=1/1000 trials=100 loop=k seed=1", "k", 1003, 100),
        ):
            with pytest.raises(dsl.DslError) as err:
                dsl.parse(head + line + "\n")
            assert (err.value.line, err.value.col) == (6, line.index("trials=") + len("trials=") + 1)
            assert err.value.message == (
                f"trials={trials} times the {letters} letters of loop {name} "
                f"exceeds the limit of {limit} letter-trials"
            )

    def test_radius_work_budget(self):
        """Pairs of touched circles times the largest index squared: a loop
        through C(2) ... C(21) parses, and two circles near the index cap are
        refused at the loop value, whether bound as a word, a concat or
        points, naming the circle count, the largest index and the limit."""
        limit = dsl.MAX_RADIUS_WORK
        assert limit == 350000
        through = " ".join(f"g{n}" for n in range(2, 22))  # 190 pairs times 21^2
        head = (
            f"space T = X(20)\nloop a = word {through}\nloop b = word g1000^3 g2^-1000\n"
            "loop c = C(999).once\nloop d = C(1000).inv\nloop k = concat(c, d)\n"
            "loop q = points [(0,0,0), (1/4,1/999,1), (1/2,0,0), (3/4,1/1000,1), (1,0,0)]\n"
            "loop h = word g590 g591\nloop i = word g591 g592\nloop e = concat(c, c, a)\n"
        )
        for ok in ("loop=a trials=3", "loop=c trials=3", "trials=2 loop=h"):
            dsl.parse(head + f"probe discreteness {ok} magnitude=1/1000\n")
        for line, name, k, top in (
            ("probe discreteness loop=b trials=1 magnitude=1/1000", "b", 2, 1000),
            ("probe discreteness loop=k trials=1 magnitude=1/1000", "k", 2, 1000),
            ("  probe discreteness magnitude=1/1000 loop=q seed=1 trials=1", "q", 2, 1000),
            ("probe discreteness loop=i trials=1 magnitude=1/1000", "i", 2, 592),
            ("probe discreteness loop=e trials=1 magnitude=1/1000", "e", 21, 999),
        ):
            with pytest.raises(dsl.DslError) as err:
                dsl.parse(head + line + "\n")
            assert (err.value.line, err.value.col) == (11, line.index("loop=") + len("loop=") + 1)
            pairs = k * (k - 1) // 2
            assert err.value.message == (
                f"the stability radius of loop {name}, through {k} circles up to C({top}), "
                f"needs {pairs * top * top} units of work (pairs of circles times {top}^2), "
                f"which exceeds the limit of {limit}"
            )
