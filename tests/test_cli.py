import ast
import hashlib
import io
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter, namedtuple
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import pi1lab
from pi1lab import cli, dsl, exactnum, geometry, kernels, pi1, spaces
from pi1lab.cli import demo_whitehead, main

# The directory that holds the package, for PYTHONPATH of fresh processes.
SRC = os.path.dirname(os.path.dirname(pi1lab.__file__))

GOOD_SCRIPT = """\
space S = Y(10) width=pow10
loop f = alpha.updown
loop f4 = C(4).once
loop g = concat(f4, f)
classify f4
classify g
probe disjointness up_to=6
render S f4 -> {out}
"""

SABOTAGE_SCRIPT = """\
space S = X(6) width=uniform:1/2
probe disjointness up_to=4
"""

# C(12) lies beyond the declared Y(10); the hint must not hide it.
ABOVE_HINT_SCRIPT = """\
space S = Y(10) width=cube
loop a = C(12).once
classify a
"""


# Its one breakpoint off p can only lie on C_40000, whose pow10 width has a
# 400,000-digit denominator.
HUGE_INDEX_SCRIPT = """\
space S = Y(20) width=pow10
loop q = points [(0,0,0), (1/2, 1/40000, 1), (1,0,0)]
classify q
"""


# Under pow10 the squared distances of C_n have denominators of about 20n
# digits, so each of these needs an exact value too long for str().
LONG_VALUE_SCRIPTS = (
    ("probe nondiscreteness n_max=215 epsilon=1/10", "probe nondiscreteness: n_max=215"),
    ("probe hausdorff up_to=300", "probe hausdorff: up_to=300"),
    ("loop a = C(1000).once\nloop f = alpha.updown\ndist a f", "dist a f"),
)

# The loop runs through C_590 and C_591, whose pow10 coordinates have about
# 6,000 digits; the squared sup distance of a perturbation has more than 4300.
LONG_PERTURBATION_SCRIPT = """\
space T = X(20)
loop a = word g590 g591
probe discreteness loop=a trials=1 magnitude=1/10000000 seed={seed}
"""

NINES = "9" * 5000

# A uniform width of two 4300-digit literals: every circle meets the next one,
# at a point whose coordinates have more than 4300 digits.
LONG_WITNESS_SCRIPT = (
    f"space S = Y(5) width=uniform:1{'0' * 4299}/1{'0' * 4298}1\n"
    "probe disjointness up_to=4\n"
)

# 14 pieces on edge p -> B_2 whose t, x and y have 4300-digit parts. Binding
# them ran 0.15 s at a price of 1,150 when a piece cost 70 whatever its
# digits; each piece now adds twice its weight, about 224,000 units.
_D = 10**4298
HEAVY_POINTS = (
    "loop w = points [(0, 0, 0), "
    + ", ".join(
        f"({Fraction(i * _D + 1, 16 * _D + 1)}, {Fraction(i * _D + 3, 32 * _D + 2)}, {Fraction(i * _D + 3, 16 * _D + 1)})"
        for i in range(1, 15)
    )
    + ", (1, 0, 0)]"
)

# Each entry, written after a space by hostile_script, is refused by the
# parser on its last line; the column is that of the offending literal, or of
# the statement whose price passes the work limit. The parser stops at the
# refused line, so the scripts that repeat a statement end there. HOSTILE
# runs those that pass dsl.MAX_SCRIPT_WORK in fresh processes.
THROUGH_C21 = " ".join(f"g{n}" for n in range(2, 22))
HOSTILE_LINES = {
    "word-exponent": (f"loop w = word g2^{NINES}", 18),
    # an exponent at the digit limit counts as the work limit in letters: it
    # ended in an OverflowError traceback
    "word-exponent-at-digit-limit": (f"loop w = word g2^{NINES[:4300]}", 1),
    "circle-index": (f"loop c = C({NINES}).once", 12),
    "points-rational": (f"loop q = points [(0,0,0), (1/2, 1/{NINES}, 1), (1,0,0)]", 35),
    "probe-int": (f"probe slsc radius=1/4 samples={NINES}", 31),
    "word-letters": ("loop w = word g2^1000000", 1),
    "word-letter-sum": ("loop w = word g2^500000 g3^500000", 1),
    "space-hint": ("space T = Y(100000)", 13),
    "pairwise-up-to": ("probe disjointness up_to=101", 1),
    "slsc-samples": ("probe slsc radius=1/4 samples=40000", 1),
    "discreteness-trials": ("loop w = C(2).once\nprobe discreteness loop=w trials=30000 magnitude=1/1000", 1),
    # the product of trials and letters: about 40 minutes of work if it ran
    "discreteness-trial-letters": (
        "space T = X(20) width=pow10\n"
        "loop a = word g2^10000\n"
        "probe discreteness loop=a trials=20 magnitude=1/1000",
        1,
    ),
    # each binding holds alone; the letters bound across the script do not
    # (500 lines that each added a 10,000-letter concat ran 12 s)
    "script-letters": ("loop a = word g2^5000\n" + "loop b = concat(a, a)\n" * 3 + "loop b = concat(a, a)", 1),
    # each line holds alone; the letters classify reads again do not (200
    # classify lines ran 1.6 s)
    "classify-letters": ("loop a = word g2^10000\n" + "classify a\n" * 7 + "classify a", 1),
    # trials priced by their circles: 8.9 s at the parent
    "discreteness-high-circles": (
        "space T = X(20)\n"
        "loop a = word g590 g591\n"
        "probe discreteness loop=a trials=100 magnitude=1/100000000",
        1,
    ),
    # 10 of these ran 12.7 s at the parent
    "repeated-discreteness-long-word": (
        "space T = X(20)\nloop a = word g2^5000\n"
        "probe discreteness loop=a trials=20 magnitude=1/1000\n"
        "probe discreteness loop=a trials=20 magnitude=1/1000",
        1,
    ),
    # 3 of these ran 3.8 s each at the parent
    "disjointness-up-to-100": ("probe disjointness up_to=100", 1),
    # renders spend the script's budget: 30 of these ran 4.5 s at the parent
    "repeated-render": ("space S = Y(1000)\n" + "render S -> x.svg\n" * 15 + "render S -> x.svg", 1),
    # a points binding pays for the digits of its breakpoints
    "points-digits": (HEAVY_POINTS, 1),
}


def hostile_script(line):
    """The script of a HOSTILE_LINES entry: a space, the entry, a classify."""
    return f"space S = Y(20)\n{line}\nclassify w\n"


# Scripts that the parser refused while the stability radius was priced per
# pair of touched circles. It is one distance per adjacent touched pair now,
# priced per letter, so each runs: (script, exit code, reports on stdout,
# stderr). The radius of g999 g1000 refuses the magnitude; four probes on
# g2 ... g21 (20 ran 8.9 s before a trial was one walk) each pass.
RADIUS_ADMITTED = (
    (
        "space T = X(20) width=pow10\nloop a = word g999 g1000\n"
        "probe discreteness loop=a trials=1 magnitude=1/1000\n",
        1,
        0,
        "error: magnitude 1/1000 is not below the stability radius 550305/8796093022208; "
        "the word-stability claim is only certified below the radius\n",
    ),
    (
        f"space T = X(20)\nloop a = word {THROUGH_C21}\n"
        + "probe discreteness loop=a trials=100 magnitude=1/100000000\n" * 4,
        0,
        4,
        "",
    ),
)

# Each line passes the parser, whose budgets exit 2, and is refused when it
# runs: a probe by the probe itself, a points loop off the space when it is
# built. One error line, exit 1.
PROBE_REFUSALS = (
    ("Y", "probe slsc radius=1/4 samples=0", "samples must be positive"),
    ("Y", "probe slsc radius=1/2 samples=3", "radius must lie strictly between 0 and 1/2"),
    ("X", "probe discreteness loop=f2 trials=0 magnitude=1/1000", "trials must be positive"),
    (
        "X",
        "probe discreteness loop=f2 trials=3 magnitude=1",
        "magnitude 1 is not below the stability radius 1/32; "
        "the word-stability claim is only certified below the radius",
    ),
    ("Y", "probe nondiscreteness n_max=1 epsilon=1/10", "n_max must be at least 2"),
    ("Y", "probe nondiscreteness n_max=4 epsilon=0", "epsilon must be positive"),
    ("Y", "probe disjointness up_to=2", "up_to must be at least 3 (need at least one pair)"),
    ("Y", "probe hausdorff up_to=1", "up_to must be at least 2"),
    (
        "Y",
        "loop q = points [(0,0,0), (1/2,1,1), (1,0,0)]",
        "invalid loop: piece 0 on [0, 1/2]: breakpoint (1, 1) is outside the space",
    ),
    (
        "X",
        "loop q = points [(0,0,0), (1/2,0,1/2), (1,0,0)]",
        "invalid loop: piece 0 on [0, 1/2]: breakpoint (0, 1/2) is outside the space",
    ),
    (
        "Y",
        "loop q = points [(0,0,0), (1/4,0,1/2), (1/2,1/4,1/2), (1,0,0)]",
        "invalid loop: piece 1 on [1/4, 1/2]: piece (0, 1/2) -> (1/4, 1/2) "
        "is not contained in a single edge",
    ),
)

# Three spaces of one width profile, each with a word through C_2 ... C_1000.
REPEATED_SPACE_SCRIPT = "".join(
    f"space S = Y(20)\nloop w{k} = word {' '.join(f'g{n}' for n in range(2, 1001))}\nclassify w{k}\n"
    for k in range(3)
)

# Each concat doubles the loop; the third line already passes the work limit.
DOUBLING_SCRIPT = """\
space S = Y(20)
loop a = word g2^10000
loop b = concat(a, a)
loop c = concat(b, b)
loop d = concat(c, c)
classify d
"""


def readme_script() -> str:
    """The script block of the README's "Script language" section."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Script language", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def dsl_docstring_script() -> str:
    """The indented example script of the dsl module docstring."""
    lines = dsl.__doc__.split("\n\n")[2].split("\n")
    return "".join(line[4:] + "\n" for line in lines)


def too_long(where: str) -> str:
    return (
        f"error: {where} gives an exact value longer than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for printing an integer\n"
    )


def run_cli(capsys, argv):
    """(exit code, stdout, stderr) of one main call; a SystemExit from
    argparse gives its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def main_matches_fresh(capsys, calls):
    """Each argv of ``calls`` through a fresh `python -m pi1lab` process, in
    the working directory, and then through main in this process: main
    builds its parser once per process, so every call must still give the
    fresh process's exit code and stdout and stderr bytes. Returns the
    fresh processes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    fresh = [
        subprocess.run([sys.executable, "-m", "pi1lab", *argv], capture_output=True, timeout=60, env=env)
        for argv in calls
    ]
    for argv, want in zip(calls, fresh):
        code, out, err = run_cli(capsys, argv)
        assert (code, out.encode(), err.encode()) == (want.returncode, want.stdout, want.stderr), argv
    return fresh


class TestRun:
    def test_script_classifies(self, capsys, tmp_path):
        script = tmp_path / "scene.pi1"
        out_svg = tmp_path / "scene.svg"
        script.write_text(GOOD_SCRIPT.format(out=out_svg), encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 0, err
        assert "word: g4" in out
        assert out_svg.exists()

    @pytest.mark.parametrize("source", [readme_script, dsl_docstring_script], ids=["readme", "dsl-docstring"])
    def test_documented_script_runs(self, capsys, tmp_path, monkeypatch, source):
        script = tmp_path / "example.pi1"
        script.write_text(source(), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 0, err
        assert out.count("verdict: PASS") == 5
        assert (tmp_path / "scene.svg").exists()

    def test_circle_above_hint_classifies(self, capsys, tmp_path):
        script = tmp_path / "above.pi1"
        script.write_text(ABOVE_HINT_SCRIPT, encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 0, err
        assert out.strip() == "word: g12"

    def test_stability_radius_covers_its_family_only(self, capsys, tmp_path):
        # g goes up edge 0 of C_2 to B_2 and straight back down, skipping the
        # sliver's short edge B_2 D_2: it is far inside rho of f = C(2).once
        # and spells another word. The stability radius is stated for slides
        # along the carrying edge with every turning vertex fixed, and
        # degree-0 bounces at p, and the probe on f still passes.
        script = tmp_path / "corner.pi1"
        script.write_text(
            "space T = X(20) width=pow10\n"
            "loop f = C(2).once\n"
            "loop g = points [(0, 0, 0), (1/2, 1/2, 1), "
            "(100000000000000000001/200000000000000000000, 1/2, 1), (1, 0, 0)]\n"
            "classify f\nclassify g\ndist f g\n"
            "probe discreteness loop=f trials=100 magnitude=1/1000 seed=7\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("word: ")] == ["word: g2", "word: 1"]
        params = dict(line[len("param: "):].split(" = ") for line in lines if line.startswith("param: "))
        dist_sq = Fraction(next(line for line in lines if line.startswith("dist_sq: ")).split()[1])
        rho = Fraction(params["stability_radius"])
        assert dist_sq == Fraction(1, 2 * 10**39)
        assert rho == Fraction(1, 32) and dist_sq < rho**2
        assert params["agreeing_trials"] == "100"
        assert lines[-1] == "verdict: PASS"

    def test_sabotage_disjointness_fails_nonzero(self, capsys, tmp_path):
        script = tmp_path / "bad.pi1"
        script.write_text(SABOTAGE_SCRIPT, encoding="utf-8")
        code, out, _ = run_cli(capsys, ["run", str(script)])
        assert code == 1
        assert "verdict: FAIL" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        script = tmp_path / "broken.pi1"
        script.write_text("loop f = C(1).once\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["run", str(script)])
        assert code == 2
        assert "parse error" in err

    def test_huge_circle_index_fails_fast(self, capsys, tmp_path):
        script = tmp_path / "huge.pi1"
        script.write_text(HUGE_INDEX_SCRIPT, encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("parse error: line 2, col 1: ") and "C(40000)" in err

    @pytest.mark.parametrize("body,where", LONG_VALUE_SCRIPTS, ids=("nondiscreteness", "hausdorff", "dist"))
    def test_value_too_long_to_print_is_one_error_line(self, capsys, tmp_path, body, where):
        script = tmp_path / "long.pi1"
        script.write_text(f"space S = Y(32)\n{body}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 1 and out == ""
        assert err == too_long(where)

    def test_perturbation_too_long_to_print_is_one_error_line(self, capsys, tmp_path):
        """It ended in a ValueError traceback from str() of the largest
        squared perturbation, on seeds 0, 1 and 4; each run takes about a
        second, so one seed is run here."""
        script = tmp_path / "long.pi1"
        script.write_text(LONG_PERTURBATION_SCRIPT.format(seed=0), encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 1 and out == ""
        assert err == too_long("probe discreteness: max_perturbation_sq_seen")

    def test_disjointness_witness_too_long_to_print_is_one_error_line(self, capsys, tmp_path):
        script = tmp_path / "long.pi1"
        script.write_text(LONG_WITNESS_SCRIPT, encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 1 and out == ""
        assert err == too_long("probe disjointness: up_to=4")

    @pytest.mark.parametrize("line,col", HOSTILE_LINES.values(), ids=list(HOSTILE_LINES))
    def test_hostile_literal_fails_fast(self, capsys, tmp_path, monkeypatch, line, col):
        monkeypatch.chdir(tmp_path)
        script = tmp_path / "hostile.pi1"
        script.write_text(hostile_script(line), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        lineno = 2 + line.count("\n")
        assert err.startswith(f"parse error: line {lineno}, col {col}: ") and "exceeds the limit" in err

    @pytest.mark.parametrize(
        "kind,line,message",
        PROBE_REFUSALS,
        ids=(
            "slsc-samples",
            "slsc-radius",
            "discreteness-trials",
            "discreteness-magnitude",
            "nondiscreteness-n-max",
            "nondiscreteness-epsilon",
            "disjointness-up-to",
            "hausdorff-up-to",
            "points-outside-y",
            "points-on-alpha-in-x",
            "points-chord-off-y",
        ),
    )
    def test_probe_refusal_exits_1(self, capsys, tmp_path, kind, line, message):
        script = tmp_path / "refused.pi1"
        script.write_text(f"space S = {kind}(32)\nloop f2 = C(2).once\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text,code,reports,err", RADIUS_ADMITTED, ids=("discreteness-radius", "repeated-discreteness")
    )
    def test_radius_admitted_within_a_bound(self, capsys, tmp_path, text, code, reports, err):
        """Each script runs to its answer in under a second: every report a
        discreteness PASS over all 100 trials, or one error line."""
        script = tmp_path / "admitted.pi1"
        script.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        got = run_cli(capsys, ["run", str(script)])
        assert time.perf_counter() - start < 1.0
        assert (got[0], got[2]) == (code, err)
        blocks = got[1].split("\n\n") if got[1] else []
        assert len(blocks) == reports
        for block in blocks:
            assert block.startswith("== probe: discreteness-X ==\n")
            assert "param: agreeing_trials = 100\n" in block and block.rstrip("\n").endswith("verdict: PASS")

    def test_circle_loop_needs_width_below_one(self, capsys, tmp_path):
        """C(2).once under a width of 1 or more has its tail D_2 on or below
        p: the loop is refused with the profile named, where its tail
        parameter reached 1 and the path builder refused it."""
        script = tmp_path / "wide.pi1"
        for width in ("1", "3/2"):
            script.write_text(f"space S = X(5) width=uniform:{width}\nloop f = C(2).once\n", encoding="utf-8")
            assert run_cli(capsys, ["run", str(script)]) == (
                1,
                "",
                f"error: the loop around C2 needs w(2) < 1, which width profile uniform:{width} does not give\n",
            )

    def test_concat_letter_budget(self, capsys, tmp_path):
        script = tmp_path / "doubling.pi1"
        script.write_text(DOUBLING_SCRIPT, encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == (
            "parse error: line 4, col 1: loop c costs 2800100 units of work, "
            "which brings the script to 4900400 and exceeds the limit of 3000000\n"
        )
        code, out, err = run_cli(capsys, ["word", "concat(word g2^100000, C(3).once)"])
        assert code == 2 and out == "" and "the loop literal costs 7000170 units of work" in err

    def test_spaces_of_one_profile_share_circles(self, capsys, tmp_path, monkeypatch):
        """Each space statement used to start an empty circle cache, so
        three spaces building C_2 ... C_1000 built 2,997 circles."""
        script = tmp_path / "spaces.pi1"
        script.write_text(REPEATED_SPACE_SCRIPT, encoding="utf-8")
        built = []

        def counted(n, profile, _orig=spaces.build_circle):
            built.append(n)
            return _orig(n, profile)

        monkeypatch.setattr(spaces, "build_circle", counted)
        code, out, err = run_cli(capsys, ["run", str(script)])
        word = " ".join(f"g{n}" for n in range(2, 1001))
        assert code == 0 and err == ""
        assert out == "\n\n".join([f"word: {word}"] * 3) + "\n"
        assert sorted(built) == list(range(2, 1001))

    @pytest.mark.parametrize("command", ["run", "render"])
    def test_script_byte_cap(self, capsys, tmp_path, monkeypatch, command):
        """A script over MAX_SCRIPT_BYTES, from a file or stdin, exits 2
        before it is parsed; one at the cap is parsed."""
        limit = dsl.MAX_SCRIPT_BYTES
        assert limit == 4000000
        head = f"space S = Y(5)\nrender S -> {tmp_path / 'cap.svg'}\n"
        at_cap = head + "#" * (limit - len(head) - 1) + "\n"
        assert len(at_cap.encode()) == limit
        parsed = []

        def parse(text, _orig=dsl.parse):
            parsed.append(len(text))
            return _orig(text)

        monkeypatch.setattr(dsl, "parse", parse)
        script = tmp_path / "cap.pi1"
        script.write_text(at_cap, encoding="utf-8")
        assert run_cli(capsys, [command, str(script)])[0] == 0
        assert parsed == [limit]
        script.write_text(at_cap + "\n", encoding="utf-8")
        assert run_cli(capsys, [command, str(script)]) == (
            2, "", f"error: script exceeds the limit of {limit} bytes\n"
        )
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\n" * (limit + 1))))
        assert run_cli(capsys, [command, "-"]) == (
            2, "", f"error: script exceeds the limit of {limit} bytes\n"
        )
        assert parsed == [limit]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", ["run", "render"])
    def test_script_not_utf8(self, capsys, tmp_path, monkeypatch, command, source):
        """A script holding bytes that are not UTF-8 ended in a
        UnicodeDecodeError traceback and exit 1."""
        data = b"space S = Y(20)\n# \xff\xfe\n"
        if source == "file":
            script = tmp_path / "bad.pi1"
            script.write_bytes(data)
            arg = str(script)
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            arg = "-"
        reason = "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"
        assert run_cli(capsys, [command, arg]) == (2, "", f"error: script is not valid UTF-8: {reason}\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["run", "/nonexistent/script.pi1"])
        assert code == 1
        assert "error" in err

    def test_parse_error_quotes_a_long_name_cut(self, capsys, tmp_path):
        """The whole 300 KB name was echoed: a 300,060-byte stderr line."""
        script = tmp_path / "long.pi1"
        script.write_text(f"space S = Y(20)\nloop b = {'b' * 300000}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 2 and out == ""
        assert err == f"parse error: line 2, col 1: unrecognized loop expression {'b' * 80!r}...\n"
        assert len(err.encode()) < 200

    def test_parse_error_quotes_a_long_triple_cut(self, capsys, tmp_path):
        triple = f"(1/2, 1/{'7' * 100})"
        script = tmp_path / "triple.pi1"
        script.write_text(f"space S = Y(20)\nloop q = points [(0,0,0), {triple}, (1,0,0)]\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 2 and out == ""
        assert err == f"parse error: line 2, col 1: bad points triple {triple[:80]!r}...\n"

    @pytest.mark.parametrize(
        "line, shown",
        (
            (f"loop c = C({NINES[:4300]}).once", f"C({NINES[:80]}...) exceeds the limit 1000"),
            (f"loop c = C(-{NINES[:4300]}).once", f"got C(-{NINES[:79]}...)\n"),
            (f"loop w = word g2 g{NINES[:4300]}", f"g{NINES[:80]}... exceeds the limit 1000"),
            (f"space T = Y({NINES[:4300]})", f"space hint {NINES[:80]}... exceeds the limit 1000"),
            (f"probe hausdorff up_to={NINES[:4300]}", f"up_to={NINES[:80]}... exceeds the limit 1000"),
            (
                f"probe nondiscreteness n_max={NINES[:4300]} epsilon=1/10",
                f"n_max={NINES[:80]}... exceeds the limit 1000",
            ),
            (
                f"loop q = points [(0,0,0), (1/2, 1/{'7' * 4300}, {NINES[:4300]}/3), (1,0,0)]",
                f"breakpoint (1/{'7' * 77}... can only lie on a circle, which exceeds the limit 1000",
            ),
        ),
        ids=("circle", "negative-circle", "generator", "space-hint", "up_to", "n_max", "breakpoint"),
    )
    def test_parse_error_cuts_a_long_number(self, capsys, tmp_path, line, shown):
        """A number in a parse error is cut as a quote is; each was echoed
        whole, up to 4,300 digits, and the breakpoint's (x, y) gave an
        8,719-byte line."""
        script = tmp_path / "number.pi1"
        script.write_text(f"space S = Y(20)\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["run", str(script)])
        assert code == 2 and out == ""
        assert err.startswith("parse error: line 2, col ") and err.count("\n") == 1 and err.endswith("\n")
        assert shown in err and len(err.encode()) < 200


class TestOneOffCommands:
    def test_word_circle(self, capsys):
        code, out, _ = run_cli(capsys, ["word", "C(4).once"])
        assert code == 0 and out.strip() == "word: g4"

    def test_word_literal_with_spaces(self, capsys):
        code, out, _ = run_cli(capsys, ["word", "word", "g2", "g3^-1"])
        assert code == 0 and out.strip() == "word: g2 g3^-1"

    def test_word_alpha_identity(self, capsys):
        code, out, _ = run_cli(capsys, ["word", "alpha.updown"])
        assert code == 0 and out.strip() == "word: 1"

    def test_word_parse_error(self, capsys):
        code, _, err = run_cli(capsys, ["word", "C(1).once"])
        assert code == 2 and "circle index" in err

    def test_dist(self, capsys):
        code, out, _ = run_cli(capsys, ["dist", "C(2).once", "alpha.updown"])
        assert code == 0
        assert out.startswith("dist_sq: ")
        m = re.search(r"dist_dec\(\d+\): ([0-9.]+)", out)
        assert m and m.group(1).startswith("0.5000000000000000000200000")

    def test_dist_too_long_to_print(self, capsys):
        code, out, err = run_cli(capsys, ["dist", "C(1000).once", "alpha.updown"])
        assert code == 1 and out == "" and err == too_long("dist")

    @pytest.mark.parametrize(
        "argv,what",
        (
            (["word", f"word g2^{NINES[:4300]}"], "the loop literal"),
            (["dist", "C(2).once", f"word g3^-{NINES[:4300]}"], "the loop literal"),
            (["word", "word g2^29999"], "classify"),
            (["dist", "word g2^6818", "word g3^6818"], "dist"),
        ),
        ids=("word-exponent", "dist-exponent", "word-classify", "dist-both-literals"),
    )
    def test_loop_literals_spend_one_total(self, capsys, argv, what):
        """A literal is priced as a binding, and the classify of ``word`` or
        the dist of ``dist`` adds its price to the same total."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"parse error: line 1, col 1: {what} costs ") and "exceeds the limit" in err

    def test_points_literal_costs_the_same_in_a_concat(self, capsys):
        """A ``points`` literal adds twice its weight to the price of its
        binding whether it stands alone or inside a one-off ``concat``, the
        one place a literal nests a points list: both are refused at the
        same cost. One breakpoint of 4,299-digit ints weighs each of the 41
        pieces."""
        d = 10**4298
        heavy = f"({40 * d + 1}/{41 * d}, 0, {d - 1}/{d})"
        pts = "points [(0, 0, 0), " + ", ".join(f"({k}/41, 0, 1/{k + 1})" for k in range(1, 40)) + f", {heavy}, (1, 0, 0)]"
        bare = run_cli(capsys, ["word", pts])
        assert bare == run_cli(capsys, ["word", f"concat({pts})"])
        code, out, err = bare
        assert (code, out) == (2, "")
        assert err.startswith("parse error: line 1, col 1: the loop literal costs 4085832 units of work")

    def test_word_hostile_literal(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["word", f"C({NINES}).once"])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("parse error: line 1, col 3: ")

    @pytest.mark.parametrize("command", ["word", "dist"])
    def test_nested_concat_literal_refused(self, capsys, command):
        """1,000 nested concats ended in a RecursionError traceback, exit 1;
        MAX_NESTING levels still parse."""

        def nested(depth):
            return "concat(" * depth + "C(2).once" + ")" * depth

        extra = ["C(3).once"] if command == "dist" else []
        for depth in (1000, dsl.MAX_NESTING + 1):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, [command, *extra, nested(depth)])
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (2, "")
            assert err == f"parse error: line 1, col 1: concat nesting exceeds the limit of {dsl.MAX_NESTING} levels\n"
        code, out, err = run_cli(capsys, [command, *extra, nested(dsl.MAX_NESTING)])
        assert code == 0 and err == ""

    @pytest.mark.parametrize("argv", (["demo", "whitehead", "--nmax", "1001"], ["hausdorff", "--upto", "1001"]))
    def test_circle_index_options_capped(self, capsys, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"{argv[-2]} 1001 exceeds the limit 1000" in err

    @pytest.mark.parametrize(
        "argv", (["demo", "whitehead", "--nmax", "1"], ["hausdorff", "--upto", "1"], ["hausdorff", "--upto", "0"])
    )
    def test_circle_index_options_below_two(self, capsys, monkeypatch, argv):
        """Refused as usage before the demo builds its tables."""
        built = []
        for name in ("verify_disjointness", "hausdorff_convergence"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: built.append(name))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and built == []
        assert err.endswith(f"error: {argv[-2]} {argv[-1]} is below 2, the least circle index\n")

    @pytest.mark.parametrize("value", ["abc", "0", "5000", "3000000"])
    def test_report_digits_validated_up_front(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PI1LAB_DIGITS", value)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["hausdorff", "--upto", "3"])
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "error: PI1LAB_DIGITS must" in err

    def test_report_digits_at_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("PI1LAB_DIGITS", "4300")
        code, out, _ = run_cli(capsys, ["hausdorff", "--upto", "3"])
        assert code == 0 and "d_dec(4300)" in out

    def test_hausdorff(self, capsys):
        code, out, _ = run_cli(capsys, ["hausdorff", "--upto", "6"])
        assert code == 0
        assert "== probe: hausdorff-convergence ==" in out
        assert "verdict: PASS" in out


HAUSDORFF_SCRIPT = "space S = Y(5) width={width}\nprobe hausdorff up_to={up_to}\n"


class TestHausdorffReportBytes:
    # sha256 of stdout, recorded with the general envelope routine the
    # closed form replaced; the FAIL tables come from uncertified profiles.
    @pytest.mark.parametrize(
        "source, code, digest",
        [
            (["hausdorff", "--upto", "120"], 0, "19c02b6869ab29cb884188fc3007c4a69d60722c25609bd763476ffcd968e55e"),
            (HAUSDORFF_SCRIPT.format(width="cube", up_to=1000), 0, "d826f41b57a45f8f0f2b0dabffeb9da0ee87f516fadad17270989c4cda80ecf8"),
            (HAUSDORFF_SCRIPT.format(width="uniform:1/2", up_to=40), 1, "dd17407b155b073a83094c235db429805070fe72c42452217bff90c51ce48ffd"),
            (HAUSDORFF_SCRIPT.format(width="uniform:3", up_to=30), 1, "ebb59c91a678e7e564c8efbaa17617ffd70bc227e3bc6ee955826ac9693b604c"),
        ],
        ids=["upto-120", "cube-1000", "uniform-1/2-40", "uniform-3-30"],
    )
    def test_pinned_digest(self, capsys, tmp_path, source, code, digest):
        argv = source
        if isinstance(source, str):
            path = tmp_path / "hausdorff.pi1"
            path.write_text(source, encoding="utf-8")
            argv = ["run", str(path)]
        got, out, err = run_cli(capsys, argv)
        assert got == code, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


DISJOINTNESS_SCRIPT = "space S = Y(20) width={width}\nprobe disjointness up_to={up_to}\n"


class TestDisjointnessReportBytes:
    # sha256 of stdout, recorded before the kernels were flattened; the
    # uniform profile fails with a witness for every pair.
    @pytest.mark.parametrize(
        "width, up_to, code, digest",
        [
            ("pow10", 60, 0, "844f6e21de417c524c2c7ed078621bd2ab5f86e537673d7752bf978ea4aef19f"),
            ("cube", 100, 0, "88ef7dfccbcf38bcf247d9a8a9abe64ebd95d718bc232e5d83207a7f8a87e5e8"),
            ("uniform:1/2", 30, 1, "5c2d0da3031121196685050646927fd69128e41f3966cf9e50231d807492391f"),
        ],
        ids=["pow10-60", "cube-100", "uniform-1/2-30"],
    )
    def test_pinned_digest(self, capsys, tmp_path, width, up_to, code, digest):
        path = tmp_path / "disjointness.pi1"
        path.write_text(DISJOINTNESS_SCRIPT.format(width=width, up_to=up_to), encoding="utf-8")
        got, out, err = run_cli(capsys, ["run", str(path)])
        assert got == code, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


DISCRETENESS_SCRIPT = "space T = X(20) width={width}\nloop a = word {word}\n"
DISCRETENESS_PROBE = "probe discreteness loop=a trials=40 magnitude={magnitude} seed={seed}\n"


class TestDiscretenessReportBytes:
    # sha256 of stdout, recorded when each trial subdivided the loop before
    # sliding and retried a perturbation past the bound with half of it.
    # Each magnitude but 1/1000 lies just below the loop's stability radius.
    @pytest.mark.parametrize(
        "width, word, magnitude, seeds, digest",
        [
            ("pow10", "g2 g3", "49/5000", (0, 1, 2, 3), "393e02c1651c753037d47cc47b4662a05374eae6f766d25947e6313c26cf97b4"),
            ("pow10", "g7 g3^-2 g4", "51/20000", (4, 5, 6), "b9d44cace740b2dc9fc3666b96e79b4dddd4d4ffad921fa6affb81a45ce4fcc0"),
            ("pow10", "g2^2 g5^-1", "1/1000", (7, 8), "7ddf3ed9ed9ccc5682c4a52bd9e923f66af9c7af641233d48811dba952fad65b"),
            ("cube", "g2 g3", "91/10000", (0, 1, 2), "a36a125fcc5d9c24b4aa085a1feb5b38b8c59f68380104c84ca8bdc084e18fa4"),
            ("cube", "g2^2 g5^-1", "499/100000", (3, 4, 5), "3ee3194f9f27ca31a2f8b862a777fc4348739f4e2034cfe2a45d0553217acf2d"),
            ("uniform:1/2", "g2^2", "311/10000", (0, 1, 2), "b11e62285ac0c798cb3e7544f82467515d3715cb102b1085296eecfd028e642d"),
            ("uniform:1/2", "g2 g2^-1", "31/1000", (3, 4), "70a255988a86809ad42e56a0a766ecadce3a96197e8cb7c1b8e16f64031cacc4"),
        ],
        ids=["pow10-g2g3", "pow10-g7g3g4", "pow10-g2g5-1/1000", "cube-g2g3", "cube-g2g5", "uniform-g2^2", "uniform-1"],
    )
    def test_pinned_digest(self, capsys, tmp_path, width, word, magnitude, seeds, digest):
        script = DISCRETENESS_SCRIPT.format(width=width, word=word)
        script += "".join(DISCRETENESS_PROBE.format(magnitude=magnitude, seed=s) for s in seeds)
        path = tmp_path / "discreteness.pi1"
        path.write_text(script, encoding="utf-8")
        got, out, err = run_cli(capsys, ["run", str(path)])
        assert got == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


    # sha256 of stdout, recorded when each trial subdivided the loop before
    # sliding. The loop has breakpoints inside edges 0 and 2 of C_2, which
    # may slide, and a constant piece at p, which may bounce.
    MID_EDGE_SCRIPT = (
        "space T = X(20)\n"
        "loop m = points [(0, 0, 0), (1/6, 1/4, 1/2), (1/3, 1/2, 1), "
        "(1/2, 25000000000000000001/50000000000000000000, 99999999999999999999/100000000000000000000), "
        "(2/3, 25000000000000000001/75000000000000000000, 33333333333333333333/50000000000000000000), "
        "(5/6, 0, 0), (1, 0, 0)]\n"
        "classify m\n"
        "probe discreteness loop=m trials=40 magnitude=1/1000 seed=0\n"
        "probe discreteness loop=m trials=40 magnitude=1/100 seed=1\n"
        "probe discreteness loop=m trials=40 magnitude=3/100 seed=2\n"
    )

    def test_mid_edge_breakpoints_digest(self, capsys, tmp_path):
        path = tmp_path / "mid-edge.pi1"
        path.write_text(self.MID_EDGE_SCRIPT, encoding="utf-8")
        got, out, err = run_cli(capsys, ["run", str(path)])
        assert got == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "5672eef79749394811ddf6dcef7226b98c1d044e1e1e5cc10e6a9844ed18eb37"
        )


# Scripts whose 1000-digit literals pass the least int-string limit, 640,
# with the exit code each gives: a points breakpoint, an slsc radius and a
# uniform width, each with a 1000-digit denominator; a circle index with 700
# leading zeros, and a 1000-digit one, which is refused naming it. Then
# refusals whose text holds a value of 700 digits or more: a points
# breakpoint off the space at x = 1/3 + 1/10^700, points parameters that
# decrease, a discreteness magnitude past the stability radius, and a
# negative uniform width.
_D1000 = "1" + "0" * 999
_D700 = "1" + "0" * 699
_N700 = "7" * 700
LIMIT_SCRIPTS = {
    "points": (f"space S = Y(5)\nloop q = points [(0, 0, 0), (1/2, 0, 1/{_D1000}), (1, 0, 0)]\nclassify q\n", 0),
    "slsc-radius": (f"space S = Y(5)\nprobe slsc radius=1/{_D1000} samples=3\n", 0),
    "uniform-width": (f"space S = Y(5) width=uniform:1/{_D1000}\nloop c = C(2).once\nclassify c\n", 0),
    "leading-zeros": ("space S = Y(5)\nloop c = C(" + "0" * 700 + "5).once\nclassify c\n", 0),
    "long-index": (f"space S = Y(5)\nloop c = C({_D1000}).once\n", 2),
    "points-off-space": (
        f"space S = Y(5)\nloop q = points [(0, 0, 0), (1/2, 1{'0' * 699}3/3{'0' * 700}, 1/2), (1, 0, 0)]\n", 1,
    ),
    "points-decreasing": (
        f"space S = Y(5)\nloop q = points [(0, 0, 0), (2/{_D700}, 0, 1/2), (1/{_D700}, 0, 1/2), (1, 0, 0)]\n", 1,
    ),
    "magnitude-past-radius": (
        f"space T = X(5)\nloop c = C(2).once\nprobe discreteness loop=c trials=1 magnitude={_N700}\n", 1,
    ),
    "negative-width": (f"space S = Y(5) width=uniform:-1/{_D700}\nloop c = C(2).once\n", 1),
}
# Command lines (argv, environment, exit code) with a 700-digit value: a
# demo seed, a --upto, which is refused naming it, and a PI1LAB_DIGITS,
# which is refused as out of range.
LIMIT_COMMANDS = {
    "demo-seed": (["demo", "whitehead", "--seed", _N700, "--out-dir", "{out}"], {}, 0),
    "hausdorff-upto": (["hausdorff", "--upto", _N700], {}, 2),
    "digits-past-range": (["dist", "C(2).once", "alpha.updown"], {"PI1LAB_DIGITS": _N700}, 2),
}
# A dist at 1000 places, whose decimals are longer than the limit 640.
DIST_ROW = (["dist", "C(2).once", "alpha.updown"], {"PI1LAB_DIGITS": "1000"}, 0)


def limit_rows(directory) -> list:
    """The CLI rows (argv, environment, exit code) of LIMIT_SCRIPTS, each
    written to a file in ``directory``, and of LIMIT_COMMANDS, writing there."""
    rows = []
    for name, (text, code) in LIMIT_SCRIPTS.items():
        path = Path(directory) / f"{name}.pi1"
        path.write_text(text, encoding="utf-8")
        rows.append((["run", str(path)], {}, code))
    for argv, env, code in LIMIT_COMMANDS.values():
        rows.append(([a.format(out=directory) for a in argv], env, code))
    return rows


def assert_settings_change_nothing(rows, settings, cwd):
    """Runs each CLI row (argv, environment, exit code) in fresh `python -m
    pi1lab` processes in ``cwd``: once with every variable that ``settings``
    names unset, then once under each setting, a dict of variables. Each
    row must exit with its code, and every setting must give the unset
    run's exit code, stdout and stderr bytes."""
    names = {name for setting in settings for name in setting}
    base = {k: v for k, v in os.environ.items() if k not in names}
    base["PYTHONPATH"] = SRC
    for argv, env, code in rows:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "pi1lab", *argv],
                capture_output=True, timeout=120, cwd=cwd, env={**base, **env, **setting},
            )
            for setting in ({}, *settings)
        ]
        label = [a[:80] for a in argv]
        assert runs[0].returncode == code, (label, runs[0].stderr[-2000:])
        for setting, run in zip(settings, runs[1:]):
            assert (run.returncode, run.stdout, run.stderr) == (code, runs[0].stdout, runs[0].stderr), (label, setting)


@pytest.fixture
def limit_640():
    """The interpreter's int-string limit at 640, the least it accepts, for
    one test, and the old limit restored after it; skipped where there is
    no such limit (Python before 3.10.7)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-string limit before Python 3.10.7")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def at_default_limit(capsys, argv):
    """``run_cli`` of ``argv`` with the int-string limit at its default, and
    the limit the test set restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        return run_cli(capsys, argv)
    finally:
        sys.set_int_max_str_digits(limit)


class TestIntStringLimit:
    """Under the least int-string limit, 640, each command prints what it
    prints under the default limit: its literals are read and its decimals
    written in pieces of at most 600 digits."""

    def test_dist_at_1000_places(self, capsys, monkeypatch, limit_640):
        argv, env, _ = DIST_ROW
        monkeypatch.setenv("PI1LAB_DIGITS", env["PI1LAB_DIGITS"])
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == at_default_limit(capsys, argv)
        assert code == 0 and len(out.split("\n")[1].split(".")[1]) == 1000

    def test_dist_in_fresh_processes(self, tmp_path):
        """The dist row at 640; ci_scale.py's knob gate runs every row under every knob."""
        assert_settings_change_nothing([DIST_ROW], [{"PYTHONINTMAXSTRDIGITS": "640"}], tmp_path)

    @pytest.mark.parametrize("name", sorted(LIMIT_SCRIPTS))
    def test_scripts_with_long_literals(self, capsys, tmp_path, limit_640, name):
        text, want = LIMIT_SCRIPTS[name]
        path = tmp_path / "limit.pi1"
        path.write_text(text, encoding="utf-8")
        got = run_cli(capsys, ["run", str(path)])
        assert got == at_default_limit(capsys, ["run", str(path)])
        assert got[0] == want
        assert "Traceback" not in got[2]

    @pytest.mark.parametrize("name", sorted(LIMIT_COMMANDS))
    def test_long_options(self, capsys, tmp_path, monkeypatch, limit_640, name):
        argv, env, want = LIMIT_COMMANDS[name]
        argv = [a.format(out=tmp_path) for a in argv]
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        got = run_cli(capsys, argv)
        assert got == at_default_limit(capsys, argv)
        assert got[0] == want
        assert _N700 in (got[1] if want == 0 else got[2])


# The pi1lab modules that each entry point loads in a fresh process: argv
# after the interpreter, and the sorted pi1lab entries of sys.modules at the
# end. The package loads each export on first access, and only run, render,
# word and dist load the script language (dsl, with runner), so demo and
# hausdorff compile neither.
SPACES_MODULES = [
    "pi1lab",
    "pi1lab.exactnum",
    "pi1lab.geometry",
    "pi1lab.kernels",
    "pi1lab.records",
    "pi1lab.report",
    "pi1lab.spaces",
]
CLI_MODULES = sorted(SPACES_MODULES + ["pi1lab.cli", "pi1lab.loops", "pi1lab.pi1", "pi1lab.svg", "pi1lab.words"])
ENTRY_POINT_MODULES = {
    "from-pi1lab-import-spaces": (["-c", "from pi1lab import spaces"], SPACES_MODULES),
    "import-pi1lab-kernels": (["-c", "import pi1lab.kernels"], ["pi1lab", "pi1lab.kernels"]),
    "demo-whitehead": (["-m", "pi1lab", "demo", "whitehead"], CLI_MODULES),
    "hausdorff": (["-m", "pi1lab", "hausdorff", "--upto", "3"], CLI_MODULES),
    "run": (["-m", "pi1lab", "run", "classify.pi1"], sorted(CLI_MODULES + ["pi1lab.dsl", "pi1lab.runner"])),
}


class TestModuleEntryPoint:
    @pytest.mark.parametrize("case", ENTRY_POINT_MODULES)
    def test_entry_point_loads_only_its_modules(self, tmp_path, case):
        """The package imported every module its exports live in, loops,
        pi1 and words among them, on any import, and cli imported dsl for
        every command. A fresh interpreter's ``-X importtime`` prints a
        line for each module it imports, so its pi1lab lines are the pi1lab
        entries of its sys.modules."""
        (tmp_path / "classify.pi1").write_text("space S = Y(5)\nloop f = C(3).once\nclassify f\n", encoding="utf-8")
        args, modules = ENTRY_POINT_MODULES[case]
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
        )
        loaded = re.findall(r"^import time:.*\| +(pi1lab(?:\.\w+)?)$", done.stderr, flags=re.M)
        assert (done.returncode, sorted(loaded)) == (0, modules)

    def test_python_m_pi1lab(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fresh = main_matches_fresh(capsys, [["word", "C(4).once"], ["demo", "nope"]])
        assert [(p.returncode, p.stdout, p.stderr) for p in fresh] == [
            (0, b"word: g4\n", b""),
            (2, b"", b"error: unknown demo 'nope'; try 'whitehead'\n"),
        ]

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        """Records were dataclasses, whose import loads inspect, ast, dis
        and tokenize: about a third of the package's import time."""
        env = dict(os.environ, PYTHONPATH=SRC)
        code = "import sys, pi1lab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


class TestRepeatedCalls:
    """main builds its parser once per process; everything else is read per call."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None, raising=False)

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []

        def counted(_orig=cli.build_parser):
            built.append(1)
            return _orig()

        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in (["word", "C(4).once"], ["hausdorff", "--upto", "3"], ["word", "C(5).once"]):
            assert run_cli(capsys, argv)[0] == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv,code",
        (
            (["run", "{script}"], 0),
            (["render", "{script}"], 0),
            (["word", "word g2 g3^-1"], 0),
            (["dist", "C(2).once", "alpha.updown"], 0),
            (["hausdorff", "--upto", "4"], 0),
            (["wrod", "C(4).once"], 2),
            (["dist", "C(2).once"], 2),
            (["demo", "whitehead", "--nmax", "1001"], 2),
            (["--help"], 0),
        ),
        ids=("run", "render", "word", "dist", "hausdorff", "unknown-command", "missing-argument", "nmax", "help"),
    )
    def test_two_calls_agree(self, capsys, tmp_path, argv, code):
        script = tmp_path / "scene.pi1"
        script.write_text(GOOD_SCRIPT.format(out=tmp_path / "scene.svg"), encoding="utf-8")
        argv = [a.format(script=script) for a in argv]
        first = run_cli(capsys, argv)
        assert run_cli(capsys, argv) == first
        assert first[0] == code
        if argv == ["--help"]:
            assert first[1].startswith("usage: pi1lab") and first[2] == ""
        elif code == 2:
            assert first[1] == "" and first[2].startswith("usage: pi1lab")
        else:
            assert first[1] and first[2] == ""

    def test_digits_read_per_call(self, capsys, monkeypatch):
        argv = ["dist", "C(2).once", "alpha.updown"]
        monkeypatch.setenv("PI1LAB_DIGITS", "5")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and "dist_dec(5): 0.50000\n" in out
        monkeypatch.delenv("PI1LAB_DIGITS")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and "dist_dec(40): 0.5000000000000000000200000" in out

    @pytest.mark.parametrize("argv", (["--help"], ["run", "--help"]), ids=("help", "run-help"))
    def test_help_follows_columns(self, capsys, monkeypatch, argv):
        """The cached parser wraps help at the width of each call."""
        helps = {}
        for columns in ("200", "40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = run_cli(capsys, argv)
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert (code, out, err) == (0, capsys.readouterr().out, "")
            assert helps.setdefault(columns, out) == out
        assert helps["40"] != helps["200"]

    def test_usage_error_follows_stderr(self, capsys):
        assert run_cli(capsys, ["word", "C(4).once"])[0] == 0
        assert cli._parser is not None
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["wrod"])
        assert exc.value.code == 2
        assert err.getvalue().startswith("usage: pi1lab") and "invalid choice: 'wrod'" in err.getvalue()
        assert capsys.readouterr() == ("", "")


class TestRender:
    def test_render_skips_probes(self, capsys, tmp_path):
        script = tmp_path / "scene.pi1"
        out_svg = tmp_path / "scene.svg"
        script.write_text(
            "space S = Y(6)\nloop f = alpha.updown\nprobe disjointness up_to=4\n"
            f"render S f -> {out_svg}\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, ["render", str(script)])
        assert code == 0
        assert "== probe:" not in out
        assert out_svg.exists()

    def test_render_requires_directive(self, capsys, tmp_path):
        script = tmp_path / "empty.pi1"
        script.write_text("space S = Y(6)\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["render", str(script)])
        assert code == 2 and "render directive" in err


# Refusals across the commands, each through main as (argv, exit code,
# stdout, stderr); "{d}" is the test's directory. Exit 2 is a refusal before
# anything runs, exit 1 one while running, after what ran printed its blocks.
REFUSALS = {
    "run-missing": (
        ["run", "{d}/missing.pi1"], 1, "",
        "error: [Errno 2] No such file or directory: '{d}/missing.pi1'\n",
    ),
    "render-missing": (
        ["render", "{d}/missing.pi1"], 1, "",
        "error: [Errno 2] No such file or directory: '{d}/missing.pi1'\n",
    ),
    "render-not-utf8": (
        ["render", "{d}/not-utf8.pi1"], 2, "",
        "error: script is not valid UTF-8: "
        "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n",
    ),
    "render-over-cap": (
        ["render", "{d}/over-cap.pi1"], 2, "",
        f"error: script exceeds the limit of {dsl.MAX_SCRIPT_BYTES} bytes\n",
    ),
    "demo-unknown": (["demo", "nope"], 2, "", "error: unknown demo 'nope'; try 'whitehead'\n"),
    "word-points-outside": (
        ["word", "points [(0, 0, 0), (1/2, 1, 1), (1, 0, 0)]"], 1, "",
        "error: invalid loop: piece 0 on [0, 1/2]: breakpoint (1, 1) is outside the space\n",
    ),
    "hausdorff-too-long": (["hausdorff", "--upto", "300"], 1, "", too_long("probe hausdorff: up_to=300")),
    "run-after-output": (["run", "{d}/slsc.pi1"], 1, "word: g2\n", "error: samples must be positive\n"),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_exit_code_and_streams(self, capsys, tmp_path, case):
        (tmp_path / "not-utf8.pi1").write_bytes(b"space S = Y(20)\n# \xff\xfe\n")
        (tmp_path / "over-cap.pi1").write_bytes(b"\n" * (dsl.MAX_SCRIPT_BYTES + 1))
        (tmp_path / "slsc.pi1").write_text(
            "space S = Y(32)\nloop a = C(2).once\nclassify a\nprobe slsc radius=1/4 samples=0\n", encoding="utf-8"
        )
        argv, code, out, err = REFUSALS[case]
        d = str(tmp_path)
        got = run_cli(capsys, [arg.replace("{d}", d) for arg in argv])
        assert got == (code, out, err.replace("{d}", d))


# Hostile inputs, each run whole through `python -m pi1lab` in a fresh
# process by run_hostile: (script text or bytes, or argv; exit code; a
# pattern the whole stderr must match; stdout, or a count for some of its
# lines, or None; a wall-clock bound in seconds; a peak RSS bound in MB).
Hostile = namedtuple("Hostile", "source code err out wall_s rss_mb", defaults=("", 10, None))
OVER_WORK = r"parse error: line \d+, col 1: [^\n]* exceeds the limit of 3000000\n"
NESTED = "concat(" * 1000 + "C(2).once" + ")" * 1000
NESTED_ERR = r"parse error: line 1, col 1: concat nesting exceeds the limit of 100 levels\n"
HOSTILE = {
    # Each passes dsl.MAX_SCRIPT_WORK: the HOSTILE_LINES scripts that spend
    # it, and the literals of `word` and `dist`, priced with the classify or
    # dist they stand for.
    **{
        name: Hostile(hostile_script(HOSTILE_LINES[name][0]), 2, OVER_WORK)
        for name in (
            "word-exponent-at-digit-limit",
            "discreteness-trial-letters",
            "script-letters",
            "classify-letters",
            "discreteness-high-circles",
            "repeated-discreteness-long-word",
            "disjointness-up-to-100",
            "repeated-render",
        )
    },
    "word-literal": Hostile(["word", f"word(g2^{NINES[:4300]})"], 2, OVER_WORK),
    "dist-literal": Hostile(["dist", "C(2).once", f"word(g2^{NINES[:4300]})"], 2, OVER_WORK),
    "dist-literals": Hostile(["dist", "word(g2^6818)", "word(g3^6818)"], 2, OVER_WORK),
    # Nesting past dsl.MAX_NESTING ended in a RecursionError traceback.
    "word-nested": Hostile(["word", NESTED], 2, NESTED_ERR),
    "dist-nested": Hostile(["dist", "C(3).once", NESTED], 2, NESTED_ERR),
    # Not UTF-8, refused before parsing: it ended in a traceback.
    "not-utf8": Hostile(
        b"space S = Y(20)\n# \xff\xfe\n", 2,
        r"error: script is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n",
    ),
    # Just under dsl.MAX_SCRIPT_BYTES, 307,676 pieces tokenized whole (1.3-2 s
    # of CPU, about 180 MB at about 120 bytes a token); then 3.9 MB of `(`,
    # one token a byte (about 475 MB). Their 10 s and 50 s share one 60 s.
    "points-under-cap": Hostile(
        "space S = Y(20)\nloop q = points [" + ", ".join(["(1/2, 0, 0)"] * 307676) + "]\n", 2, OVER_WORK, rss_mb=256
    ),
    "open-parens": Hostile(
        "space S = Y(20)\nloop a = " + "(" * 3900000 + "\n", 2, r"parse error: line 2, col 1: [^\n]*\n", wall_s=50, rss_mb=600
    ),
    # A squared perturbation of more than 4300 digits: one error line, not a
    # ValueError traceback. Which trial overflows depends on the draw.
    "long-perturbation": Hostile(LONG_PERTURBATION_SCRIPT.format(seed=1), 1, r"error: [^\n]*\n"),
    # Refused while the radius was priced per pair of touched circles.
    "radius-refuses": Hostile(RADIUS_ADMITTED[0][0], 1, re.escape(RADIUS_ADMITTED[0][3]), wall_s=2),
    "radius-probes": Hostile(
        f"space T = X(20)\nloop a = word {THROUGH_C21}\n"
        + "probe discreteness loop=a trials=100 magnitude=1/100000000\n" * 20,
        0, "", {"verdict: PASS": 20, "param: agreeing_trials = 100": 20}, wall_s=2,
    ),
    # 4 s when each space built its own circles.
    "spaces-share-circles": Hostile(REPEATED_SPACE_SCRIPT, 0, "", None),
}


def run_hostile(row, directory):
    """Runs one HOSTILE row in a fresh process in ``directory``, killed at
    its wall bound, and checks its exit code, streams and bounds. The peak
    RSS is the child's, read by os.wait4."""
    if isinstance(row.source, list):
        argv = row.source
    else:
        script = row.source.encode() if isinstance(row.source, str) else row.source
        (directory / "hostile.pi1").write_bytes(script)
        argv = ["run", "hostile.pi1"]
    with open(directory / "stdout", "w+b") as out, open(directory / "stderr", "w+b") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "pi1lab", *argv],
            cwd=directory, stdout=out, stderr=err, env=dict(os.environ, PYTHONPATH=SRC),
        )
        timer = threading.Timer(row.wall_s, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    assert (child.returncode, wall < row.wall_s) == (row.code, True), (child.returncode, wall, stderr)
    assert re.fullmatch(row.err, stderr), stderr
    if isinstance(row.out, dict):
        counts = Counter(stdout.splitlines())
        assert {line: counts[line] for line in row.out} == row.out
    elif row.out is not None:
        assert stdout == row.out
    peak_mb = usage.ru_maxrss / 1024
    assert row.rss_mb is None or peak_mb < row.rss_mb, peak_mb


class TestHostileProcesses:
    """The full table runs in tests/ci_scale.py; here its two cheapest rows,
    one of each kind of source, run through run_hostile."""

    @pytest.mark.parametrize("name", ["not-utf8", "word-nested"])
    def test_cheapest_rows(self, tmp_path, name):
        run_hostile(HOSTILE[name], tmp_path)

    def test_points_script_under_the_byte_cap(self):
        assert len(HOSTILE["points-under-cap"].source.encode()) < dsl.MAX_SCRIPT_BYTES


# sha256 of the report of `demo whitehead --nmax 32 --seed s` with its out-dir
# replaced by "@", for each seed 0..15 that the benchmark's demo workload
# draws, and of the SVG it writes (the scene does not depend on the seed).
# Every seed drives the random draws of the probes its own way.
DEMO_REPORT_SHA256 = {
    0: "a96d15be7a4b4473761d94c75c25ebb0436a124e7c99b6dbc4839a9ce96c99a6",
    1: "90b0ec600a7afb0f922375b28ce9b7060f374585e99d3a4e78990e92fc194776",
    2: "d1121e677372589b27527890850d969eb664c8ddc9fcaddab1af7db1f80d2414",
    3: "cdb8a979df87a9f7ca317af1e5844b594917d66169954f8e4d1c108cb3231b93",
    4: "6f30b72fcc05153a2284bb2b57d0d41ea2b8c53a2f9ed950443e2b7eea4ecb6e",
    5: "3799281d4aeb3e78ae24a1761960aa8cd7b562d77ac9f849ca494b1903962d37",
    6: "3bcb447c6815dda8b51e6a04089e103e2795f9ab6f701fa9b1becdeb911207c7",
    7: "3df33de794012a3b45e64bda314f6176b53348cd9d078a335ef7e1a083c03282",
    8: "0410f86227f52c7a3985bad1632f8cc2232868ffaf5b15cfebdfe1673ca16945",
    9: "fc5cddc306f344fce5d9b3626df515a261711e250fc68469bfa40cf74fe0c061",
    10: "f3a13e677b42061b885872c8a198f286ecd8bdef7490f253124ebad8b146db48",
    11: "51af9607f7921272e755cd1901d2dcf435538dca2ab21c8a3c7708848a1d2e20",
    12: "0696dea6fd601d9ad598d2071ea6348e4a2ee44d971988b891ed8ea9eb13e190",
    13: "84361ac849891eab878c8b7fc878b7b30daf40119bbbd7d06df02477c1e6c12e",
    14: "051038980fa6d9e04db15dfab7a3efad70f0a52b596c6386b1542d6f3bd6588e",
    15: "fa24dd76c7046ce5ad065c25c903fba10e6dbb4679dcc82472fcc14f71518d6a",
}
DEMO_SVG_SHA256 = "aec7b7a3294458b2d059ba6bdb31cd0c15783081edc60afedae3dfea0d2b1f49"


class TestDemo:
    @pytest.mark.parametrize("seed", sorted(DEMO_REPORT_SHA256))
    def test_pinned_bytes(self, tmp_path, seed):
        code, text = demo_whitehead(nmax=32, seed=seed, out_dir=str(tmp_path))
        assert code == 0
        report = (text + "\n").replace(str(tmp_path), "@").encode()
        assert hashlib.sha256(report).hexdigest() == DEMO_REPORT_SHA256[seed]
        svg = (tmp_path / "whitehead.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == DEMO_SVG_SHA256

    def test_digests_are_the_benchmarks(self):
        """The pinned digests are the ones perfbench/workloads.py checks
        each demo request against, read from its source without running it."""
        source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        pinned = {}
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                pinned[getattr(node.targets[0], "id", None)] = node.value
        assert ast.literal_eval(pinned["DEMO_REPORT_SHA256"]) == tuple(
            DEMO_REPORT_SHA256[s] for s in range(len(DEMO_REPORT_SHA256))
        )
        assert ast.literal_eval(pinned["DEMO_SVG_SHA256"]) == DEMO_SVG_SHA256

    def test_fraction_count(self, tmp_path, monkeypatch):
        """A warmed seed-1 demo builds at most 740 Fractions. Paths keep
        their parameters as int pairs, so builders wrap none, each edge
        brackets its length once, a discreteness trial compares its
        squared distance as an int pair, circles are built on int quads,
        and each width is read as the pair its profile keeps; when every
        builder wrapped its pairs the count was 21,236, when every slide
        bracketed its edge 5,119, when each trial built its distance as
        Fractions 2,875, when each circle built its vertices as Fractions
        1,375, and when each build and certificate evaluated its widths
        afresh 839."""
        demo_whitehead(nmax=32, seed=1, out_dir=str(tmp_path))
        built = [0]
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built[0] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        code, _ = demo_whitehead(nmax=32, seed=1, out_dir=str(tmp_path))
        monkeypatch.undo()
        assert code == 0
        assert 0 < built[0] <= 740

    def test_work_counts(self, tmp_path, monkeypatch):
        """A warmed seed-1 demo makes at most 60 dyadic_sqrt_bounds calls,
        since each edge brackets its length once (598 when every slide and
        bounce bracketed its edge again), makes no ``kernels.on_segment``
        call to locate a point, as every point it locates is a circle
        vertex, found by its quad (2,382 Segment.contains calls when each
        point was tested against the edges, 3,482 when the apex test ran on
        the pieces), builds 69 circles, builds 589 paths and
        builds 37 classes. A discreteness trial checks and classifies the
        tuples it draws, and the round trip and the slsc probe compare
        syllables, so neither a trial nor a round-trip word builds a class,
        and a trial builds no path: the classes are the 5 probed loops'
        words and the 32 of the nondiscreteness probe. With a path and a
        class per trial and a class per word read, the demo built 1,089
        paths (2,390 with a subdivided copy of the loop first) and 987
        classes."""
        demo_whitehead(nmax=32, seed=1, out_dir=str(tmp_path))
        brackets, contains, paths, circles, classes = [0], [0], [0], [0], [0]

        def bounds(*args, _orig=exactnum.dyadic_sqrt_bounds):
            brackets[0] += 1
            return _orig(*args)

        def contained(*args, _orig=kernels.on_segment):
            contains[0] += 1
            return _orig(*args)

        def fill(*args, _orig=geometry._fill):
            paths[0] += 1
            return _orig(*args)

        def build(*args, _orig=spaces.build_circle):
            circles[0] += 1
            return _orig(*args)

        def homotopy_class(self, *args, _orig=pi1.HomotopyClass.__init__):
            classes[0] += 1
            return _orig(self, *args)

        for mod in (geometry, spaces):
            monkeypatch.setattr(mod, "dyadic_sqrt_bounds", bounds)
        monkeypatch.setattr(geometry, "_fill", fill)
        # in spaces only: a disjointness check's seg_intersect calls the
        # kernels' own on_segment
        monkeypatch.setattr(spaces, "kernels", SimpleNamespace(**{**vars(kernels), "on_segment": contained}))
        monkeypatch.setattr(spaces, "build_circle", build)
        monkeypatch.setattr(pi1.HomotopyClass, "__init__", homotopy_class)
        code, _ = demo_whitehead(nmax=32, seed=1, out_dir=str(tmp_path))
        monkeypatch.undo()
        assert code == 0
        assert 0 < brackets[0] <= 60
        assert contains[0] == 0
        assert circles[0] == 69
        assert (paths[0], classes[0]) == (589, 37)

    def test_point_wrappers(self, tmp_path, monkeypatch):
        """A warmed seed-1 demo wraps no kernel quad in a Point2, calls
        Point2(x, y) never and builds no Segment: paths, perturbations,
        slsc samples, bounces, circles, the edges' length brackets
        (``Circle.length_hi``), the disjointness check and the SVG stay on
        quads. When the perturbation table and the slsc samples read the
        brackets off Segment edges, the demo wrapped 16 quads and built 24
        Segments; when circles kept Point2 vertices it made 829 wraps, and
        when paths kept Point2 points 2,063."""
        demo_whitehead(nmax=32, seed=1, out_dir=str(tmp_path))
        wraps, inits, segments = [0], [0], [0]

        def wrap(q, _orig=geometry._from_quad):
            wraps[0] += 1
            return _orig(q)

        def init(self, *args, _orig=geometry.Point2.__init__):
            inits[0] += 1
            return _orig(self, *args)

        def segment(self, *args, _orig=geometry.Segment.__init__):
            segments[0] += 1
            return _orig(self, *args)

        binders = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "pi1lab"]
        binders = [mod for mod in binders if getattr(mod, "_from_quad", None) is geometry._from_quad]
        assert geometry in binders and spaces in binders
        for mod in binders:
            monkeypatch.setattr(mod, "_from_quad", wrap)
        monkeypatch.setattr(geometry.Point2, "__init__", init)
        monkeypatch.setattr(geometry.Segment, "__init__", segment)
        code, _ = demo_whitehead(nmax=32, seed=1, out_dir=str(tmp_path))
        monkeypatch.undo()
        assert code == 0
        assert (wraps[0], inits[0], segments[0]) == (0, 0, 0)

    def test_unknown_demo(self, capsys):
        code, _, err = run_cli(capsys, ["demo", "mystery"])
        assert code == 2 and "unknown demo" in err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_out_dir_refused_before_any_probe(self, capsys, tmp_path, monkeypatch, kind):
        """An --out-dir that is not a directory ran every probe, about 0.27 s
        in a fresh process, and then exited 1 on writing the scene."""
        out_dir = tmp_path / "no" / "such"
        if kind == "file":
            out_dir = tmp_path / "a-file"
            out_dir.write_text("", encoding="utf-8")
        ran = []
        for name in (
            "verify_disjointness",
            "hausdorff_convergence",
            "probe_isomorphism_roundtrip",
            "probe_nondiscreteness_y",
            "probe_discreteness_x",
            "probe_slsc_y",
        ):
            monkeypatch.setattr(cli, name, lambda *a, name=name, _orig=getattr(cli, name): ran.append(name) or _orig(*a))
        got = run_cli(capsys, ["demo", "whitehead", "--out-dir", str(out_dir)])
        assert got == (2, "", f"error: --out-dir {str(out_dir)!r} is not a directory\n")
        assert ran == []

    def test_small_demo_deterministic(self, tmp_path):
        # nmax must exceed 10 for the nondiscreteness tail to drop below 1/10
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        code1, text1 = demo_whitehead(nmax=12, seed=7, out_dir=str(d1))
        code2, text2 = demo_whitehead(nmax=12, seed=7, out_dir=str(d2))
        assert code1 == code2 == 0
        assert text1.replace(str(d1), "@") == text2.replace(str(d2), "@")
        assert (d1 / "whitehead.svg").read_bytes() == (d2 / "whitehead.svg").read_bytes()

    def test_demo_summary_structure(self, tmp_path):
        code, text = demo_whitehead(nmax=12, seed=1, out_dir=str(tmp_path))
        assert code == 0
        assert "== summary ==" in text
        for label in (
            "disjointness",
            "hausdorff_convergence",
            "isomorphism_roundtrip",
            "nondiscreteness_Y",
            "discreteness_X",
            "slsc_Y",
        ):
            assert f"{label}: PASS" in text
        assert "headline:" in text and text.rstrip().endswith("verdict: PASS")
