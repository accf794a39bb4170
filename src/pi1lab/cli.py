"""The pi1lab command line.

Subcommands:

    pi1lab run <script>            execute a script (use '-' for stdin)
    pi1lab demo whitehead          the full pipeline: disjointness, Hausdorff
                                   table, isomorphism round trips, the three
                                   probes, a summary verdict and an SVG scene
    pi1lab word <loop-literal>     classify a one-off loop literal
    pi1lab dist <loop> <loop>      exact sup distance between two literals
    pi1lab hausdorff --upto K      the Hausdorff convergence table
    pi1lab render <script>         execute only bindings and render directives

Exit codes: 0 success / all PASS; 2 refused before anything runs (usage,
``--nmax`` or ``--upto`` outside 2 to ``spaces.MAX_CIRCLE_INDEX``, parse
errors, script limits, a script that is not UTF-8, ``render`` of a script
with no render directive, an unknown demo, a demo ``--out-dir`` that is not
a directory); 1 refused while running, or any FAIL verdict. ``main`` is the
one place that maps an error to its exit code and its one stderr line.
``run``, ``render``, ``word`` and ``dist`` import the script runner
(``runner``), and with it the script language (``dsl``), when they run;
``demo`` and ``hausdorff`` never load either. PI1LAB_DIGITS sets report
decimal places (default 40), from 1 to 4300; any other value exits 2. It
and the options ``--nmax``, ``--upto`` and ``--seed`` are read, and printed
back, in 600-digit pieces (``exactnum``), so no answer depends on the
int-string limit.

``main(argv)`` may be called repeatedly in one process and returns the exit
code; a usage error or ``--help`` raises ``SystemExit`` as argparse does.
The argument parser is built on the first call and kept for the process.
The environment (``PI1LAB_DIGITS``, ``COLUMNS``) and the standard streams
are read on every call, so each call prints what a fresh process would.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import import_module
from typing import List, Optional, Tuple

from .exactnum import decimal_int, decimal_text
from .geometry import GeometryError, sup_distance
from .loops import Loop, LoopError, constant_loop, realize_word, standard_f, standard_fn
from .pi1 import (
    ProbeParameterError,
    classify,
    probe_discreteness_x,
    probe_isomorphism_roundtrip,
    probe_nondiscreteness_y,
    probe_slsc_y,
)
from .report import ProbeReport, exact_str, report_digits
from .spaces import (
    MAX_CIRCLE_INDEX,
    SpaceError,
    SpaceKind,
    compact_y,
    hausdorff_convergence,
    verify_disjointness,
)
from .svg import write_scene
from .words import WordError, format_word, parse_word

RunError = (GeometryError, LoopError, SpaceError, ProbeParameterError, WordError, OSError)


class _Refused(Exception):
    """A command refused before anything runs: ``error: ...``, exit 2."""


def _dist_text(a: Loop, b: Loop, where: str) -> str:
    """The exact sup distance of two loops as output text; ``where`` names
    the statement in the refusal of a value too long to print."""
    d = sup_distance(a.path, b.path)
    digits = report_digits()
    return f"dist_sq: {exact_str(d.squared, where)}\ndist_dec({digits}): {d.decimal(digits)}"


def _cmd_run(args) -> int:
    from . import runner

    return runner.run_script(runner.load_script(args.script))


def _cmd_render(args) -> int:
    from . import dsl, runner

    # the statements that render runs: the bindings and the render directives
    runs = (dsl.SpaceDecl, dsl.LoopBinding, dsl.RenderStmt)
    kept = tuple(st for st in runner.load_script(args.script).statements if isinstance(st, runs))
    if not any(isinstance(st, dsl.RenderStmt) for st in kept):
        raise _Refused("script has no render directive")
    return runner.run_script(dsl.Script(kept))


def _cmd_word(args) -> int:
    from . import runner

    (lp,) = runner.one_off_loops(" ".join(args.literal))
    print(f"word: {format_word(classify(lp).word)}")
    return 0


def _cmd_dist(args) -> int:
    from . import runner

    print(_dist_text(*runner.one_off_loops(args.first, args.second), "dist"))
    return 0


def _cmd_hausdorff(args) -> int:
    rep = hausdorff_convergence(compact_y(), args.upto)
    print(rep.render().rstrip("\n"))
    return 0 if rep.passed else 1


def demo_whitehead(nmax: int, seed: int, out_dir: str) -> Tuple[int, str]:
    """The full pipeline; returns (exit_code, report_text) and writes the scene SVG."""
    y = compact_y()
    x = y.sibling(SpaceKind.BOUQUET_X)
    blocks: List[str] = []
    summary: List[Tuple[str, bool]] = []

    def add(rep: ProbeReport, label: str, bucket: Optional[List[bool]] = None) -> None:
        blocks.append(rep.render().rstrip("\n"))
        if bucket is None:
            summary.append((label, rep.passed))
        else:
            bucket.append(rep.passed)

    add(verify_disjointness(y, 20), "disjointness")
    add(hausdorff_convergence(y, 20), "hausdorff_convergence")
    add(probe_isomorphism_roundtrip(100, 10, seed, y), "isomorphism_roundtrip")
    add(probe_nondiscreteness_y(nmax, Fraction(1, 10), y), "nondiscreteness_Y")
    corpus = [
        constant_loop(x),
        standard_fn(2, x),
        standard_fn(3, x),
        realize_word(parse_word("g2 g3"), x),
        realize_word(parse_word("g2^2 g5^-1"), x),
    ]
    discr: List[bool] = []
    for i, lp in enumerate(corpus):
        add(probe_discreteness_x(lp, 100, Fraction(1, 1000), seed + i), "discreteness_X", discr)
    summary.append(("discreteness_X", all(discr)))
    add(probe_slsc_y(Fraction(1, 4), 50, seed, y), "slsc_Y")

    svg_path = os.path.join(out_dir, "whitehead.svg")
    write_scene(
        svg_path,
        [(y, 8)],
        [standard_f(y), standard_fn(5, y)],
    )
    blocks.append(f"wrote {svg_path}")

    all_pass = all(ok for _, ok in summary)
    lines = ["== summary =="]
    for label, ok in summary:
        lines.append(f"{label}: {'PASS' if ok else 'FAIL'}")
    lines.append(
        "headline: pi1(X) and pi1(Y) are isomorphic as groups yet not homeomorphic "
        "as topological groups, so X and Y have distinct homotopy types: "
        + ("PASS" if all_pass else "FAIL")
    )
    lines.append(f"verdict: {'PASS' if all_pass else 'FAIL'}")
    blocks.append("\n".join(lines))
    return (0 if all_pass else 1), "\n\n".join(blocks)


def _cmd_demo(args) -> int:
    if args.what != "whitehead":
        raise _Refused(f"unknown demo {args.what!r}; try 'whitehead'")
    if not os.path.isdir(args.out_dir):
        raise _Refused(f"--out-dir {args.out_dir!r} is not a directory")
    code, text = demo_whitehead(args.nmax, args.seed, args.out_dir)
    print(text)
    return code


def _int_option(text: str) -> int:
    """An integer option, read by ``decimal_int``."""
    return decimal_int(text)


# argparse names a refused value's type by __name__: "invalid int value: 'x'"
_int_option.__name__ = "int"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pi1lab",
        description="exact loop classification on a planar triangle bouquet and its compactification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a script")
    p_run.add_argument("script", help="script path, or - for stdin")

    p_demo = sub.add_parser("demo", help="run a built-in pipeline")
    p_demo.add_argument("what", help="demo name (whitehead)")
    p_demo.add_argument("--nmax", type=_int_option, default=32, help="largest circle index for the nondiscreteness table")
    p_demo.add_argument("--seed", type=_int_option, default=0, help="seed for all randomized probes")
    p_demo.add_argument("--out-dir", default=".", help="directory for the scene SVG")

    p_word = sub.add_parser("word", help="classify a loop literal")
    p_word.add_argument("literal", nargs="+", help="e.g. 'C(4).once' or 'word g2 g3^-1'")

    p_dist = sub.add_parser("dist", help="exact sup distance between two loop literals")
    p_dist.add_argument("first")
    p_dist.add_argument("second")

    p_h = sub.add_parser("hausdorff", help="Hausdorff convergence table")
    p_h.add_argument("--upto", type=_int_option, required=True)

    p_render = sub.add_parser("render", help="execute only bindings and render directives")
    p_render.add_argument("script", help="script path, or - for stdin")
    return parser


# The parser of main, built by its first call and kept for the process.
_parser: Optional[argparse.ArgumentParser] = None

_COMMANDS = {
    "run": _cmd_run,
    "render": _cmd_render,
    "demo": _cmd_demo,
    "word": _cmd_word,
    "dist": _cmd_dist,
    "hausdorff": _cmd_hausdorff,
}


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    for option in ("nmax", "upto"):
        value = getattr(args, option, None)
        if value is not None and value < 2:
            parser.error(f"--{option} {decimal_text(value)} is below 2, the least circle index")
        if value is not None and value > MAX_CIRCLE_INDEX:
            parser.error(f"--{option} {decimal_text(value)} exceeds the limit {MAX_CIRCLE_INDEX} on circle indices")
    try:
        report_digits()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return _COMMANDS[args.command](args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Evaluated only for an error that the clauses above let by: a DslError
    # comes only from the script commands, which have loaded dsl.
    except import_module(".dsl", __package__).DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
