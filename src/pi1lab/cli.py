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

Exit codes: 0 success / all PASS, 1 any FAIL verdict or runtime error,
2 usage or parse errors. One-off literals are evaluated in the compact
space Y with the default width profile. PI1LAB_DIGITS sets report decimal
places (default 40), from 1 to 4300; any other value exits 2.

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
from typing import Dict, List, Optional, Tuple

from . import dsl
from .geometry import GeometryError, _from_quad, _path, sup_distance
from .loops import (
    Loop,
    LoopError,
    concatenate_all,
    constant_loop,
    realize_word,
    reverse,
    standard_f,
    standard_fn,
)
from .pi1 import (
    ProbeParameterError,
    classify,
    probe_discreteness_x,
    probe_isomorphism_roundtrip,
    probe_nondiscreteness_y,
    probe_slsc_y,
)
from .report import FAIL, ProbeReport, exact_str, report_digits
from .spaces import (
    Circle,
    SpaceError,
    SpaceHandle,
    SpaceKind,
    compact_y,
    default_y,
    hausdorff_convergence,
    profile_by_name,
    verify_disjointness,
)
from .svg import write_scene
from .words import WordError, format_word, parse_word

RunError = (GeometryError, LoopError, SpaceError, ProbeParameterError, WordError, OSError)


class _Runner:
    """Executes a parsed script; collects output text and a verdict flag."""

    def __init__(self, bindings_only: bool = False):
        self.spaces: Dict[str, SpaceHandle] = {}
        # one circle cache per width profile, shared by every space of the script
        self.circles: Dict[str, Dict[int, Circle]] = {}
        self.loops: Dict[str, Loop] = {}
        self.active: Optional[SpaceHandle] = None
        self.out: List[str] = []
        self.failed = False
        self.rendered = 0
        self.bindings_only = bindings_only

    def emit(self, text: str) -> None:
        self.out.append(text)

    def emit_report(self, rep: ProbeReport) -> None:
        self.emit(rep.render().rstrip("\n"))
        if rep.verdict == FAIL:
            self.failed = True

    def eval_expr(self, expr, space: SpaceHandle) -> Loop:
        if isinstance(expr, dsl.AlphaExpr):
            return standard_f(space)
        if isinstance(expr, dsl.CircleExpr):
            lp = standard_fn(expr.index, space)
            return reverse(lp) if expr.inverse else lp
        if isinstance(expr, dsl.ConcatExpr):
            parts = [
                self.loops[a] if isinstance(a, str) else self.eval_expr(a, space)
                for a in expr.args
            ]
            return concatenate_all(parts)
        if isinstance(expr, dsl.WordExpr):
            return realize_word(expr.word, space)
        if isinstance(expr, dsl.PointsExpr):
            return Loop(_path(expr._ts, tuple(map(_from_quad, expr._quads))), space)
        raise TypeError(f"not a loop expression: {expr!r}")

    def run(self, script: dsl.Script) -> int:
        for st in script.statements:
            if isinstance(st, dsl.SpaceDecl):
                profile = profile_by_name(st.width)
                kind = SpaceKind.BOUQUET_X if st.kind == "X" else SpaceKind.COMPACT_Y
                circles = self.circles.setdefault(profile.name, {})
                handle = SpaceHandle(kind, profile, st.hint, circles)
                self.spaces[st.name] = handle
                self.active = handle
            elif isinstance(st, dsl.LoopBinding):
                self.loops[st.name] = self.eval_expr(st.expr, self.active)
            elif isinstance(st, dsl.ClassifyStmt):
                if self.bindings_only:
                    continue
                cls = classify(self.loops[st.name])
                self.emit(f"word: {format_word(cls.word)}")
            elif isinstance(st, dsl.DistStmt):
                if self.bindings_only:
                    continue
                a, b = self.loops[st.first], self.loops[st.second]
                d = sup_distance(a.path, b.path)
                digits = report_digits()
                d_sq = exact_str(d.squared, f"dist {st.first} {st.second}")
                self.emit(f"dist_sq: {d_sq}\ndist_dec({digits}): {d.decimal(digits)}")
            elif isinstance(st, dsl.ProbeStmt):
                if self.bindings_only:
                    continue
                self.emit_report(self._run_probe(st))
            elif isinstance(st, dsl.RenderStmt):
                spaces = []
                loops = []
                for name in st.names:
                    if name in self.spaces:
                        handle = self.spaces[name]
                        spaces.append((handle, handle.hint))
                    else:
                        loops.append(self.loops[name])
                write_scene(st.out, spaces, loops)
                self.emit(f"wrote {st.out}")
                self.rendered += 1
            else:
                raise TypeError(f"not a statement: {st!r}")
        return 1 if self.failed else 0

    def _run_probe(self, st: dsl.ProbeStmt) -> ProbeReport:
        args = dict(st.args)
        space = self.active
        if st.kind == "disjointness":
            return verify_disjointness(space, args["up_to"])
        if st.kind == "hausdorff":
            return hausdorff_convergence(space, args["up_to"])
        if st.kind == "nondiscreteness":
            return probe_nondiscreteness_y(args["n_max"], args["epsilon"], space)
        if st.kind == "discreteness":
            return probe_discreteness_x(
                self.loops[args["loop"]],
                args["trials"],
                args["magnitude"],
                args.get("seed", 0),
            )
        if st.kind == "slsc":
            return probe_slsc_y(args["radius"], args["samples"], args.get("seed", 0), space)
        raise ValueError(f"unhandled probe kind {st.kind!r}")


# Largest single read of a script, in bytes. A read of n bytes allocates n
# bytes first: reading a 600-byte script with one read of the whole limit
# took 30 µs, and in chunks of this size 10 µs (Python 3.11, one core of a
# 2-vCPU VM).
_READ_CHUNK = 1 << 16


def _read_script(path: str) -> bytes:
    """The script's first MAX_SCRIPT_BYTES + 1 bytes: enough to tell an
    over-long script without reading it all."""
    if path == "-":
        return _read_limited(sys.stdin.buffer)
    with open(path, "rb") as fh:
        return _read_limited(fh)


def _read_limited(fh) -> bytes:
    """The first MAX_SCRIPT_BYTES + 1 bytes of a binary stream, read in
    chunks of at most _READ_CHUNK bytes until the end or the limit."""
    limit = dsl.MAX_SCRIPT_BYTES + 1
    chunks, size = [], 0
    while size < limit:
        chunk = fh.read(min(_READ_CHUNK, limit - size))
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks)


def _cmd_run(args, bindings_only: bool = False) -> int:
    try:
        data = _read_script(args.script)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(data) > dsl.MAX_SCRIPT_BYTES:
        print(f"error: script exceeds the limit of {dsl.MAX_SCRIPT_BYTES} bytes", file=sys.stderr)
        return 2
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        print(f"error: script is not valid UTF-8: {exc}", file=sys.stderr)
        return 2
    try:
        script = dsl.parse(text)
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if bindings_only and not any(isinstance(st, dsl.RenderStmt) for st in script.statements):
        print("error: script has no render directive", file=sys.stderr)
        return 2
    runner = _Runner(bindings_only=bindings_only)
    try:
        code = runner.run(script)
    except RunError as exc:
        if runner.out:
            print("\n\n".join(runner.out))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if runner.out:
        print("\n\n".join(runner.out))
    return code


def _one_off_loops(*literals: str) -> List[Loop]:
    exprs = dsl.parse_loop_literals(literals)
    runner = _Runner()
    return [runner.eval_expr(expr, default_y()) for expr in exprs]


def _cmd_word(args) -> int:
    literal = " ".join(args.literal)
    try:
        (lp,) = _one_off_loops(literal)
        cls = classify(lp)
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"word: {format_word(cls.word)}")
    return 0


def _cmd_dist(args) -> int:
    try:
        a, b = _one_off_loops(args.first, args.second)
        d = sup_distance(a.path, b.path)
        d_sq = exact_str(d.squared, "dist")
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    digits = report_digits()
    print(f"dist_sq: {d_sq}")
    print(f"dist_dec({digits}): {d.decimal(digits)}")
    return 0


def _cmd_hausdorff(args) -> int:
    try:
        rep = hausdorff_convergence(default_y(), args.upto)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(rep.render().rstrip("\n"))
    return 0 if rep.passed else 1


def demo_whitehead(nmax: int = 32, seed: int = 0, out_dir: str = ".") -> Tuple[int, str]:
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
        print(f"error: unknown demo {args.what!r}; try 'whitehead'", file=sys.stderr)
        return 2
    try:
        code, text = demo_whitehead(args.nmax, args.seed, args.out_dir)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


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
    p_demo.add_argument("--nmax", type=int, default=32, help="largest circle index for the nondiscreteness table")
    p_demo.add_argument("--seed", type=int, default=0, help="seed for all randomized probes")
    p_demo.add_argument("--out-dir", default=".", help="directory for the scene SVG")

    p_word = sub.add_parser("word", help="classify a loop literal")
    p_word.add_argument("literal", nargs="+", help="e.g. 'C(4).once' or 'word g2 g3^-1'")

    p_dist = sub.add_parser("dist", help="exact sup distance between two loop literals")
    p_dist.add_argument("first")
    p_dist.add_argument("second")

    p_h = sub.add_parser("hausdorff", help="Hausdorff convergence table")
    p_h.add_argument("--upto", type=int, required=True)

    p_render = sub.add_parser("render", help="execute only bindings and render directives")
    p_render.add_argument("script", help="script path, or - for stdin")
    return parser


# The parser of main, built by its first call and kept for the process.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    for option in ("nmax", "upto"):
        value = getattr(args, option, None)
        if value is not None and value > dsl.MAX_CIRCLE_INDEX:
            parser.error(f"--{option} {value} exceeds the limit {dsl.MAX_CIRCLE_INDEX} on circle indices")
    try:
        report_digits()
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "render":
        return _cmd_run(args, bindings_only=True)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "word":
        return _cmd_word(args)
    if args.command == "dist":
        return _cmd_dist(args)
    # the subparsers are required, so argparse admits no other command
    return _cmd_hausdorff(args)


if __name__ == "__main__":
    sys.exit(main())
