"""The script runner behind the commands that read the script language:
``run``, ``render``, ``word`` and ``dist``.

``cli`` imports this module, and with it ``dsl``, only when one of these
commands runs, so ``demo`` and ``hausdorff`` never compile the parser.
``load_script`` reads and parses a script, ``run_script`` runs it and prints
its blocks, and ``one_off_loops`` evaluates loop literals in the compact
space Y with the default width profile. A probe statement calls the run of
its kind's entry of ``dsl.PROBES`` with the statement's arguments.

Functions of the other layers are called through their modules
(``loops.standard_f``), as ``cli`` calls ``dsl``: a wrapper set on a module
attribute after this module loaded, such as the tracer of
``perfbench/tracer.py``, sees each call.
"""
from __future__ import annotations

import sys
from typing import Dict, List, Optional

from . import dsl, geometry, loops, pi1, report, spaces, svg, words
from .cli import RunError, _dist_text, _Refused
from .loops import Loop
from .spaces import Circle, SpaceHandle, SpaceKind


class _Runner:
    """Executes a parsed script; collects output text and a verdict flag."""

    def __init__(self):
        self.spaces: Dict[str, SpaceHandle] = {}
        # one circle cache per width profile, shared by every space of the script
        self.circles: Dict[str, Dict[int, Circle]] = {}
        self.loops: Dict[str, Loop] = {}
        self.active: Optional[SpaceHandle] = None
        self.out: List[str] = []
        self.failed = False

    def emit(self, text: str) -> None:
        self.out.append(text)

    def emit_report(self, rep: report.ProbeReport) -> None:
        self.emit(rep.render().rstrip("\n"))
        if not rep.passed:
            self.failed = True

    def eval_expr(self, expr, space: SpaceHandle) -> Loop:
        if isinstance(expr, dsl.AlphaExpr):
            return loops.standard_f(space)
        if isinstance(expr, dsl.CircleExpr):
            lp = loops.standard_fn(expr.index, space)
            return loops.reverse(lp) if expr.inverse else lp
        if isinstance(expr, dsl.ConcatExpr):
            parts = [
                self.loops[a] if isinstance(a, str) else self.eval_expr(a, space)
                for a in expr.args
            ]
            return loops.concatenate_all(parts)
        if isinstance(expr, dsl.WordExpr):
            return loops.realize_word(expr.word, space)
        if isinstance(expr, dsl.PointsExpr):
            return Loop(geometry._path(expr._ts, expr._quads), space)
        raise TypeError(f"not a loop expression: {expr!r}")

    def run(self, script: dsl.Script) -> int:
        for st in script.statements:
            if isinstance(st, dsl.SpaceDecl):
                profile = spaces.profile_by_name(st.width)
                kind = SpaceKind.BOUQUET_X if st.kind == "X" else SpaceKind.COMPACT_Y
                circles = self.circles.setdefault(profile.name, {})
                handle = SpaceHandle(kind, profile, st.hint, circles)
                self.spaces[st.name] = handle
                self.active = handle
            elif isinstance(st, dsl.LoopBinding):
                self.loops[st.name] = self.eval_expr(st.expr, self.active)
            elif isinstance(st, dsl.ClassifyStmt):
                cls = pi1.classify(self.loops[st.name])
                self.emit(f"word: {words.format_word(cls.word)}")
            elif isinstance(st, dsl.DistStmt):
                a, b = self.loops[st.first], self.loops[st.second]
                self.emit(_dist_text(a, b, f"dist {st.first} {st.second}"))
            elif isinstance(st, dsl.ProbeStmt):
                _, _, run = dsl.PROBES[st.kind]
                self.emit_report(run(self.active, self.loops, **dict(st.args)))
            elif isinstance(st, dsl.RenderStmt):
                handles = []
                drawn = []
                for name in st.names:
                    if name in self.spaces:
                        handle = self.spaces[name]
                        handles.append((handle, handle.hint))
                    else:
                        drawn.append(self.loops[name])
                svg.write_scene(st.out, handles, drawn)
                self.emit(f"wrote {st.out}")
            else:
                raise TypeError(f"not a statement: {st!r}")
        return 1 if self.failed else 0


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


def load_script(path: str) -> dsl.Script:
    data = _read_script(path)
    if len(data) > dsl.MAX_SCRIPT_BYTES:
        raise _Refused(f"script exceeds the limit of {dsl.MAX_SCRIPT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Refused(f"script is not valid UTF-8: {exc}") from None
    return dsl.parse(text)


def run_script(script: dsl.Script) -> int:
    """Run a script and print its blocks; on a runtime error, the blocks
    printed before it, for main to report the error after them."""
    runner = _Runner()
    try:
        code = runner.run(script)
    except RunError:
        if runner.out:
            print("\n\n".join(runner.out))
        raise
    if runner.out:
        print("\n\n".join(runner.out))
    return code


def one_off_loops(*literals: str) -> List[Loop]:
    exprs = dsl.parse_loop_literals(literals)
    runner = _Runner()
    space = spaces.compact_y()
    return [runner.eval_expr(expr, space) for expr in exprs]
