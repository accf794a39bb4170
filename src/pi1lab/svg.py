"""Deterministic SVG rendering of spaces and loops.

Scenes are built from exact rational geometry and serialized with a fixed
decimal rounding (round-half-even, documented in the file header), fixed
element order and fixed styling, so identical inputs produce byte-identical
files. The model's y axis points up; emitted coordinates are y-negated so
the picture is upright in SVG's y-down convention.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .exactnum import rational_decimal
from .loops import Loop
from .spaces import ALPHA_SEGMENT, SpaceHandle, _edge_quads

_STYLE = (
    ".circle{stroke:#555;stroke-width:0.004;fill:none}"
    ".alpha{stroke:#c22;stroke-width:0.006;fill:none}"
    ".loop{fill:none;stroke-width:0.008}"
    ".loop-0{stroke:#06c}.loop-1{stroke:#090}.loop-2{stroke:#c60}"
    ".loop-3{stroke:#909}.loop-4{stroke:#066}"
)

# Decimal places of every coordinate a scene prints.
_DIGITS = 6


def _coords(q: tuple) -> Tuple[str, str]:
    """x and the negated y of the point of kernel quad ``q``, as decimals."""
    return rational_decimal(Fraction(q[0], q[1]), _DIGITS), rational_decimal(Fraction(-q[2], q[3]), _DIGITS)


def _space_segments(space: SpaceHandle, upto: int) -> Tuple[Tuple[str, tuple, tuple], ...]:
    """(class, start quad, end quad) of each segment of the space drawn, up
    to circle ``upto``."""
    out = []
    for n in range(2, upto + 1):
        out.extend(("circle", a, b) for a, b in _edge_quads(space.circle(n)))
    if space.has_alpha:
        out.append(("alpha", *ALPHA_SEGMENT.quads()))
    return tuple(out)


def render_scene(
    spaces: Sequence[Tuple[SpaceHandle, int]] = (),
    loops: Sequence[Loop] = (),
) -> str:
    """SVG text for the given spaces (with circle cutoffs) and loops, read
    off their kernel quads."""
    lines = []
    points: list = []
    for space, upto in spaces:
        for cls, a, b in _space_segments(space, upto):
            points.extend((a, b))
            (x1, y1), (x2, y2) = _coords(a), _coords(b)
            lines.append(f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    for i, loop in enumerate(loops):
        qs = loop.path._qs
        points.extend(qs)
        coords = " ".join(",".join(_coords(q)) for q in qs)
        lines.append(f'<polyline class="loop loop-{i % 5}" points="{coords}"/>')
    if points:
        xs = [Fraction(q[0], q[1]) for q in points]
        ys = [-Fraction(q[2], q[3]) for q in points]
        pad = Fraction(1, 10)
        min_x, max_x = min(xs) - pad, max(xs) + pad
        min_y, max_y = min(ys) - pad, max(ys) + pad
        viewbox = (
            f"{rational_decimal(min_x, _DIGITS)} {rational_decimal(min_y, _DIGITS)} "
            f"{rational_decimal(max_x - min_x, _DIGITS)} {rational_decimal(max_y - min_y, _DIGITS)}"
        )
    else:
        viewbox = "0 0 1 1"
    body = "\n".join(f"  {ln}" for ln in lines)
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"<!-- pi1lab scene; coordinates rounded half-even to {_DIGITS} decimal places; "
        "model y axis negated for display -->\n"
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}" width="640" height="640">\n'
        f"  <style>{_STYLE}</style>\n"
    )
    if body:
        doc += body + "\n"
    return doc + "</svg>\n"


def write_scene(path: str, spaces: Sequence[Tuple[SpaceHandle, int]], loops: Sequence[Loop]) -> str:
    text = render_scene(spaces, loops)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
