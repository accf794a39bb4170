"""The benchmark's workloads: request generators with exact answer checks.

Each workload turns the benchmark's own ``random.Random(seed)`` into an
endless stream of units. A unit is a list of requests that the closed loop
runs back to back; the loop only stops between units. A request is a pair
``(call, check)``: ``call()`` is the timed call into pi1lab, and
``check(result)`` returns None for a complete, exactly right answer,
``(FAILED, why)`` for an error, a nonzero exit or a FAIL verdict, and
``(WRONG, why)`` for an answer that differs from the expected one.

pi1lab is looked up through its modules at call time, so a tracer installed
after the generators were built still sees every call.
"""
from __future__ import annotations

import hashlib
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from typing import Callable

FAILED = "failed"
WRONG = "wrong"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- demo-whitehead ------------------------------------------------------------

# sha256 of `pi1lab demo whitehead --nmax 32 --seed s --out-dir D` stdout with
# D replaced by "@", for each seed s the workload draws. The scene does not
# depend on the seed, so every request writes the same SVG.
DEMO_REPORT_SHA256 = (
    "a96d15be7a4b4473761d94c75c25ebb0436a124e7c99b6dbc4839a9ce96c99a6",
    "90b0ec600a7afb0f922375b28ce9b7060f374585e99d3a4e78990e92fc194776",
    "d1121e677372589b27527890850d969eb664c8ddc9fcaddab1af7db1f80d2414",
    "cdb8a979df87a9f7ca317af1e5844b594917d66169954f8e4d1c108cb3231b93",
    "6f30b72fcc05153a2284bb2b57d0d41ea2b8c53a2f9ed950443e2b7eea4ecb6e",
    "3799281d4aeb3e78ae24a1761960aa8cd7b562d77ac9f849ca494b1903962d37",
    "3bcb447c6815dda8b51e6a04089e103e2795f9ab6f701fa9b1becdeb911207c7",
    "3df33de794012a3b45e64bda314f6176b53348cd9d078a335ef7e1a083c03282",
    "0410f86227f52c7a3985bad1632f8cc2232868ffaf5b15cfebdfe1673ca16945",
    "fc5cddc306f344fce5d9b3626df515a261711e250fc68469bfa40cf74fe0c061",
    "f3a13e677b42061b885872c8a198f286ecd8bdef7490f253124ebad8b146db48",
    "51af9607f7921272e755cd1901d2dcf435538dca2ab21c8a3c7708848a1d2e20",
    "0696dea6fd601d9ad598d2071ea6348e4a2ee44d971988b891ed8ea9eb13e190",
    "84361ac849891eab878c8b7fc878b7b30daf40119bbbd7d06df02477c1e6c12e",
    "051038980fa6d9e04db15dfab7a3efad70f0a52b596c6386b1542d6f3bd6588e",
    "fa24dd76c7046ce5ad065c25c903fba10e6dbb4679dcc82472fcc14f71518d6a",
)
DEMO_SVG_SHA256 = "aec7b7a3294458b2d059ba6bdb31cd0c15783081edc60afedae3dfea0d2b1f49"


def demo_units(rng, workdir):
    from pi1lab import cli

    def check(result, s):
        code, text = result
        if code != 0 or not text.endswith("verdict: PASS"):
            return FAILED, f"demo seed {s}: exit {code}, verdict is not PASS"
        report = (text + "\n").replace(workdir, "@").encode()
        if _sha256(report) != DEMO_REPORT_SHA256[s]:
            return WRONG, f"demo seed {s}: report bytes differ from the pinned digest"
        with open(os.path.join(workdir, "whitehead.svg"), "rb") as fh:
            if _sha256(fh.read()) != DEMO_SVG_SHA256:
                return WRONG, f"demo seed {s}: whitehead.svg differs from the pinned digest"
        return None

    while True:
        s = rng.randrange(len(DEMO_REPORT_SHA256))
        yield [
            (
                lambda s=s: cli.demo_whitehead(nmax=32, seed=s, out_dir=workdir),
                lambda result, s=s: check(result, s),
            )
        ]


# -- script-cube ---------------------------------------------------------------

SCRIPT_HINT = 40
# Circles the hint probe binds, all above the hint.
PROBE_CIRCLES = range(SCRIPT_HINT + 1, SCRIPT_HINT + 9)


def _cube_width(n: int) -> Fraction:
    return Fraction(1, 10 * n**3)


def _reduce(letters):
    """Free reduction of (generator, exponent) syllables."""
    out = []
    for n, e in letters:
        if out and out[-1][0] == n:
            e += out.pop()[1]
        if e:
            out.append((n, e))
    return out


def _format_word(letters) -> str:
    if not letters:
        return "1"
    return " ".join(f"g{n}" if e == 1 else f"g{n}^{e}" for n, e in letters)


def _random_word(rng):
    letters = []
    for _ in range(rng.randint(1, 4)):
        n = rng.choice([k for k in range(2, 13) if not letters or k != letters[-1][0]])
        letters.append((n, rng.choice((1, -1, 2, -2))))
    return letters


def _points_loop(rng):
    """A `points [...]` literal made of 1-3 excursions, and its word."""
    pts = []
    letters = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("circuit", "circuit", "arm", "alpha"))
        m = rng.randint(2, SCRIPT_HINT)
        apex = (Fraction(1, m), Fraction(1))
        tail = (apex[0] + _cube_width(m) * m, 1 - _cube_width(m))
        if kind == "circuit":
            sign = rng.choice((1, -1))
            pts += [apex, tail] if sign > 0 else [tail, apex]
            letters.append((m, sign))
        elif kind == "arm":
            u = Fraction(rng.randint(1, 15), 16)
            pts.append((apex[0] * u, u))
        else:
            pts.append((Fraction(0), Fraction(rng.randint(1, 16), 16)))
        pts.append((Fraction(0), Fraction(0)))
    k = len(pts)
    triples = ["(0, 0, 0)"] + [f"({Fraction(i + 1, k)}, {x}, {y})" for i, (x, y) in enumerate(pts)]
    return "points [" + ", ".join(triples) + "]", letters


def _decimal_40(q: Fraction) -> str:
    scaled = round(q * 10**40)  # Fraction rounding is round-half-even
    whole, frac = divmod(scaled, 10**40)
    return f"{whole}.{frac:040d}"


def make_script(rng, n1=None):
    """Script text and the output blocks a correct run prints.

    ``n1`` is the circle that `C(n1).once` binds; by default one within the hint.
    """
    word = _random_word(rng)
    if n1 is None:
        n1 = rng.randint(2, SCRIPT_HINT)
    n2 = rng.randint(2, SCRIPT_HINT)
    points, q_letters = _points_loop(rng)
    lines = [
        f"space S = Y({SCRIPT_HINT}) width=cube",
        "loop w = word " + _format_word(word),
        f"loop c = C({n1}).once",
        f"loop r = C({n2}).inv",
        "loop f = alpha.updown",
        f"loop q = {points}",
        "loop k = concat(w, c, q)",
    ]
    words = {
        "w": word,
        "c": [(n1, 1)],
        "r": [(n2, -1)],
        "f": [],
        "q": _reduce(q_letters),
        "k": _reduce(word + [(n1, 1)] + q_letters),
    }
    blocks = []
    for name, letters in words.items():
        lines.append(f"classify {name}")
        blocks.append(f"word: {_format_word(letters)}")
    # sup_distance(f_n, f) = 1/n + n*w(n) exactly
    d = Fraction(1, n1) + n1 * _cube_width(n1)
    lines.append("dist c f")
    blocks.append(f"dist_sq: {d * d}\ndist_dec(40): {_decimal_40(d)}")
    return "\n".join(lines) + "\n", blocks


def _check_script(result, blocks):
    code, out, err = result
    if code == 0:
        if out == "\n\n".join(blocks) + "\n":
            return None
        return WRONG, f"script output differs from the expected answers: {out!r}"
    printed = out.rstrip("\n")
    if printed not in ("\n\n".join(blocks[:k]) for k in range(len(blocks))):
        return WRONG, f"script printed wrong answers before failing: {printed!r}"
    return FAILED, f"exit {code}: {err.strip()}"


def _run_script(path):
    from pi1lab import cli

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["run", path])
    return code, out.getvalue(), err.getvalue()


def _script_request(path, text, blocks):
    """Write the script to ``path`` now, outside the timed call."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return lambda: _run_script(path), lambda result: _check_script(result, blocks)


def script_units(rng, workdir):
    path = os.path.join(workdir, "request.pi1")
    while True:
        yield [_script_request(path, *make_script(rng))]


def script_hint_probe(seed, workdir):
    """One script for each circle in PROBE_CIRCLES, above the declared hint.

    These hit the documented hint bug (ROADMAP item 2): they exit 1 with
    "breakpoint ... is outside the space". They run untimed, outside the
    closed loop, so that every timed request can succeed; the lines they
    print before the error are still checked.
    """
    rng = random.Random(f"hint-probe-{seed}")
    return [
        _script_request(os.path.join(workdir, f"probe-{n1}.pi1"), *make_script(rng, n1))
        for n1 in PROBE_CIRCLES
    ]


# -- materialize-pow10 ---------------------------------------------------------

POW10_N = 90
REPORT_UP_TO = 40


def _check_circle(circ, n):
    w = Fraction(1, 10 ** (10 * n))
    apex = (Fraction(1, n), Fraction(1))
    tail = (Fraction(1, n) + n * w, 1 - w)
    if circ.index != n or (circ.apex.x, circ.apex.y) != apex or (circ.tail.x, circ.tail.y) != tail:
        return WRONG, f"circle {n}: vertices differ from the closed form"
    return None


def _check_report(rep):
    return None if rep.passed else (FAILED, f"{rep.probe}: verdict {rep.verdict}")


def pow10_units(rng, workdir):
    from pi1lab import spaces

    while True:
        handle = spaces.compact_y(hint=32)
        order = list(range(2, POW10_N + 1))
        rng.shuffle(order)
        unit = [
            (lambda n=n, h=handle: h.circle(n), lambda circ, n=n: _check_circle(circ, n))
            for n in order
        ]
        unit.append((lambda h=handle: spaces.verify_disjointness(h, REPORT_UP_TO), _check_report))
        unit.append((lambda h=handle: spaces.hausdorff_convergence(h, REPORT_UP_TO), _check_report))
        yield unit


@dataclass(frozen=True)
class Workload:
    name: str
    units: Callable  # (rng, workdir) -> iterator of units
    # Run in a fresh interpreter to time set-up: import, then handle construction.
    setup_code: str
    # Units in a traced run; fixed, so that its counts repeat exactly.
    trace_units: int
    # (seed, workdir) -> requests run once, untimed and untraced, outside
    # attempted and failed; for requests that are expected to fail.
    probe: Callable | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "demo-whitehead",
            demo_units,
            "from pi1lab import cli, spaces\n"
            "spaces.compact_y(hint=32).sibling(spaces.SpaceKind.BOUQUET_X)\n",
            1,
        ),
        Workload(
            "script-cube",
            script_units,
            "from pi1lab import cli, spaces\n"
            f"spaces.SpaceHandle(spaces.SpaceKind.COMPACT_Y, spaces.profile_by_name('cube'), {SCRIPT_HINT})\n",
            20,
            script_hint_probe,
        ),
        Workload(
            "materialize-pow10",
            pow10_units,
            "from pi1lab import spaces\nspaces.compact_y(hint=32)\n",
            1,
        ),
    )
}
