"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value is exact; runtime limits are asserted with
wall-clock measurements. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from pi1lab.loops import (
    concatenate,
    constant_loop,
    include_in_y,
    realize_word,
    standard_f,
    standard_fn,
    validate,
)
from pi1lab.pi1 import (
    alpha_decorate,
    classify_x,
    classify_y,
    collapse_to_x,
    probe_discreteness_x,
    probe_nondiscreteness_y,
    probe_slsc_y,
    random_reduced_word,
)
from pi1lab.spaces import (
    SpaceKind,
    build_circle,
    compact_y,
    verify_disjointness,
    hausdorff_convergence,
)
from pi1lab.words import IDENTITY, invert, multiply, parse_word, reduce_letters

F = Fraction


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, label, elapsed, limit):
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s < {limit}s)")


@pytest.fixture(scope="module")
def y():
    return compact_y(hint=40)


@pytest.fixture(scope="module")
def x(y):
    return y.sibling(SpaceKind.BOUQUET_X)


def test_criterion_1_construction_fidelity(y):
    with Timer() as t:
        for n in range(2, 21):
            c = build_circle(n)
            w = F(1, 10 ** (10 * n))
            assert c.edges[0].a.x == 0 and c.edges[0].a.y == 0
            assert c.apex.x == F(1, n) and c.apex.y == 1
            assert c.tail.x == F(1, n) + w * n
            assert c.tail.y == 1 - w
        rep = verify_disjointness(y, 20)
        assert rep.passed
        assert dict(rep.parameters)["pairs_checked"] == "171"
    assert t.elapsed < 10
    report(1, "construction fidelity; 171 disjoint pairs", t.elapsed, 10)


def test_criterion_2_hausdorff_convergence(y):
    with Timer() as t:
        rep = hausdorff_convergence(y, 20)
        assert rep.passed
        values = [F(row[1]) for row in rep.table_rows]
        assert len(values) == 19
        assert all(a > b for a, b in zip(values, values[1:]))
        for n, v in zip(range(2, 21), values):
            assert v <= F(2, n) ** 2
    assert t.elapsed < 30
    report(2, "exact Hausdorff table n=2..20, strictly decreasing", t.elapsed, 30)


def fixpoint_scan_reduce(letters):
    seq = [(n, s) for n, s in letters]
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i][0] == seq[i + 1][0] and seq[i][1] == -seq[i + 1][1]:
                del seq[i : i + 2]
                changed = True
                break
    out = []
    for n, s in seq:
        if out and out[-1][0] == n:
            out[-1][1] += s
        else:
            out.append([n, s])
    return tuple((n, e) for n, e in out if e != 0)


def test_criterion_3_classification(y, x):
    with Timer() as t:
        for n in range(2, 11):
            assert classify_x(standard_fn(n, x)).word == parse_word(f"g{n}")
        assert classify_y(standard_f(y)).word == IDENTITY
        rng = random.Random(2024)
        for _ in range(500):
            letters = [(rng.randint(2, 9), rng.choice([1, -1])) for _ in range(rng.randint(0, 10))]
            w = reduce_letters(letters)
            assert w.syllables == fixpoint_scan_reduce(letters)
            u = reduce_letters(
                [(rng.randint(2, 9), rng.choice([1, -1])) for _ in range(rng.randint(0, 10))]
            )
            a, b = realize_word(w, x), realize_word(u, x)
            assert classify_x(concatenate(a, b)).word == multiply(w, u)
            assert classify_x(a).word == w  # round trip
            assert classify_x(realize_word(invert(w), x)).word == invert(w)
    assert t.elapsed < 30
    report(3, "loop classification + 500-word homomorphism suite", t.elapsed, 30)


def test_criterion_4_isomorphism_evidence(y, x):
    with Timer() as t:
        rng = random.Random(77)
        for _ in range(100):
            w = random_reduced_word(rng, 10)
            lx = realize_word(w, x)
            ly = include_in_y(lx)
            assert classify_y(ly).word == w
            assert classify_x(lx).word == w
            decorated = alpha_decorate(ly, rng)
            collapsed = collapse_to_x(decorated)
            assert collapsed.space.kind is SpaceKind.BOUQUET_X
            assert validate(collapsed) is None
            assert classify_x(collapsed).word == w
    assert t.elapsed < 60
    report(4, "100 inclusion round trips + decorated collapse soundness", t.elapsed, 60)


def test_criterion_5_nondiscreteness_y(y):
    with Timer() as t:
        rep = probe_nondiscreteness_y(32, F(1, 10), y)
        assert rep.passed, rep.render()
        values = [F(row[2]) for row in rep.table_rows]
        assert len(values) == 31
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < F(1, 10) ** 2
        assert all(row[1] != "1" for row in rep.table_rows)
        assert dict(rep.parameters)["word_of_limit_loop"] == "1"
    assert t.elapsed < 60
    report(5, "nondiscreteness certificates to n=32 under pow10 widths", t.elapsed, 60)


def test_criterion_6_discreteness_x(x):
    with Timer() as t:
        corpus = [
            constant_loop(x),
            standard_fn(2, x),
            standard_fn(3, x),
            realize_word(parse_word("g2 g3"), x),
            realize_word(parse_word("g2^2 g5^-1"), x),
        ]
        for i, lp in enumerate(corpus):
            rep = probe_discreteness_x(lp, 100, F(1, 1000), seed=100 + i)
            assert rep.passed, rep.render()
            assert dict(rep.parameters)["agreeing_trials"] == "100"
    assert t.elapsed < 60
    report(6, "word stability for the 5-loop corpus, 100 trials each", t.elapsed, 60)


def test_criterion_7_slsc_with_nondiscreteness(y):
    with Timer() as t:
        slsc = probe_slsc_y(F(1, 4), 50, seed=7, space=y)
        assert slsc.passed, slsc.render()
        assert dict(slsc.parameters)["trivial"] == "50"
        nondisc = probe_nondiscreteness_y(32, F(1, 10), y)
        assert nondisc.passed
        assert any("nondiscreteness" in note for note in slsc.notes)
    assert t.elapsed < 60
    report(7, "SLSC at p alongside nondiscreteness (joint reproduction)", t.elapsed, 60)


def test_criterion_8_demo_determinism(tmp_path):
    with Timer() as t:
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir()
        d2.mkdir()
        cmd = [sys.executable, "-m", "pi1lab.cli", "demo", "whitehead", "--seed", "7"]
        r1 = subprocess.run(cmd + ["--out-dir", str(d1)], capture_output=True, timeout=300)
        r2 = subprocess.run(cmd + ["--out-dir", str(d2)], capture_output=True, timeout=300)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr.decode()
        out1 = r1.stdout.replace(str(d1).encode(), b"@")
        out2 = r2.stdout.replace(str(d2).encode(), b"@")
        assert out1 == out2
        assert out1.rstrip().endswith(b"verdict: PASS")
        svg1 = (d1 / "whitehead.svg").read_bytes()
        svg2 = (d2 / "whitehead.svg").read_bytes()
        assert svg1 == svg2
    report(8, "demo whitehead --seed 7 twice: byte-identical report and SVG", t.elapsed, 600)
