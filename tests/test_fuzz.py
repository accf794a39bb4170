"""Scripts built from the grammar, run end to end through ``cli.main``.

The strategy covers every statement kind and width profile, values at and
across the limits, ``points`` on and off the complex, ``concat`` chains,
repeated statements on one binding, a new width profile for each of
many statements, and high circle indices with few letters. Each script
must exit 0, 1 or 2 with no other exception, end a failed run in one
error line, print the same bytes twice, and cost at most
``dsl.MAX_SCRIPT_WORK`` when the parser accepts it.
"""
import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from pi1lab import cli, dsl

LOOPS = ("a", "b", "c")
SPACES = ("S", "T")
BIG = "9" * 60

# values below, at and past each limit, and a few the parser or the probes
# refuse; the earlier entries of each are drawn more often
VALID_CIRCLES = (2, 3, 12, 21, 590, 1000)
CIRCLES = VALID_CIRCLES + (1, 1001)
EXPONENTS = (1, -1, 2, -3, 5000, 70000, 10**6)
UP_TO = (3, 10, 20, 60, 100, 101, 1000, 2, 1001)
N_MAX = (2, 32, 215, 1000, 1, 1001)
COUNTS = (1, 7, 100, 10000, 40000, 0, 10**50)
WIDTHS = (
    "", " width=cube", " width=pow10", " width=default", " width=uniform:1/2",
    " width=uniform:3", f" width=uniform:1/{BIG}", " width=uniform:1/0",
)
RATIONALS = ("1/10", "1/4", "1/1000", "1/100000000", "1/2", "1", f"1/{BIG}", f"{BIG[:-1]}/{BIG}", "0", "1/0")

# points of the plane as (x, y) text: p, on alpha, on C_2, C_3 and C_1000,
# off the complex, and one that can only lie on C_40000
POINTS = (
    ("0", "0"), ("0", "1/2"), ("0", "1"), ("1/2", "1"), ("1/4", "1/2"), ("1/3", "1"),
    ("1/6", "1/2"), ("1/1000", "1"), ("1", "1"), ("1/2", "1/2"), ("-1", "5"), ("1/2", "1/40000"),
)


def _word(syllables):
    return " ".join(f"g{n}" if e == 1 else f"g{n}^{e}" for n, e in syllables)


def _points(pts):
    pts = [("0", "0")] + pts + [("0", "0")]
    k = len(pts) - 1
    return "points [" + ", ".join(f"({i}/{k}, {x}, {y})" for i, (x, y) in enumerate(pts)) + "]"


names = st.sampled_from(("a", "b"))


def loop_exprs(circles):
    return st.one_of(
        st.just("alpha.updown"),
        st.builds(lambda n, way: f"C({n}).{way}", st.sampled_from(circles), st.sampled_from(("once", "inv"))),
        st.builds(
            lambda syl: "word " + _word(syl),
            st.lists(st.tuples(st.sampled_from(circles), st.sampled_from(EXPONENTS)), min_size=1, max_size=4),
        ),
        st.builds(lambda args: f"concat({', '.join(args)})", st.lists(names, min_size=1, max_size=4)),
        st.builds(_points, st.lists(st.sampled_from(POINTS), min_size=0, max_size=5)),
    )


loop_expr = loop_exprs(CIRCLES)
probe = st.one_of(
    st.builds("probe disjointness up_to={}".format, st.sampled_from(UP_TO)),
    st.builds("probe hausdorff up_to={}".format, st.sampled_from(UP_TO)),
    st.builds(
        "probe nondiscreteness n_max={} epsilon={}".format, st.sampled_from(N_MAX), st.sampled_from(RATIONALS)
    ),
    st.builds(
        "probe discreteness loop={} trials={} magnitude={} seed={}".format,
        names, st.sampled_from(COUNTS), st.sampled_from(RATIONALS), st.integers(0, 3),
    ),
    st.builds(
        "probe slsc radius={} samples={} seed={}".format,
        st.sampled_from(RATIONALS), st.sampled_from(COUNTS), st.integers(0, 3),
    ),
)
statement = st.one_of(
    st.builds(
        "space {} = {}({}){}".format,
        st.sampled_from(SPACES), st.sampled_from("XY"), st.sampled_from((2, 5, 20, 1000, 1001)),
        st.sampled_from(WIDTHS),
    ),
    st.builds("loop {} = {}".format, st.sampled_from(LOOPS), loop_expr),
    st.builds("classify {}".format, names),
    st.builds("dist {} {}".format, names, names),
    probe,
    st.builds(
        lambda ns: f"render {' '.join(ns)} -> out.svg",
        st.lists(st.sampled_from(LOOPS + SPACES), min_size=1, max_size=3),
    ),
)
# a statement, repeated as a script repeats probes of one binding
repeated = st.builds(lambda line, k: [line] * k, statement, st.sampled_from((1, 1, 1, 2, 30)))
# a new uniform width profile for each repeat, each with its own circle cache,
# followed by a statement that builds circles in it
new_profiles = st.builds(
    lambda digits, line, k: [
        f"space U{i} = Y(1000) width=uniform:1/{10 ** digits + i}\n{line.format(i)}" for i in range(k)
    ],
    st.sampled_from((4, 99, 399)),
    st.sampled_from(
        ("render U{} -> out.svg", "probe hausdorff up_to=200", "probe disjointness up_to=20", "loop a = C(2).once")
    ),
    st.sampled_from((2, 8)),
)


@st.composite
def scripts(draw):
    """A space of a valid width and valid bindings of a and b, so that most
    names resolve, then statements drawn from the whole grammar."""
    kind = draw(st.sampled_from("XY"))
    valid = loop_exprs(VALID_CIRCLES).filter(lambda e: kind == "Y" or e != "alpha.updown")
    lines = [
        f"space S = {kind}(20){draw(st.sampled_from(WIDTHS[:-1]))}",
        f"loop a = {draw(valid.filter(lambda e: 'concat' not in e))}",
        f"loop b = {draw(valid)}",
    ]
    for group in draw(st.lists(st.one_of(repeated, repeated, repeated, new_profiles), min_size=1, max_size=6)):
        lines += group
    return "\n".join(lines) + "\n"


def run(path: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", path])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck))
@given(scripts())
def test_generated_scripts(text):
    parse_spend = dsl._spend
    costs = []

    def spend(total, cost, what, line, col):
        costs.append(cost)
        return parse_spend(total, cost, what, line, col)

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        dsl._spend = spend
        try:
            path = os.path.join(tmp, "script.pi1")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            first = run(path)
            accepted_cost = None if first[2].startswith("parse error:") else sum(costs)
            second = run(path)
        finally:
            dsl._spend = parse_spend
            os.chdir(here)
    code, out, err = first
    assert code in (0, 1, 2)
    if err:
        assert err.count("\n") == 1 and err.startswith(("parse error:", "error:")), err
    else:
        # a run that fails without an error line reports a FAIL verdict
        assert code == 0 or "verdict: FAIL" in out
    assert second == first
    if accepted_cost is not None:
        assert accepted_cost <= dsl.MAX_SCRIPT_WORK
