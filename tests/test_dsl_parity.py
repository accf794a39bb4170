"""Parse outcomes of a fixed corpus, pinned against the span parser that the
token parser replaced.

``dsl_parity.json.gz`` holds the outcome of every case as that parser gave
it: a digest of the repr of the ``Script`` (or of the literals) it
accepted, or the (line, col, message) of the ``DslError`` it raised. The
corpus is the README script, the dsl docstring script, every
``HOSTILE_LINES`` case, the edge scripts below, one CLI literal, and every
one-character deletion, and every insertion of one of ``INSERTED``, at
each position of the docstring script and of one generated script-cube
script. A case the token parser accepts must give an equal result, and one
it refuses the same line, column and message, but for the messages of
``CHANGED`` and ``dsl_parity_changed.json.gz``.

Those are the refusals of an unbalanced delimiter or of text after a
concat or points list. The span parser split a list or a concat at the
commas of its delimiter depth, counted across the imbalance, and quoted the
text between two of them, which could run over several triples or
arguments, or named the whole expression or the shape of a points list for
what followed its end. The token parser reads the delimiters in pairs and
quotes one argument, points element or field, or what follows the end of
the concat or list.
"""
import gzip
import hashlib
import json
import re
from pathlib import Path

from pi1lab import dsl
from test_cli import HOSTILE_LINES, dsl_docstring_script, hostile_script, readme_script

DATA = Path(__file__).with_name("dsl_parity.json.gz")

INSERTED = "()[],=/-# "

# The first script of perfbench's script-cube workload at seed 5.
CUBE_SCRIPT = """\
space S = Y(40) width=cube
loop w = word g7 g10^-1 g2^-1
loop c = C(9).once
loop r = C(25).inv
loop f = alpha.updown
loop q = points [(0, 0, 0), (1/6, 1/26, 1), (1/3, 261/6760, 175759/175760), (1/2, 0, 0), (2/3, 1/2, 1), (5/6, 21/40, 79/80), (1, 0, 0)]
loop k = concat(w, c, q)
classify w
classify c
classify r
classify f
classify q
classify k
dist c f
"""

# Each line follows a space S and a loop c.
EDGE_LINES = {
    "points-trailing-comma": "loop q = points [(0,0,0), (1,0,0), ]",
    "concat-trailing-comma": "loop k = concat(c,)",
    "concat-twice": "loop k = concat(c)(c)",
    "points-closed-early": "loop q = points [(0,0,0)], (1,0,0)]",
    "points-empty-part": "loop q = points [(0,0,0),,(1,0,0)]",
    "concat-empty-part": "loop k = concat(c,,c)",
    "concat-empty": "loop k = concat()",
    "concat-extra-paren": "loop k = concat(c, c))",
    "points-junk-after": "loop q = points [(0,0,0),(1,0,0)] x",
    "word-junk-after": "loop w = word(g2) g3",
    "word-empty": "loop w = word()",
    "points-nested-field": "loop q = points [((1),0,0),(1,0,0)]",
    "points-missing-comma": "loop q = points [(0,0,0) (1,0,0)]",
    "points-nested-list": "loop q = points [[(0,0,0),(1,0,0)]]",
    "probe-repeated-key": "probe slsc radius=1/4 samples=2 seed=1 seed=2",
    "probe-stray-key": "probe slsc radius=1/4 samples=2 extra=1 extra=2",
    "space-arabic-indic-hint": "space T = Y(٣)",
    "space-uniform-zero": "space T = Y(5) width=uniform:1/0",
    "render-no-output": "render S ->",
    "render-two-outputs": "render S -> a.svg b.svg",
    "concat-digit-names": "loop 1 = C(3).once\nloop 2 = C(4).inv\nloop 3 = alpha.updown\nloop k = concat(1, 2, 3)",
    "concat-digit-names-tight": "loop 1 = C(3).once\nloop 2 = C(4).inv\nloop 3 = C(5).once\nloop k = concat(1,2,3)",
    "concat-digit-names-junk-after": "loop 1 = C(3).once\nloop k = concat(1, 1, 1) x",
    "concat-digit-names-unbound": "loop k = concat(1, 2, 3)",
}

CLI_LITERAL = "concat(points [(0,0,0),(1,0,0)], concat(C(2).once, word(g2 g3^-1)))"

CHANGED_DATA = Path(__file__).with_name("dsl_parity_changed.json.gz")

# The edge cases whose message changed, with the new one. The span parser
# quoted 'c)(c', '(0,0,0)], (1' and 'c)', across the end of the concat or
# list, named the shape of a points list for junk after it, and quoted a
# whole nested list or concat.
CHANGED = {
    "edge-concat-twice": [3, 1, "unexpected '(c)' after the concat"],
    "edge-points-closed-early": [3, 1, "unexpected ', (1,0,0)]' after the points list"],
    "edge-concat-extra-paren": [3, 1, "unexpected ')' after the concat"],
    "edge-points-junk-after": [3, 1, "unexpected 'x' after the points list"],
    "edge-points-nested-list": [3, 1, "bad points triple '[(0,0,0)'"],
    "edge-concat-digit-names-junk-after": [4, 1, "unexpected 'x' after the concat"],
}


def corpus():
    """(case id, script text) for every script case, in a fixed order."""
    cases = [("readme", readme_script()), ("docstring", dsl_docstring_script())]
    cases += [(f"hostile-{k}", hostile_script(line)) for k, (line, _) in enumerate(HOSTILE_LINES.values())]
    cases += [(f"edge-{name}", f"space S = Y(20)\nloop c = C(2).once\n{line}\n") for name, line in EDGE_LINES.items()]
    for base, text in (("docstring", dsl_docstring_script()), ("cube", CUBE_SCRIPT)):
        cases += [(f"{base}-del-{i}", text[:i] + text[i + 1 :]) for i in range(len(text))]
        for ch in INSERTED:
            cases += [(f"{base}-ins-{ch!r}-{i}", text[:i] + ch + text[i:]) for i in range(len(text) + 1)]
    return cases


def outcome(parse, text):
    """A digest of what ``parse`` returns for ``text``, or the line, column
    and message of the DslError it raises."""
    try:
        result = parse(text)
    except dsl.DslError as exc:
        return [exc.line, exc.col, exc.message]
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def record():
    """[case id, outcome] for every case of the corpus, in its order."""
    runs = [(case, dsl.parse, text) for case, text in corpus()]
    runs.append(("cli-literal", lambda text: dsl.parse_loop_literals((text,)), CLI_LITERAL))
    return [[case, outcome(parse, text)] for case, parse, text in runs]


def load(path):
    return json.loads(gzip.decompress(path.read_bytes()))


def test_data_size():
    assert DATA.stat().st_size + CHANGED_DATA.stat().st_size <= 100_000


def test_changed_messages_are_delimiter_refusals():
    """Every changed message is a refusal at the same line and column as
    before: of an edge case above, of an inserted parenthesis or bracket,
    or of text after the end of a concat or points list, which it quotes."""
    pinned = dict(load(DATA))
    changed = {**dict(load(CHANGED_DATA)), **CHANGED}
    for case, new in changed.items():
        old = pinned[case]
        assert isinstance(old, list) and isinstance(new, list) and old[:2] == new[:2] and old != new, case
        after = re.fullmatch(r"unexpected '.+'(\.\.\.)? after the (concat|points list)", new[2])
        assert case in CHANGED or after or any(f"-ins-{ch!r}-" in case for ch in "()[]"), case


def test_corpus_matches_the_span_parser():
    want = load(DATA)
    changed = {**dict(load(CHANGED_DATA)), **CHANGED}
    got = record()
    assert [case for case, _ in got] == [case for case, _ in want]
    wrong = [
        f"{case}: want {changed.get(case, pinned)}, got {new}"
        for (case, new), (_, pinned) in zip(got, want)
        if new != changed.get(case, pinned)
    ]
    assert not wrong, f"{len(wrong)} cases differ:\n" + "\n".join(wrong[:20])
