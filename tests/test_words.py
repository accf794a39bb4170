import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pi1lab.words import (
    IDENTITY,
    Word,
    WordError,
    format_word,
    generator,
    invert,
    multiply,
    parse_word,
    reduce_letters,
)


def fixpoint_scan_reduce(letters):
    """Independent oracle: repeatedly delete any adjacent cancelling pair
    until none remains, then run-length encode."""
    seq = [(n, 1 if e > 0 else -1) for n, e in letters for _ in range(abs(e))]
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
    return Word(tuple((n, e) for n, e in out if e != 0))


letters_strategy = st.lists(
    st.tuples(st.integers(min_value=2, max_value=5), st.sampled_from([1, -1])),
    max_size=60,
)


class TestReduce:
    def test_simple_cancellation(self):
        assert reduce_letters([(2, 1), (2, -1)]) == IDENTITY

    def test_nested_cancellation(self):
        assert reduce_letters([(2, 1), (3, 1), (3, -1), (2, 1)]) == Word(((2, 2),))

    def test_bad_index(self):
        with pytest.raises(WordError):
            reduce_letters([(1, 1)])
        with pytest.raises(WordError):
            Word(((0, 1),))

    def test_random_200_letter_strings_match_oracle(self):
        rng = random.Random(12345)
        for _ in range(30):
            letters = [
                (rng.randint(2, 5), rng.choice([1, -1])) for _ in range(200)
            ]
            assert reduce_letters(letters) == fixpoint_scan_reduce(letters)

    @given(letters=letters_strategy)
    @settings(max_examples=150)
    def test_matches_oracle(self, letters):
        assert reduce_letters(letters) == fixpoint_scan_reduce(letters)

    @given(letters=letters_strategy)
    @settings(max_examples=80)
    def test_idempotent(self, letters):
        w = reduce_letters(letters)
        assert reduce_letters(w.syllables) == w


class TestGroupOps:
    def test_identity_laws(self):
        v = parse_word("g2 g3^-1")
        assert multiply(IDENTITY, v) == v
        assert multiply(v, IDENTITY) == v

    def test_inverse_law_random(self):
        rng = random.Random(7)
        for _ in range(50):
            letters = [(rng.randint(2, 9), rng.choice([1, -1])) for _ in range(rng.randint(0, 20))]
            u = reduce_letters(letters)
            assert multiply(u, invert(u)) == IDENTITY
            assert multiply(invert(u), u) == IDENTITY

    def test_boundary_cancellation(self):
        assert multiply(parse_word("g2 g3"), parse_word("g3^-1 g2")) == Word(((2, 2),))

    @given(a=letters_strategy, b=letters_strategy, c=letters_strategy)
    @settings(max_examples=100)
    def test_associativity(self, a, b, c):
        u, v, w = reduce_letters(a), reduce_letters(b), reduce_letters(c)
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))

    @given(a=letters_strategy, b=letters_strategy)
    @settings(max_examples=100)
    def test_confluence(self, a, b):
        assert reduce_letters(list(a) + list(b)) == multiply(reduce_letters(a), reduce_letters(b))

    @given(a=letters_strategy, b=letters_strategy)
    @settings(max_examples=100)
    def test_length_bound(self, a, b):
        u, v = reduce_letters(a), reduce_letters(b)
        assert len(multiply(u, v)) <= len(u) + len(v)


class TestLiteralSyntax:
    def test_parse_examples(self):
        assert parse_word("1") == IDENTITY
        assert parse_word("g2 g3^-1 g2^4") == Word(((2, 1), (3, -1), (2, 4)))
        assert parse_word("  g2   g2  ") == Word(((2, 2),))

    def test_format(self):
        assert format_word(IDENTITY) == "1"
        assert format_word(Word(((2, 1), (3, -1), (2, 4)))) == "g2 g3^-1 g2^4"

    def test_round_trip(self):
        for text in ("1", "g2", "g5^-3", "g2 g3^-1 g2^4", "g9^2 g2^-2"):
            assert format_word(parse_word(text)) == text

    def test_bad_tokens(self):
        with pytest.raises(WordError):
            parse_word("h2")
        with pytest.raises(WordError):
            parse_word("g1")
        with pytest.raises(WordError):
            parse_word("g2^0x")

    def test_generator_helper(self):
        assert generator(4) == parse_word("g4")
        assert generator(4, -2) == parse_word("g4^-2")
        assert generator(4, 0) == IDENTITY

    def test_operator_sugar(self):
        u, v = parse_word("g2 g3"), parse_word("g3^-1 g2")
        assert u * v == parse_word("g2^2")
        assert u.inverse() == parse_word("g3^-1 g2^-1")
        assert len(parse_word("g2^3 g4^-2")) == 5
        assert str(u) == "g2 g3"
        assert oracles.letters(parse_word("g2^2")) == [(2, 1), (2, 1)]
