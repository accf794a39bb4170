"""The free group on countably many generators g2, g3, ...

Words are kept in syllable (run-length) normal form: an ordered tuple of
(generator index, nonzero exponent) pairs in which adjacent syllables have
distinct generator indices. Generator indices start at 2, matching the
circle indexing of the spaces module; there is no g0 or g1.
"""
from __future__ import annotations

import re
from typing import Iterable, Tuple

from .records import Record

Syllable = Tuple[int, int]


class WordError(Exception):
    pass


# Most characters of its input that an error message quotes.
QUOTE_CHARS = 80


def quote(text: str) -> str:
    """repr(text) for an error message, of at most QUOTE_CHARS characters of
    ``text``: a longer text is cut there and marked by an ellipsis."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return repr(text[:QUOTE_CHARS]) + "..."


def cut(text: str) -> str:
    """``text`` for an error message, unquoted, such as a number: cut at
    QUOTE_CHARS characters and marked as ``quote`` marks a cut."""
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


class Word(Record):
    """A fully reduced free-group word; the empty tuple is the identity."""

    __slots__ = _fields = ("syllables",)

    def __init__(self, syllables: Tuple[Syllable, ...] = ()):
        self.syllables = syl = tuple((int(n), int(e)) for n, e in syllables)
        for n, e in syl:
            if n < 2:
                raise WordError(f"generator index must be >= 2, got g{n}")
            if e == 0:
                raise WordError("zero exponent in normal form")
        for (n1, _), (n2, _) in zip(syl, syl[1:]):
            if n1 == n2:
                raise WordError("adjacent syllables share a generator; not reduced")

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        """Total letter count, sum of |exponent| over syllables."""
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> Iterable[Syllable]:
        """The word as single signed letters, e.g. g2^2 -> (2,+1), (2,+1)."""
        for n, e in self.syllables:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield n, step

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def inverse(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = Word()


def generator(n: int, exponent: int = 1) -> Word:
    return Word(((n, exponent),)) if exponent != 0 else IDENTITY


def reduce_letters(raw: Iterable[Syllable]) -> Word:
    """Free reduction of a raw signed-letter (or syllable) sequence.

    Stack-based cancellation: adjacent syllables over the same generator
    merge, empty merges drop and expose further cancellation, giving the
    unique normal form in one pass.
    """
    stack: list = []
    for n, e in raw:
        n, e = int(n), int(e)
        if n < 2:
            raise WordError(f"generator index must be >= 2, got g{n}")
        if e == 0:
            continue
        if stack and stack[-1][0] == n:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([n, e])
    # the stack is in normal form: indices >= 2, no zero exponent, and no two
    # adjacent syllables on one generator; so the Word's checks are skipped
    word = object.__new__(Word)
    word.syllables = tuple(map(tuple, stack))
    return word


def multiply(u: Word, v: Word) -> Word:
    return reduce_letters(tuple(u.syllables) + tuple(v.syllables))


def invert(u: Word) -> Word:
    return Word(tuple((n, -e) for n, e in reversed(u.syllables)))


_LETTER_RE = re.compile(r"^g(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse the word literal syntax: ``g2 g3^-1 g2^4``; identity is ``1``."""
    text = text.strip()
    if text in ("", "1"):
        return IDENTITY
    letters = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        if not m:
            raise WordError(f"bad word token {quote(tok)}; expected e.g. g2 or g3^-1")
        n = int(m.group(1))
        e = int(m.group(2)) if m.group(2) is not None else 1
        if n < 2:
            raise WordError(f"generator index must be >= 2, got g{n}")
        letters.append((n, e))
    return reduce_letters(letters)


def format_word(w: Word) -> str:
    if w.is_identity:
        return "1"
    parts = []
    for n, e in w.syllables:
        parts.append(f"g{n}" if e == 1 else f"g{n}^{e}")
    return " ".join(parts)
