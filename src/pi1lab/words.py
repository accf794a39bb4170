"""The free group on countably many generators g2, g3, ...

Words are kept in syllable (run-length) normal form: an ordered tuple of
(generator index, nonzero exponent) pairs in which adjacent syllables have
distinct generator indices. Generator indices start at 2, matching the
circle indexing of the spaces module; there is no g0 or g1.
"""
from __future__ import annotations

import re
from typing import Iterable, Tuple

from .exactnum import decimal_int
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

    Each pair is checked, as ints with an index >= 2, and a zero exponent
    is dropped; ``_free_reduce`` then gives the normal form.
    """
    letters = []
    for n, e in raw:
        n, e = int(n), int(e)
        if n < 2:
            raise WordError(f"generator index must be >= 2, got g{n}")
        if e:
            letters.append((n, e))
    return _word(_free_reduce(letters))


def _free_reduce(letters: Iterable[Syllable]) -> Tuple[Syllable, ...]:
    """The syllables of the free reduction of (index, exponent) int pairs
    with indices >= 2 and nonzero exponents, which are not checked.

    Stack-based cancellation: adjacent syllables over the same generator
    merge, empty merges drop and expose further cancellation, giving the
    unique normal form in one pass.
    """
    stack: list = []
    for n, e in letters:
        if stack and stack[-1][0] == n:
            e += stack.pop()[1]
            if e:
                stack.append((n, e))
        else:
            stack.append((n, e))
    return tuple(stack)


def _word(syllables: Tuple[Syllable, ...]) -> Word:
    """The Word of syllables in normal form, such as ``_free_reduce`` gives:
    indices >= 2, no zero exponent and no two adjacent syllables on one
    generator; so the Word's checks are skipped."""
    word = object.__new__(Word)
    word.syllables = syllables
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
        n = decimal_int(m.group(1))
        e = decimal_int(m.group(2)) if m.group(2) is not None else 1
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
