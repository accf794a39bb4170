"""Exact renderings of rationals and of their square roots.

Everything decision-relevant in this package is a rational number. Reports
print a rational, or the square root of a rational, to a fixed number of
places with round-half-even, and probes that need a length as a rational
bound take an exact dyadic bracket around its square root. No floating
point is involved anywhere.

Conversions between an int and decimal text work in pieces of at most
``_PIECE`` digits, below 640, the least limit that
``sys.set_int_max_str_digits`` accepts, so no text this package reads or
prints depends on the interpreter's int-string limit.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

_PIECE = 600
_PIECE_POWER = 10**_PIECE


def decimal_int(text: str) -> int:
    """``int(text)`` of decimal digits with an optional leading "-", read in
    pieces of at most _PIECE digits; a shorter text takes one ``int()``. A
    longer text with anything but decimal digits after its sign (a "+",
    a space or a "_", which ``int()`` reads) is refused with ValueError,
    as its pieces would not be whole digits."""
    if len(text) <= _PIECE:
        return int(text)
    digits = text[1:] if text[0] == "-" else text
    if not digits.isdecimal():
        raise ValueError(f"invalid decimal integer of {len(text)} characters")
    head = len(digits) % _PIECE or _PIECE
    n = int(digits[:head])
    for i in range(head, len(digits), _PIECE):
        n = n * _PIECE_POWER + int(digits[i : i + _PIECE])
    return -n if len(digits) < len(text) else n


def decimal_text(n: int, width: int = 0) -> str:
    """``str(n)`` of an int, its digits zero-padded to at least ``width``,
    written in pieces of at most _PIECE digits."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    pieces = []
    while n >= _PIECE_POWER or width > _PIECE:
        n, low = divmod(n, _PIECE_POWER)
        pieces.append(str(low).zfill(_PIECE))
        width -= _PIECE
    pieces.append(str(n).zfill(width))
    return sign + "".join(reversed(pieces))


def rational_text(q) -> str:
    """``str(q)`` of an int or a Fraction, written by ``decimal_text``."""
    text = decimal_text(q.numerator)
    return text if q.denominator == 1 else f"{text}/{decimal_text(q.denominator)}"


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties to even."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


def _format_scaled(scaled: int, digits: int) -> str:
    """Render scaled / 10**digits as a fixed-point decimal string."""
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if digits == 0:
        return sign + decimal_text(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{decimal_text(whole)}.{decimal_text(frac, digits)}"


def rational_decimal(q: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering of a rational, round-half-even."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scaled = _round_half_even(q.numerator * 10**digits, q.denominator)
    return _format_scaled(scaled, digits)


def sqrt_decimal(q: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering of sqrt(q), round-half-even, exact.

    The tie case (sqrt landing exactly on a half-unit of the last digit) is
    detected algebraically, so the rounding is correct in every case, not
    merely up to a guard digit.
    """
    if q < 0:
        raise ValueError("cannot take the square root of a negative value")
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    n, d = q.numerator, q.denominator
    big = n * 10 ** (2 * digits)
    # floor(sqrt(n/d) * 10**digits); exact because floor(sqrt(t)) = isqrt(floor(t))
    fl = isqrt(big // d)
    # compare sqrt(n/d)*10^digits with fl + 1/2:  4*n*10^(2*digits)  vs  d*(2*fl+1)^2
    lhs = 4 * big
    rhs = d * (2 * fl + 1) ** 2
    if lhs > rhs or (lhs == rhs and fl % 2 == 1):
        fl += 1
    return _format_scaled(fl, digits)


def dyadic_sqrt_bounds(q: Fraction) -> tuple:
    """Exact dyadic bracket (lo, hi) with lo <= sqrt(q) <= hi, hi - lo <= 2**-40."""
    if q < 0:
        raise ValueError("cannot take the square root of a negative value")
    scale = 1 << 40
    n, d = q.numerator, q.denominator
    lo_int = isqrt((n * scale * scale) // d)  # floor(sqrt(q) * 2**40)
    lo = Fraction(lo_int, scale)
    hi = Fraction(lo_int + 1, scale)
    if lo * lo == q:
        hi = lo
    return lo, hi

