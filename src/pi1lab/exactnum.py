"""Exact renderings of rationals and of their square roots.

Everything decision-relevant in this package is a rational number. Reports
print a rational, or the square root of a rational, to a fixed number of
places with round-half-even, and probes that need a length as a rational
bound take an exact dyadic bracket around its square root. No floating
point is involved anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt


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
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def rational_decimal(q: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering of a rational, round-half-even."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scaled = _round_half_even(q.numerator * 10**digits, q.denominator)
    return _format_scaled(scaled, digits)


def _floor_sqrt_scaled(n: int, d: int, digits: int) -> int:
    # floor(sqrt(n/d) * 10**digits); exact because floor(sqrt(t)) = isqrt(floor(t))
    big = n * 10 ** (2 * digits)
    return isqrt(big // d)


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
    fl = _floor_sqrt_scaled(n, d, digits)
    # compare sqrt(n/d)*10^digits with fl + 1/2:  4*n*10^(2*digits)  vs  d*(2*fl+1)^2
    lhs = 4 * n * 10 ** (2 * digits)
    rhs = d * (2 * fl + 1) ** 2
    if lhs > rhs or (lhs == rhs and fl % 2 == 1):
        fl += 1
    return _format_scaled(fl, digits)


def dyadic_sqrt_bounds(q: Fraction, bits: int = 40) -> tuple:
    """Exact dyadic bracket (lo, hi) with lo <= sqrt(q) <= hi, hi - lo <= 2**-bits."""
    if q < 0:
        raise ValueError("cannot take the square root of a negative value")
    scale = 1 << bits
    n, d = q.numerator, q.denominator
    lo_int = isqrt((n * scale * scale) // d)  # floor(sqrt(q) * 2**bits)
    lo = Fraction(lo_int, scale)
    hi = Fraction(lo_int + 1, scale)
    if lo * lo == q:
        hi = lo
    return lo, hi

