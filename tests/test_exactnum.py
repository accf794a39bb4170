from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import SqrtExt, sqrt_leq_sqrt_plus_sqrt
from pi1lab.exactnum import dyadic_sqrt_bounds, rational_decimal, sqrt_decimal

rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000)
nonneg = st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=1000)


class TestRationalDecimal:
    def test_plain(self):
        assert rational_decimal(Fraction(1, 4), 3) == "0.250"
        assert rational_decimal(Fraction(-1, 3), 5) == "-0.33333"
        assert rational_decimal(Fraction(7), 0) == "7"

    def test_half_even_ties(self):
        assert rational_decimal(Fraction(1, 2), 0) == "0"
        assert rational_decimal(Fraction(3, 2), 0) == "2"
        assert rational_decimal(Fraction(5, 2), 0) == "2"
        assert rational_decimal(Fraction(25, 1000), 2) == "0.02"
        assert rational_decimal(Fraction(35, 1000), 2) == "0.04"
        assert rational_decimal(Fraction(-1, 2), 0) == "0"

    @given(q=rationals, digits=st.integers(min_value=0, max_value=12))
    def test_enclosure(self, q, digits):
        r = Fraction(rational_decimal(q, digits))
        assert abs(r - q) <= Fraction(1, 2 * 10**digits)


class TestSqrtDecimal:
    def test_perfect_squares(self):
        assert sqrt_decimal(Fraction(4), 3) == "2.000"
        assert sqrt_decimal(Fraction(1, 4), 1) == "0.5"
        assert sqrt_decimal(Fraction(0), 5) == "0.00000"

    def test_irrational(self):
        assert sqrt_decimal(Fraction(2), 10) == "1.4142135624"

    def test_tie_is_even(self):
        # sqrt(1/4) at 0 digits is exactly 0.5: half-even gives 0
        assert sqrt_decimal(Fraction(1, 4), 0) == "0"
        assert sqrt_decimal(Fraction(9, 4), 0) == "2"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_decimal(Fraction(-1), 3)

    @given(q=nonneg, digits=st.integers(min_value=0, max_value=10))
    def test_enclosure(self, q, digits):
        r = Fraction(sqrt_decimal(q, digits))
        h = Fraction(1, 2 * 10**digits)
        assert q <= (r + h) ** 2
        if r >= h:
            assert (r - h) ** 2 <= q


class TestDyadicSqrtBounds:
    @given(q=nonneg)
    def test_bracket(self, q):
        lo, hi = dyadic_sqrt_bounds(q)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(1, 2**40)


class TestSqrtTriangleHelper:
    def test_cases(self):
        assert sqrt_leq_sqrt_plus_sqrt(Fraction(4), Fraction(1), Fraction(1))
        assert not sqrt_leq_sqrt_plus_sqrt(Fraction(5), Fraction(1), Fraction(1))
        assert sqrt_leq_sqrt_plus_sqrt(Fraction(2), Fraction(2), Fraction(0))

    @given(a=nonneg, b=nonneg)
    def test_subadditive(self, a, b):
        # sqrt(a + b) <= sqrt(a) + sqrt(b) always
        assert sqrt_leq_sqrt_plus_sqrt(a + b, a, b)


class TestSqrtExt:
    def test_sign_mixed(self):
        assert SqrtExt(Fraction(2), Fraction(-2), 2).sign() == -1  # 2 - 2*sqrt(2) < 0
        assert SqrtExt(Fraction(3), Fraction(-2), 2).sign() == 1  # 3 - 2*sqrt(2) > 0
        assert SqrtExt(Fraction(-2), Fraction(1), 4).sign() == 0  # -2 + sqrt(4)
        assert SqrtExt(Fraction(0), Fraction(1), 5).sign() == 1
        assert SqrtExt(Fraction(0), Fraction(-1), 5).sign() == -1

    def test_square_radicand_folds(self):
        v = SqrtExt(Fraction(1), Fraction(3), 9)
        assert v.is_rational and v.rational_value() == 10

    def test_equality_across_representations(self):
        assert SqrtExt(Fraction(0), Fraction(2), 2).cmp(SqrtExt(Fraction(0), Fraction(1), 8)) == 0
        assert SqrtExt(Fraction(1), Fraction(1, 3), 18).cmp(SqrtExt(Fraction(1), Fraction(1), 2)) == 0

    def test_cross_radical_order(self):
        # sqrt(2) + 1 < sqrt(7)? 2.414 vs 2.645 -> less
        a = SqrtExt(Fraction(1), Fraction(1), 2)
        b = SqrtExt(Fraction(0), Fraction(1), 7)
        assert a.cmp(b) < 0 and b.cmp(a) > 0

    def test_cmp_rational(self):
        v = SqrtExt(Fraction(0), Fraction(1), 2)
        assert v.cmp_rational(Fraction(3, 2)) < 0
        assert v.cmp_rational(Fraction(7, 5)) > 0

    def test_sqrt_of(self):
        v = SqrtExt.sqrt_of(Fraction(9, 4))
        assert v.is_rational and v.rational_value() == Fraction(3, 2)
        w = SqrtExt.sqrt_of(Fraction(1, 2))
        assert w.cmp_rational(Fraction(7, 10)) > 0
        assert w.cmp_rational(Fraction(8, 10)) < 0

    def test_decimal(self):
        assert SqrtExt(Fraction(1), Fraction(1), 2).decimal(6) == "2.414214"
        assert SqrtExt(Fraction(-1), Fraction(-1), 2).decimal(4) == "-2.4142"
        assert SqrtExt(Fraction(1, 3), Fraction(0), 0).decimal(5) == "0.33333"

    @given(
        a=st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=40),
        b=st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=40),
        r=st.integers(min_value=0, max_value=60),
    )
    def test_sign_matches_float(self, a, b, r):
        v = SqrtExt(a, b, r)
        approx = float(a) + float(b) * r**0.5
        if abs(approx) > 1e-9:
            assert v.sign() == (1 if approx > 0 else -1)

    @given(
        a1=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=20),
        b1=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=20),
        r1=st.integers(min_value=0, max_value=30),
        a2=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=20),
        b2=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=20),
        r2=st.integers(min_value=0, max_value=30),
    )
    def test_cmp_matches_float(self, a1, b1, r1, a2, b2, r2):
        u = SqrtExt(a1, b1, r1)
        v = SqrtExt(a2, b2, r2)
        x = float(a1) + float(b1) * r1**0.5
        y = float(a2) + float(b2) * r2**0.5
        if abs(x - y) > 1e-9:
            assert u.cmp(v) == (1 if x > y else -1)
        assert u.cmp(v) == -v.cmp(u)
