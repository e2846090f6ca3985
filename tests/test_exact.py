from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotsums.errors import NotCoprime
from cotsums.exact import (bernoulli_number, bernoulli_poly, frac,
                           mod_inverse, periodic_bernoulli, sawtooth)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


class TestFrac:
    @pytest.mark.parametrize("q,expected", [
        (Fraction(7, 3), Fraction(1, 3)),
        (Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(4), Fraction(0)),
    ])
    def test_examples(self, q, expected):
        assert frac(q) == expected

    @given(rationals)
    def test_range_and_shift(self, q):
        f = frac(q)
        assert 0 <= f < 1
        assert frac(q + 1) == f
        assert (q - f).denominator == 1


class TestSawtooth:
    @pytest.mark.parametrize("q,expected", [
        (Fraction(1, 3), Fraction(-1, 6)),
        (Fraction(5), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
    ])
    def test_examples(self, q, expected):
        assert sawtooth(q) == expected

    @given(rationals)
    def test_odd(self, q):
        assert sawtooth(-q) == -sawtooth(q)

    @given(rationals)
    def test_periodic(self, q):
        assert sawtooth(q + 1) == sawtooth(q)

    @given(rationals)
    def test_vs_bernoulli_bar(self, q):
        # equal off the integers, off by exactly 1/2 at them
        b1 = periodic_bernoulli(1, q)
        if q.denominator == 1:
            assert sawtooth(q) - b1 == Fraction(1, 2)
        else:
            assert sawtooth(q) == b1


class TestBernoulliNumbers:
    @pytest.mark.parametrize("r,expected", [
        (0, Fraction(1)),
        (1, Fraction(-1, 2)),
        (2, Fraction(1, 6)),
        (3, Fraction(0)),
        (4, Fraction(-1, 30)),
        (12, Fraction(-691, 2730)),
    ])
    def test_values(self, r, expected):
        assert bernoulli_number(r) == expected

    def test_odd_indices_vanish(self):
        for r in range(3, 40, 2):
            assert bernoulli_number(r) == 0

    @pytest.mark.parametrize("r", range(1, 9))
    @pytest.mark.parametrize("k", range(1, 11))
    def test_multiplication_theorem(self, r, k):
        # independent oracle for the whole table:
        # sum_{a=0}^{k-1} B_r({a/k}) = k^(1-r) B_r
        total = sum(periodic_bernoulli(r, Fraction(a, k)) for a in range(k))
        assert total == Fraction(k) ** (1 - r) * bernoulli_number(r)


class TestBernoulliPoly:
    @pytest.mark.parametrize("r,coeffs", [
        (1, (Fraction(-1, 2), Fraction(1))),
        (2, (Fraction(1, 6), Fraction(-1), Fraction(1))),
        (3, (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1))),
    ])
    def test_examples(self, r, coeffs):
        assert bernoulli_poly(r).coefficients == coeffs

    @pytest.mark.parametrize("r", range(1, 13))
    def test_structure(self, r):
        poly = bernoulli_poly(r)
        assert poly.degree == r
        assert poly.coefficients[-1] == 1
        assert poly.coefficients[0] == bernoulli_number(r)
        assert poly.coefficients[r - 1] == Fraction(-r, 2)

    def test_negative_index_refused(self):
        with pytest.raises(ValueError, match="Bernoulli index must be >= 0"):
            bernoulli_poly(-2)


class TestPeriodicBernoulli:
    @pytest.mark.parametrize("r,q,expected", [
        (1, Fraction(1, 3), Fraction(-1, 6)),
        (1, Fraction(2), Fraction(-1, 2)),
        (2, Fraction(5, 2), Fraction(-1, 12)),
    ])
    def test_examples(self, r, q, expected):
        assert periodic_bernoulli(r, q) == expected

    @given(st.integers(min_value=1, max_value=8), rationals)
    @settings(max_examples=60)
    def test_periodic(self, r, q):
        assert periodic_bernoulli(r, q + 1) == periodic_bernoulli(r, q)

    @given(st.integers(min_value=1, max_value=8), rationals)
    @settings(max_examples=60)
    def test_parity_off_integers(self, r, q):
        if q.denominator != 1:
            assert (periodic_bernoulli(r, -q)
                    == (-1) ** r * periodic_bernoulli(r, q))


class TestModInverse:
    @pytest.mark.parametrize("h,k,expected", [
        (3, 7, 5),
        (1, 11, 1),
        (1, 1, 1),
    ])
    def test_examples(self, h, k, expected):
        assert mod_inverse(h, k) == expected

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            mod_inverse(2, 4)

    @given(st.integers(min_value=-100, max_value=100),
           st.integers(min_value=2, max_value=97))
    def test_inverse_property(self, h, k):
        from math import gcd

        if gcd(h, k) != 1:
            with pytest.raises(NotCoprime):
                mod_inverse(h, k)
        else:
            hp = mod_inverse(h, k)
            assert 1 <= hp <= k - 1
            assert (h * hp) % k == 1
