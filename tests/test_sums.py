from fractions import Fraction
from functools import cache
from math import gcd

import mpmath
import pytest
from mpmath import mpf, workprec

from conftest import TOL_DEFAULT, assert_close, residual
from cotsums import periodic, sums
from cotsums.config import RunConfig
from cotsums.errors import (NotCoprime, OutOfRange, ParityViolation,
                            WorkLimitExceeded)
from cotsums.exact import periodic_bernoulli, sawtooth
from cotsums.periodic import (DEFAULT_WORK_LIMIT, PeriodicMap,
                              constrained_product_sum,
                              enumerated_product_sum, random_rational_map)
from cotsums.registry import verify
from cotsums.sums import (EXCLUDE_ZERO, INCLUDE_ZERO, alt_pair_rhs,
                          alt_pair_sum, alt_sign_pair_sum,
                          bernoulli_dedekind_rhs, bernoulli_dedekind_sum,
                          bernoulli_pair_rhs, bernoulli_pair_sum,
                          dedekind_cot, dedekind_series, dedekind_sum,
                          floor_pair_sum, hardy_A, hardy_A_rhs, hardy_B,
                          hardy_B_rhs, hardy_sum, homogeneous_pair_cot,
                          homogeneous_pair_sum, s1_half_range,
                          tan_cot_pair_rhs, tan_pair_mean, tan_square_sum,
                          zagier_cot, zagier_sum)


class TestDedekind:
    @pytest.mark.parametrize("h,k,expected", [
        (1, 1, Fraction(0)),
        (1, 3, Fraction(1, 18)),
        (2, 5, Fraction(0)),
        (1, 4, Fraction(1, 8)),
    ])
    def test_exact_values(self, h, k, expected):
        assert dedekind_sum(h, k) == expected

    @pytest.mark.parametrize("h,k", [(1, 3), (1, 1), (2, 5), (5, 12), (7, 30)])
    def test_cot_form_matches(self, h, k):
        assert residual(dedekind_sum(h, k), dedekind_cot(h, k)) < TOL_DEFAULT

    def test_cot_form_needs_coprime(self):
        with pytest.raises(NotCoprime):
            dedekind_cot(2, 4)

    @pytest.mark.parametrize("h,k", [(1, 3), (1, 4)])
    def test_series_within_bound(self, h, k):
        value, bound = dedekind_series(h, k, terms=10_000)
        assert residual(dedekind_sum(h, k), value) < bound

    def test_series_k1_empty(self):
        value, bound = dedekind_series(1, 1, terms=100)
        assert value == 0 and bound == 0

    @pytest.mark.parametrize("terms", [0, -3])
    def test_series_refuses_no_terms(self, terms):
        with pytest.raises(OutOfRange, match=f"terms must be >= 1, got {terms}"):
            dedekind_series(1, 5, terms)

    def test_series_bound_shrinks(self):
        _, b1 = dedekind_series(1, 3, terms=1000)
        _, b2 = dedekind_series(1, 3, terms=2000)
        with workprec(300):
            assert_close(b1 / b2, 2)


class TestZagier:
    def test_pair(self):
        assert zagier_sum((1, 1), 3) == Fraction(-1, 18)
        assert residual(zagier_sum((1, 1), 3), zagier_cot((1, 1), 3)) < TOL_DEFAULT

    def test_odd_m_vanishes(self):
        for hs, k in [((1, 2, 3), 5), ((1, 1, 1), 7), ((2, 3, 4), 5)]:
            assert zagier_sum(hs, k) == 0

    def test_quadruple(self):
        assert zagier_sum((1, 1, 1, 1), 3) == Fraction(1, 216)
        assert residual(zagier_sum((1, 1, 1, 1), 3),
                        zagier_cot((1, 1, 1, 1), 3)) < TOL_DEFAULT

    @pytest.mark.parametrize("k", [5, 7, 12])
    def test_random_pairs_match(self, k):
        units = [h for h in range(1, k) if gcd(h, k) == 1]
        for h1 in units[:4]:
            for h2 in units[:4]:
                assert residual(zagier_sum((h1, h2), k),
                                zagier_cot((h1, h2), k)) < TOL_DEFAULT

    def test_rhs_needs_even_m(self):
        with pytest.raises(ParityViolation):
            zagier_cot((1, 1, 1), 5)


class TestHomogeneousPair:
    @pytest.mark.parametrize("h1,h2,k", [(1, 1, 3), (2, 3, 7), (3, 5, 11),
                                         (1, 5, 6), (3, 7, 20)])
    def test_matches(self, h1, h2, k):
        assert residual(homogeneous_pair_sum(h1, h2, k),
                        homogeneous_pair_cot(h1, h2, k)) < TOL_DEFAULT

    def test_all_coprime_pairs_to_30(self):
        # both sides are symmetric in (h1, h2), so h1 <= h2 covers all pairs
        for k in range(1, 31):
            units = [h for h in range(1, max(k, 2)) if gcd(h, k) == 1]
            for i, h1 in enumerate(units):
                for h2 in units[i:]:
                    assert residual(homogeneous_pair_sum(h1, h2, k),
                                    homogeneous_pair_cot(h1, h2, k)) \
                        < TOL_DEFAULT, (h1, h2, k)


class TestBernoulliSums:
    @pytest.mark.parametrize("rs,hs,k,expected", [
        ((1, 1), (1, 1), 3, Fraction(7, 36)),
        ((2, 2), (1, 1), 1, Fraction(1, 36)),
        ((1, 2), (1, 1), 2, Fraction(-1, 12)),
    ])
    def test_exact_values(self, rs, hs, k, expected):
        assert bernoulli_dedekind_sum(rs, hs, k) == expected

    @pytest.mark.parametrize("rs,hs,k", [
        ((2, 2), (1, 1), 3),
        ((2, 2, 2), (1, 2, 4), 5),
        ((2, 4), (1, 2), 5),
        ((3, 3), (2, 3), 7),
        ((2, 2, 2, 2), (1, 2, 3, 4), 5),
    ])
    def test_paper_form_exact_for_orders_above_one(self, rs, hs, k):
        lhs = bernoulli_dedekind_sum(rs, hs, k)
        rhs = bernoulli_dedekind_rhs(rs, hs, k, convention="paper")
        assert residual(lhs, rhs) < TOL_DEFAULT

    @pytest.mark.parametrize("rs,hs,k", [
        ((1, 1), (1, 1), 3),
        ((1, 3), (1, 2), 5),
        ((1, 1, 2), (1, 2, 3), 7),
        ((1, 2, 3), (2, 3, 4), 5),
    ])
    def test_corrected_form_exact_with_unit_orders(self, rs, hs, k):
        lhs = bernoulli_dedekind_sum(rs, hs, k)
        rhs = bernoulli_dedekind_rhs(rs, hs, k, convention="corrected")
        assert residual(lhs, rhs) < TOL_DEFAULT

    def test_paper_form_documented_gap(self):
        # the worked counterexample: lhs 7/36, uncorrected closed form 1/36
        lhs = bernoulli_dedekind_sum((1, 1), (1, 1), 3)
        rhs = bernoulli_dedekind_rhs((1, 1), (1, 1), 3, convention="paper")
        assert lhs == Fraction(7, 36)
        assert residual(Fraction(1, 36), rhs) < TOL_DEFAULT

    def test_odd_total_order_rejected_by_rhs(self):
        with pytest.raises(ParityViolation):
            bernoulli_dedekind_rhs((1, 2), (1, 1), 3)

    @pytest.mark.parametrize("rs,hs,message", [
        ((2, 2), (1,), "rs and hs must have the same length"),
        ((2,), (1, 2), "rs and hs must have the same length"),
        ((0, 2), (1, 1), "orders must be >= 1"),
    ])
    def test_rhs_refuses_what_the_sum_refuses(self, rs, hs, message):
        for side in (bernoulli_dedekind_sum, bernoulli_dedekind_rhs):
            with pytest.raises(OutOfRange, match=message):
                side(rs, hs, 5)

    @pytest.mark.parametrize("rs,hs,k", [
        ((3, 2, 2), (1, 1, 1), 5),
        ((2, 3), (1, 2), 5),
        ((3, 4, 2), (1, 2, 3), 7),
        ((5, 2), (3, 4), 7),
    ])
    def test_vanishing_odd_total_no_unit_orders(self, rs, hs, k):
        # A odd with every odd order >= 3 forces an exactly zero sum
        assert sum(rs) % 2 == 1 and 1 not in rs
        assert bernoulli_dedekind_sum(rs, hs, k) == 0

    def test_vanishing_needs_no_unit_orders(self):
        # with an order-1 factor the parity argument breaks: known nonzero case
        assert bernoulli_dedekind_sum((1, 1, 3), (1, 1, 1), 3) == Fraction(-1, 81)


class TestBernoulliPair:
    @pytest.mark.parametrize("r1,r2,h1,h2,k", [
        (2, 2, 1, 1, 3),
        (2, 4, 1, 2, 5),
        (3, 5, 2, 3, 7),   # asymmetric orders exercise the pairing
        (2, 4, 3, 5, 11),
        (3, 3, 1, 2, 5),
    ])
    def test_paper_form_matches_exact(self, r1, r2, h1, h2, k):
        lhs = bernoulli_pair_sum(r1, r2, h1, h2, k)
        rhs = bernoulli_pair_rhs(r1, r2, h1, h2, k, convention="paper")
        assert residual(lhs, rhs) < TOL_DEFAULT

    def test_printed_pairing_would_fail(self):
        # regression guard for the factor pairing: attaching cot^(r1-1)
        # to h1 gives a different (wrong) value for r1 != r2
        from cotsums import trig

        r1, r2, h1, h2, k = 3, 5, 2, 3, 7
        lhs = bernoulli_pair_sum(r1, r2, h1, h2, k)
        p1, p2 = trig.cot_poly(r1 - 1), trig.cot_poly(r2 - 1)
        ct = trig.as_mpf(trig.cot_table(k, 256), k)
        with workprec(300):
            acc = mpf(0)
            for a in range(1, k):
                acc += p1(ct[a * h1 % k]) * p2(ct[a * h2 % k])
            first = mpmath.mpmathify(
                Fraction(1, 6) * Fraction(0) / Fraction(k) ** 7)
            wrong = first + mpf((-1) ** ((r1 - r2) // 2) * r1 * r2) / (
                mpf(2) ** 8 * mpf(k) ** 7) * acc
            assert residual(lhs, wrong) > mpf(1) / 10 ** 6

    def test_corrected_handles_unit_orders(self):
        lhs = bernoulli_pair_sum(1, 1, 1, 1, 3)
        assert lhs == Fraction(11, 36)
        rhs = bernoulli_pair_rhs(1, 1, 1, 1, 3, convention="corrected")
        assert residual(lhs, rhs) < TOL_DEFAULT

    @pytest.mark.parametrize("convention", ["paper", "corrected"])
    def test_k_below_one_refused_by_name(self, convention):
        # the paper form divides by k^(A-1), so k >= 1 is checked first
        with pytest.raises(OutOfRange, match="k must be >= 1, got 0"):
            bernoulli_pair_rhs(2, 2, 1, 1, 0, convention=convention)


class TestHardySums:
    @pytest.mark.parametrize("which,h,k,expected", [
        ("s3", 1, 3, Fraction(1, 3)),
        ("s2", 1, 4, Fraction(-1, 8)),
        ("s1", 2, 3, Fraction(-1, 3)),
        ("s5", 3, 5, Fraction(4, 5)),
        ("s4", 3, 5, Fraction(0)),
        ("S", 1, 3, Fraction(0)),
    ])
    def test_examples(self, which, h, k, expected):
        assert hardy_sum(which, h, k) == expected

    def test_zero_residue_conventions(self):
        # only S and s4 see the a = 0 term (-1 and +1 respectively)
        for which, h, k in [("s1", 2, 5), ("s2", 1, 4), ("s3", 2, 5),
                            ("s5", 3, 5)]:
            assert (hardy_sum(which, h, k, EXCLUDE_ZERO)
                    == hardy_sum(which, h, k, INCLUDE_ZERO))
        assert hardy_sum("s4", 3, 5, INCLUDE_ZERO) \
            == hardy_sum("s4", 3, 5, EXCLUDE_ZERO) + 1
        assert hardy_sum("S", 1, 3, INCLUDE_ZERO) \
            == hardy_sum("S", 1, 3, EXCLUDE_ZERO) - 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            hardy_sum("s9", 1, 3)

    @staticmethod
    def six_row_table(which, h, k, convention):
        """Each Hardy sum as its own row of (weight numerator of a, its
        denominator, sawtooth factor or None for S and s4, its multiplier),
        summed by the kernel: the definition hardy_sum delegates away."""
        def sign(e):
            return -1 if e % 2 else 1
        saw = periodic.sawtooth_map(k)
        nums, den = saw.ints
        weight, wden, f, hf = {
            "S": (lambda a: sign(a + 1 + (a * h) // k), 1, None, 1),
            "s1": (lambda a: sign((a * h) // k), 1, saw, 1),
            "s2": (lambda a: sign(a) * nums[a], den, saw, h),
            "s3": (sign, 1, saw, h),
            "s4": (lambda a: sign((a * h) // k), 1, None, 1),
            "s5": (lambda a: sign(a + (a * h) // k), 1, saw, 1),
        }[which]
        start = 0 if convention == INCLUDE_ZERO else 1
        table = periodic.PeriodicMap.over(
            [0] * start + [weight(a) for a in range(start, k)], wden)
        return constrained_product_sum(
            [table, f or periodic.constant_map(1, k)], (1, -hf))

    def test_the_pair_sums_match_the_six_row_table(self):
        """k = 1..59, |h| <= 2k + 3, every kind and convention: 89,916
        values, equal and each a Fraction."""
        cases = 0
        for k in range(1, 60):
            for h in range(-(2 * k + 3), 2 * k + 4):
                for which in sums.HARDY_KINDS:
                    for convention in (EXCLUDE_ZERO, INCLUDE_ZERO):
                        got = hardy_sum(which, h, k, convention)
                        want = self.six_row_table(which, h, k, convention)
                        assert (got, type(got)) == (want, Fraction), \
                            (which, h, k, convention)
                        cases += 1
        assert cases == 89_916


class TestHardyA:
    @pytest.mark.parametrize("hs,k,expected", [
        ((1, 1), 4, Fraction(1, 8)),
        ((1, 3), 4, Fraction(-1, 8)),
        ((1, 1), 2, Fraction(0)),
        ((1, 3, 1, 3), 8, Fraction(-7, 64)),
        ((3, 1), 8, Fraction(5, 16)),
    ])
    def test_exact_and_rhs(self, hs, k, expected):
        assert hardy_A(hs, k) == expected
        assert residual(expected, hardy_A_rhs(hs, k)) < TOL_DEFAULT

    def test_preconditions(self):
        with pytest.raises(ParityViolation):
            hardy_A((1, 1), 5)          # odd k
        with pytest.raises(ParityViolation):
            hardy_A((2, 1), 8)          # even h1 breaks the weight
        with pytest.raises(ParityViolation):
            hardy_A_rhs((1, 1, 1), 4)   # odd m
        with pytest.raises(NotCoprime):
            hardy_A((3, 2), 4)


class TestHardyB:
    @pytest.mark.parametrize("hs,k,expected", [
        ((1, 1), 3, Fraction(-1, 3)),
        ((2, 1), 3, Fraction(1, 3)),
        ((1, 2), 5, Fraction(-4, 5)),
        ((2, 3), 5, Fraction(2, 5)),
        ((1, 1, 1, 1), 3, Fraction(1, 36)),
        ((1, 2, 3, 4), 5, Fraction(1, 10)),
    ])
    def test_exact_and_rhs(self, hs, k, expected):
        assert hardy_B(hs, k) == expected
        assert residual(expected, hardy_B_rhs(hs, k)) < TOL_DEFAULT

    def test_preconditions(self):
        with pytest.raises(ParityViolation):
            hardy_B((1, 1), 4)
        with pytest.raises(ParityViolation):
            hardy_B_rhs((1, 1, 1), 5)


class TestPairCorollaries:
    def test_alt_pair_s2_instance(self):
        assert alt_pair_sum(1, 1, 4) == Fraction(-1, 8)
        assert residual(alt_pair_sum(1, 1, 4), alt_pair_rhs(1, 1, 4)) < TOL_DEFAULT

    @pytest.mark.parametrize("h1,h2,k", [(1, 3, 4), (3, 5, 8), (1, 5, 6)])
    def test_alt_pair_matches(self, h1, h2, k):
        assert residual(alt_pair_sum(h1, h2, k),
                        alt_pair_rhs(h1, h2, k)) < TOL_DEFAULT

    @pytest.mark.parametrize("h1,h2,k", [(1, 1, 3), (1, 2, 5), (3, 2, 5),
                                         (3, 4, 7)])
    def test_floor_pair_with_alt(self, h1, h2, k):
        assert residual(floor_pair_sum(h1, h2, k, with_alt=True),
                        tan_cot_pair_rhs(h1, h2, k)) < TOL_DEFAULT

    @pytest.mark.parametrize("h1,h2,k", [(2, 1, 3), (2, 3, 5), (4, 1, 5),
                                         (2, 1, 7)])
    def test_floor_pair_without_alt(self, h1, h2, k):
        assert residual(floor_pair_sum(h1, h2, k, with_alt=False),
                        tan_cot_pair_rhs(h1, h2, k)) < TOL_DEFAULT

    @pytest.mark.parametrize("h,k", [(1, 3), (2, 5), (3, 5), (4, 7)])
    def test_s3_representation(self, h, k):
        assert residual(hardy_sum("s3", h, k),
                        tan_cot_pair_rhs(1, h, k)) < TOL_DEFAULT

    @pytest.mark.parametrize("h,k", [(1, 3), (3, 5), (5, 7), (3, 7)])
    def test_s5_representation(self, h, k):
        assert residual(hardy_sum("s5", h, k),
                        tan_cot_pair_rhs(h, 1, k)) < TOL_DEFAULT

    @pytest.mark.parametrize("h,k", [(2, 3), (2, 5), (4, 5), (6, 7)])
    def test_s1_representation(self, h, k):
        assert residual(hardy_sum("s1", h, k),
                        tan_cot_pair_rhs(h, 1, k)) < TOL_DEFAULT


class TestNegativeMultipliers:
    # signs must come from integer parity even when floors go negative
    def test_hardy_sums_with_negative_h(self):
        for which in ("S", "s1", "s2", "s3", "s4", "s5"):
            value = hardy_sum(which, -2, 5)
            assert isinstance(value, (int, Fraction))
        assert hardy_sum("s3", -2, 5) == -hardy_sum("s3", 2, 5)

    def test_identities_hold_with_negative_h(self):
        assert residual(hardy_sum("s3", -2, 5),
                        tan_cot_pair_rhs(1, -2, 5)) < TOL_DEFAULT
        assert residual(floor_pair_sum(-3, 2, 5, with_alt=True),
                        tan_cot_pair_rhs(-3, 2, 5)) < TOL_DEFAULT
        assert residual(zagier_sum((-1, 2), 5),
                        zagier_cot((-1, 2), 5)) < TOL_DEFAULT
        assert residual(hardy_B((-2, 1), 3), hardy_B_rhs((-2, 1), 3)) < TOL_DEFAULT


class TestAltSignPair:
    @pytest.mark.parametrize("h1,h2,k,expected", [
        (1, 1, 3, 2),
        (1, 1, 5, 4),
        (1, 3, 5, 0),
        (2, 3, 7, 2),
    ])
    def test_exact_values_and_rhs(self, h1, h2, k, expected):
        assert alt_sign_pair_sum(h1, h2, k) == expected
        assert residual(expected, tan_pair_mean(h1, h2, k)) < TOL_DEFAULT

    def test_literal_exponent_reading_differs(self):
        # (-1)^((a(h1+h2)) mod k) at k=3, h=(1,1) gives 0, not the rhs 2
        k, h1, h2 = 3, 1, 1
        literal = sum((-1) ** ((a * (h1 + h2)) % k) for a in range(1, k))
        assert literal == 0
        assert alt_sign_pair_sum(h1, h2, k) == 2

    @pytest.mark.parametrize("h,k", [(3, 5), (1, 7), (5, 9), (7, 11)])
    def test_s4_convention_consistency(self, h, k):
        # s4 with the zero residue excluded equals the pair sum at h2 = 1
        assert hardy_sum("s4", h, k, EXCLUDE_ZERO) == alt_sign_pair_sum(h, 1, k)


class TestTanSquare:
    @pytest.mark.parametrize("k", [3, 5, 9, 15, 25])
    def test_classical_value(self, k):
        assert residual(tan_square_sum(k), k * k - k) < TOL_DEFAULT

    def test_needs_odd(self):
        with pytest.raises(ParityViolation):
            tan_square_sum(8)


class TestHalfRange:
    def test_example(self):
        assert hardy_sum("s1", 2, 3) == Fraction(-1, 3)
        assert residual(Fraction(-1, 3), s1_half_range(2, 3)) < TOL_DEFAULT

    @pytest.mark.parametrize("h,k", [(2, 5), (4, 5), (2, 9), (6, 11)])
    def test_half_equals_full_equals_exact(self, h, k):
        exact = hardy_sum("s1", h, k)
        assert residual(exact, s1_half_range(h, k)) < TOL_DEFAULT
        assert residual(exact, tan_cot_pair_rhs(h, 1, k)) < TOL_DEFAULT


# The exact sides are computed by the zero-sum product sum over the defining
# maps; here each is compared with its definition summed term by term, for
# every k <= 16 and every multiplier in -k..2k coprime to k.


@cache
def _saw(n, k):
    return sawtooth(Fraction(n, k))


@cache
def _bern(r, n, k):
    return periodic_bernoulli(r, Fraction(n, k))


def _sgn(e):
    return -1 if e % 2 else 1


def _units(k):
    return [h for h in range(-k, 2 * k + 1) if gcd(h, k) == 1]


def _pairs(k):
    return [(h1, h2) for h1 in _units(k) for h2 in _units(k)]


HARDY_TERMS = {
    "S": lambda a, h, k: _sgn(a + 1 + (a * h) // k),
    "s1": lambda a, h, k: _sgn((a * h) // k) * _saw(a, k),
    "s2": lambda a, h, k: _sgn(a) * _saw(a, k) * _saw(a * h, k),
    "s3": lambda a, h, k: _sgn(a) * _saw(a * h, k),
    "s4": lambda a, h, k: _sgn((a * h) // k),
    "s5": lambda a, h, k: _sgn(a + (a * h) // k) * _saw(a, k),
}

# name -> (computed(k, *args), literal(k, *args), the args for modulus k)
LITERAL = {
    "dedekind_sum": (
        lambda k, h: dedekind_sum(h, k),
        lambda k, h: sum(_saw(a, k) * _saw(a * h, k) for a in range(k)),
        lambda k: [(h,) for h in _units(k)]),
    "homogeneous_pair_sum": (
        lambda k, h1, h2: homogeneous_pair_sum(h1, h2, k),
        lambda k, h1, h2: sum(_saw(a * h1, k) * _saw(a * h2, k)
                              for a in range(1, k)),
        _pairs),
    "alt_pair_sum": (
        lambda k, h1, h2: alt_pair_sum(h1, h2, k),
        lambda k, h1, h2: sum(_sgn(a) * _saw(a * h1, k) * _saw(a * h2, k)
                              for a in range(1, k)),
        _pairs),
    "floor_pair_sum-alt": (
        lambda k, h1, h2: floor_pair_sum(h1, h2, k, with_alt=True),
        lambda k, h1, h2: sum(_sgn(a + (a * h1) // k) * _saw(a * h2, k)
                              for a in range(1, k)),
        _pairs),
    "floor_pair_sum": (
        lambda k, h1, h2: floor_pair_sum(h1, h2, k, with_alt=False),
        lambda k, h1, h2: sum(_sgn((a * h1) // k) * _saw(a * h2, k)
                              for a in range(1, k)),
        _pairs),
    "alt_sign_pair_sum": (
        lambda k, h1, h2: alt_sign_pair_sum(h1, h2, k),
        lambda k, h1, h2: sum(_sgn((a * h1) % k + (a * h2) % k)
                              for a in range(1, k)),
        lambda k: _pairs(k) if k % 2 else []),
    "bernoulli_pair_sum": (
        lambda k, r1, r2, h1, h2: bernoulli_pair_sum(r1, r2, h1, h2, k),
        lambda k, r1, r2, h1, h2: sum(_bern(r1, a * h1, k) * _bern(r2, a * h2, k)
                                      for a in range(k)),
        lambda k: [(1 + k % 3, 1 + k % 4, h1, h2) for h1, h2 in _pairs(k)]),
    "hardy_sum": (
        lambda k, which, convention, h: hardy_sum(which, h, k, convention),
        lambda k, which, convention, h: sum(
            HARDY_TERMS[which](a, h, k)
            for a in range(0 if convention == INCLUDE_ZERO else 1, k)),
        lambda k: [(which, convention, h) for which in HARDY_TERMS
                   for convention in (EXCLUDE_ZERO, INCLUDE_ZERO)
                   for h in _units(k)]),
    # the m = 2 cases: a_2 = -a_1
    "hardy_A": (
        lambda k, h1, h2: hardy_A((h1, h2), k),
        lambda k, h1, h2: sum(_sgn(a) * _saw(a * h1, k) * _saw(-a * h2, k)
                              for a in range(k)),
        lambda k: _pairs(k) if k % 2 == 0 else []),
    "hardy_B": (
        lambda k, h1, h2: hardy_B((h1, h2), k),
        lambda k, h1, h2: sum(_sgn(a * h1 + k * ((a * h1) // k))
                              * _saw(-a * h2, k) for a in range(1, k)),
        lambda k: _pairs(k) if k % 2 else []),
    # parseval's exact side, cor1's at (h1, h2) = (1, -1)
    "parseval_sides": (
        lambda k, f1, f2: constrained_product_sum([f1, f2], (1, 1)),
        lambda k, f1, f2: sum(f1(a) * f2(-a) for a in range(k)),
        lambda k: [(random_rational_map(k, k), random_rational_map(k, -k))]),
}


@pytest.mark.parametrize("name", LITERAL)
def test_exact_side_matches_literal_definition(name):
    computed, literal, cases = LITERAL[name]
    for k in range(1, 17):
        for args in cases(k):
            assert computed(k, *args) == literal(k, *args), (k, args)


# The registry's zero-sum exact sides, once by the convolution chain and once
# rebuilt through the brute-force enumeration: the printed exact lhs agrees.
CHAIN_INSTANCES = [
    ("th4", {"k": 7, "rs": (1, 3), "hs": (2, 3)}),
    ("th4", {"k": 3, "rs": (1, 1), "hs": (1, 1), "convention": "paper"}),
    ("th4", {"k": 6, "rs": (2, 4), "hs": (1, 5), "convention": "paper"}),
    ("th4", {"k": 5, "rs": (1, 1, 1, 1), "hs": (1, 2, 3, 4)}),
    ("th4", {"k": 7, "rs": (2, 2, 2), "hs": (1, 2, 3),
             "convention": "paper"}),
    ("th4", {"k": 6, "rs": (1, 2, 3), "hs": (5, 1, 5)}),
    ("th5", {"k": 8, "hs": (3, 1, 5, 7)}),
    ("th5", {"k": 10, "hs": (1, 3)}),
    ("th7", {"k": 9, "hs": (2, 4, 5, 7)}),
    ("th7", {"k": 7, "hs": (3, 5)}),
    ("th1", {"k": 7, "m": 3, "seed": 2}),
    ("th1", {"k": 6, "m": 4, "seed": 5}),
    ("th1", {"k": 5, "m": 1}),
    ("parseval", {"k": 9, "seed": 3}),
]


@pytest.mark.parametrize("identity,params", CHAIN_INSTANCES,
                         ids=[f"{i}-{n}" for n, (i, _) in
                              enumerate(CHAIN_INSTANCES)])
def test_exact_side_matches_enumeration(monkeypatch, identity, params):
    chain = verify(identity, params)
    calls = []

    def enumerate_instead(fs, hs, work_limit=periodic.DEFAULT_WORK_LIMIT):
        calls.append(len(fs))
        return enumerated_product_sum(fs, hs, work_limit)

    for module in (periodic, sums):
        monkeypatch.setattr(module, "constrained_product_sum",
                            enumerate_instead)
    enumerated = verify(identity, params)
    assert calls
    assert enumerated.lhs == chain.lhs


# the exact sides whose maps are built in integer form, at k ~ 2000
INTEGER_SIDES = [
    (dedekind_sum, (3001, 2000)),
    *((hardy_sum, (which, 3001, 2001)) for which in
      ("S", "s1", "s2", "s3", "s4", "s5")),
    (hardy_sum, ("s2", 7, 2000)),
    (alt_pair_sum, (7, 3001, 2000)),
    (floor_pair_sum, (7, 3001, 2001, True)),
    (floor_pair_sum, (7, 3001, 2001, False)),
    (alt_sign_pair_sum, (7, 3001, 2001)),
    (hardy_A, ((7, 3001), 2000)),
    (hardy_B, ((7, 3001), 2001)),
]


def test_exact_sides_never_read_fraction_values(monkeypatch):
    """The chain reads every map of these sides in its integer form: with
    PeriodicMap.values made to raise, each still returns its value."""
    expected = [fn(*args) for fn, args in INTEGER_SIDES]

    def refuse(self):
        raise AssertionError("Fraction values were read")

    monkeypatch.setattr(periodic.PeriodicMap, "values", property(refuse))
    with pytest.raises(AssertionError, match="values were read"):
        periodic.sawtooth_map(5)(1)
    assert [fn(*args) for fn, args in INTEGER_SIDES] == expected


@pytest.mark.parametrize("identity,params", [
    ("eq1", {"h": 3001, "k": 2000}), ("cor9-s3", {"h": 3001, "k": 2001}),
    ("cor7", {"h": 3001, "k": 2000}), ("tan-sq", {"k": 2001}),
    # the paper form is a kernel call on the order-1 and order-3 tables
    ("th4", {"k": 2000, "rs": (2, 4), "hs": (3001, 7),
             "convention": "paper"}),
    # the zero-sum product identity at m = 4
    ("th2", {"k": 40, "hs": (1, 3, 7, 9)})])
def test_table_error_budget_scales_with_precision(identity, params):
    # the closed sides read O(k) table entries; at b bits the residual stays
    # within 2^(24-b) of max(1, |rhs|) at every precision
    for bits in (128, 256, 512):
        report = verify(identity, params,
                        RunConfig(precision=bits, tolerance=f"2^-{bits - 16}"))
        with workprec(bits):
            budget = mpf(2) ** (24 - bits) * max(1, abs(mpf(report.rhs)))
            assert mpf(report.residual) <= budget, (bits, report.residual)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("exact", [
    lambda k: zagier_sum((1, 1), k), lambda k: hardy_A((1, 1), k),
    lambda k: hardy_B((1, 1), k),
    lambda k: bernoulli_dedekind_sum((2, 2), (1, 1), k)],
    ids=["zagier_sum", "hardy_A", "hardy_B", "bernoulli_dedekind_sum"])
def test_zero_sum_exact_sides_refuse_k_below_one(exact, k):
    # k >= 1 is checked first, so the message names it, not the period of
    # a map
    with pytest.raises(OutOfRange) as refused:
        exact(k)
    assert str(refused.value) == f"k must be >= 1, got {k}"


# each exact side over the chain: (side(k, work_limit), k, m). k = 5003 is
# prime and k = 5002 even, so every rule holds at these multipliers.
CHARGED_SIDES = {
    "dedekind_sum": (lambda k, w: dedekind_sum(2, k, w), 5003, 2),
    "homogeneous_pair_sum": (
        lambda k, w: homogeneous_pair_sum(2, 3, k, w), 5003, 2),
    "alt_pair_sum": (lambda k, w: alt_pair_sum(1, 3, k, w), 5002, 2),
    "floor_pair_sum": (lambda k, w: floor_pair_sum(3, 2, k, True, w),
                       5003, 2),
    "alt_sign_pair_sum": (lambda k, w: alt_sign_pair_sum(2, 3, k, w),
                          5003, 2),
    "bernoulli_pair_sum": (
        lambda k, w: bernoulli_pair_sum(2, 4, 2, 3, k, w), 5003, 2),
    **{f"hardy_sum-{which}": (
        lambda k, w, which=which: hardy_sum(which, 2, k, work_limit=w),
        5003, 2) for which in sums.HARDY_KINDS},
    "hardy_A": (lambda k, w: hardy_A((1, 3, 9), k, w), 70, 3),
    "hardy_B": (lambda k, w: hardy_B((2, 3, 4), k, w), 71, 3),
    "bernoulli_dedekind_sum": (
        lambda k, w: bernoulli_dedekind_sum((2, 2, 2), (1, 2, 3), k, w),
        71, 3),
}


@pytest.mark.parametrize("name", CHARGED_SIDES)
def test_exact_side_charges_the_chain_before_its_maps(monkeypatch, name):
    """Each side takes the work limit it is given: its (m-2)k^2 + k
    products fit a limit of that count, and one less is refused in the
    chain's wording before any k-entry map is built."""
    side, k, m = CHARGED_SIDES[name]
    products = (m - 2) * k * k + k
    assert side(k, products) == side(k, DEFAULT_WORK_LIMIT)

    def built(*args):
        raise AssertionError("a map was built before the charge")
    monkeypatch.setattr(PeriodicMap, "over", built)
    monkeypatch.setattr(PeriodicMap, "__init__", built)
    with pytest.raises(WorkLimitExceeded) as refused:
        side(k, products - 1)
    assert str(refused.value) == (
        f"(m-2)k^2 + k = {products} products at k={k}, m={m} exceed the "
        f"work limit {products - 1}")
