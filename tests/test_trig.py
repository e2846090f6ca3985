import tracemalloc

import mpmath
import pytest
from mpmath import mpf, workprec

from conftest import assert_close
from cotsums import trig
from cotsums.cli import main
from cotsums.errors import PoleAtHalfPeriod, PoleAtIntegerMultiple
from cotsums.exact import bernoulli_number
from cotsums.hp import guarded
from cotsums.periodic import random_odd_map, random_rational_map
from cotsums.trig import (COT, TAN, VALUES, as_mpf, cot_at, cot_deriv_at,
                          cot_deriv_table, cot_poly, cot_table, table_scale,
                          tan_at, tan_table, trig_product_sum)


class TestCotPoly:
    def test_first_orders(self):
        assert cot_poly(0).coefficients == (0, 1)
        assert cot_poly(1).coefficients == (-1, 0, -1)
        assert cot_poly(2).coefficients == (0, 2, 0, 2)

    @pytest.mark.parametrize("m", range(13))
    def test_degree_and_parity(self, m):
        poly = cot_poly(m)
        coeffs = poly.coefficients
        assert len(coeffs) == m + 2  # degree m + 1
        assert coeffs[-1] != 0
        # only degrees congruent to m+1 mod 2 appear
        for deg, c in enumerate(coeffs):
            if deg % 2 != (m + 1) % 2:
                assert c == 0

    def test_constant_terms_are_the_tangent_numbers(self):
        # the closed side's Q_r against the exact side's B_r, built apart:
        # Q_(2n-1)(0) = -T_n, T_n = (-1)^(n-1) 4^n (4^n - 1) B_2n / (2n)
        for n in range(1, 61):
            t_n = ((-1) ** (n - 1) * 4 ** n * (4 ** n - 1)
                   * bernoulli_number(2 * n) / (2 * n))
            assert cot_poly(2 * n - 1).coefficients[0] == -t_n, n


class TestPointValues:
    def test_cot_examples(self):
        assert_close(cot_at(1, 4), 1)
        with workprec(300):
            assert_close(cot_at(1, 3), 1 / mpmath.sqrt(3))
        with pytest.raises(PoleAtIntegerMultiple):
            cot_at(3, 3)

    def test_tan_examples(self):
        assert_close(tan_at(1, 4), 1)
        with workprec(300):
            assert_close(tan_at(1, 3), mpmath.sqrt(3))
        with pytest.raises(PoleAtHalfPeriod):
            tan_at(2, 4)

    def test_argument_reduction(self):
        assert_close(cot_at(5, 4), cot_at(1, 4))
        assert_close(tan_at(-1, 3), tan_at(2, 3))

    def test_cot_deriv_examples(self):
        assert_close(cot_deriv_at(0, 1, 4), 1)
        assert_close(cot_deriv_at(1, 1, 4), -2)
        with workprec(300):
            assert_close(cot_deriv_at(2, 1, 3), mpf(8) / (3 * mpmath.sqrt(3)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_finite_difference_oracle(self, m):
        # central difference of the (m-1)-th derivative, step 2^-64,
        # agrees to 2^-56 at 256 bits
        bits = 256
        poly = cot_poly(m - 1)
        with workprec(bits + 16):
            h = mpf(2) ** -(bits // 4)
            for a, k in [(1, 5), (2, 7), (3, 8)]:
                x = mpmath.pi * a / k
                diff = (poly(mpmath.cot(x + h)) - poly(mpmath.cot(x - h))) / (2 * h)
                exact = cot_deriv_at(m, a, k, bits)
                assert abs(diff - exact) < mpf(2) ** -(bits // 4 - 8)

    @pytest.mark.parametrize("m", range(5))
    def test_reflection(self, m):
        # cot^(m)(pi (k-a)/k) = (-1)^(m+1) cot^(m)(pi a/k)
        with workprec(300):
            for k in range(3, 13):
                for a in range(1, k):
                    if a == k - a:
                        continue
                    assert_close(cot_deriv_at(m, k - a, k),
                                 (-1) ** (m + 1) * cot_deriv_at(m, a, k))


class TestTables:
    def test_cot_table_antisymmetric(self):
        for k in (5, 8, 13):
            ct = cot_table(k)
            for a in range(1, k):
                # the exact sum of a value and its mirror is 0 at any precision
                assert ct[k - a] + ct[a] == 0

    def test_tan_table_pole_slot(self):
        tt = tan_table(6)
        assert tt[3] is None  # a = 3 = k/2
        assert all(v is not None for i, v in enumerate(tt) if i != 3)

    @pytest.mark.parametrize("k", [97, 2000])
    def test_within_two_ulp(self, k):
        # the mpf view against a 720-bit reference; one ulp of a value in
        # [2^(e-1), 2^e) is 2^(e - prec) at the view's precision
        # prec = guarded(bits, k)
        with workprec(720):
            ref = [mpmath.cot(mpmath.pi * a / k) for a in range(1, k)]
        for bits in (100, 256):
            prec = guarded(bits, k)
            ct, tt = (as_mpf(table(k, bits), k, bits)
                      for table in (cot_table, tan_table))
            assert len(ct) == len(tt) == k
            assert ct[0] is None and tt[0] == 0
            for a in range(1, k):
                if 2 * a == k:
                    assert ct[a] == 0 and tt[a] is None
                    continue
                assert ct[k - a] + ct[a] == 0
                assert tt[k - a] + tt[a] == 0
                with workprec(720):
                    for value, exact in ((ct[a], ref[a - 1]),
                                         (tt[a], 1 / ref[a - 1])):
                        ulp = mpf(2) ** (mpmath.frexp(exact)[1] - prec)
                        assert abs(value - exact) <= 2 * ulp, (a, bits)

    @pytest.mark.parametrize("k", [7, 97, 2000])
    def test_derivative_table_bound(self, k):
        # the mpf view of Q_m by integer Horner over the cached cot table:
        # within (2m + 4) ulp-units 2^-guarded(bits, k) of an 800-bit
        # reference, relative; odd orders keep every value away from 0
        # (cot^(m) < 0 for odd m)
        with workprec(800):
            ref = [mpmath.cot(mpmath.pi * a / k) for a in range(1, k)]
        for m in (1, 3, 7):
            poly = cot_poly(m)
            with workprec(800):
                exact = [poly(t) for t in ref]
            for bits in (100, 256):
                table = as_mpf(cot_deriv_table(m, k, bits), k, bits)
                assert len(table) == k and table[0] is None
                with workprec(800):
                    worst = max(abs(v / e - 1) for v, e in zip(table[1:], exact))
                    assert worst <= (2 * m + 4) * mpf(2) ** -guarded(bits, k)

    def test_derivative_table_order_zero_is_the_cot_table(self):
        assert cot_deriv_table(0, 9, 256) is cot_table(9, 256)


class TestProductSum:
    def test_two_cot(self):
        val = trig_product_sum([("cot-deriv", 0, 1), ("cot-deriv", 0, 1)], 3)
        with workprec(300):
            assert_close(val, mpf(2) / 3)

    def test_two_tan(self):
        val = trig_product_sum([("tan", 0, 1), ("tan", 0, 1)], 3)
        assert_close(val, 6)

    def test_four_cot(self):
        val = trig_product_sum([("cot-deriv", 0, 1)] * 4, 3)
        with workprec(300):
            assert_close(val, mpf(2) / 9)

    def test_odd_factor_count_vanishes(self):
        # odd number of odd-parity factors over the symmetric range
        val = trig_product_sum([("cot-deriv", 0, 1)] * 3, 7)
        assert_close(val, 0)
        val = trig_product_sum([("tan", 0, 1), ("tan", 0, 2),
                                ("tan", 0, 3)], 9)
        assert_close(val, 0)

    def test_empty_factor_list_is_refused(self):
        with pytest.raises(ValueError, match="at least one factor"):
            trig_product_sum([], 5)

    @pytest.mark.parametrize("exponent", [10 ** 6, 10 ** 30])
    @pytest.mark.parametrize("turn", [False, True])
    def test_values_past_the_table_scale(self, monkeypatch, exponent, turn):
        # zeta(s, 1/k) ~ k^s: a column far past 2^P is rounded relative to
        # its largest entry, and no entry's int grows past 2P bits
        k, bits = 7, 256
        with workprec(guarded(bits, k)):
            big = [mpf(2) ** exponent * mpmath.sqrt(n + 1) for n in range(k)]
            if turn:
                big = [mpmath.expjpi(mpf(2 * n) / k) * v
                       for n, v in enumerate(big)]
        sizes, fixed = [], trig._fixed
        monkeypatch.setattr(trig, "_fixed", lambda x, q: sizes.append(
            fixed(x, q).bit_length()) or fixed(x, q))
        got = trig_product_sum([(VALUES, big, 1), (COT, 0, 3)], k, bits)
        assert max(sizes) <= 2 * table_scale(k, bits) + 1
        with workprec(800):
            ref = mpmath.fsum(big[a] * mpmath.cot(mpmath.pi * 3 * a / k)
                              for a in range(1, k))
            assert abs(got - ref) <= abs(ref) * mpf(2) ** -bits

    def test_exclusions_and_poles(self):
        val = trig_product_sum([("tan", 0, 1), ("cot-deriv", 0, 1)], 6,
                               residues=[1, 2, 4, 5])
        assert_close(val, 4)  # tan*cot = 1 at the four residues off k/2
        with pytest.raises(PoleAtHalfPeriod):
            trig_product_sum([("tan", 0, 1)], 6)


# the factor lists of eq1, cor7 and tan-sq, whose columns are also passed
# as VALUES read from the mpf view; real, complex and Fraction VALUES
# columns; and the mixed list of zeta.cot_form. The sums leave out k/2,
# tan's pole at even k.
def _sqrt_column(k):
    return [mpmath.sqrt(n + mpf(1) / 3) for n in range(k)]


def _turned_column(k):
    return [mpmath.expjpi(mpf(2 * n) / k) * v
            for n, v in enumerate(_sqrt_column(k))]


FACTOR_LISTS = {
    "eq1": lambda k: [(COT, 0, 1), (COT, 0, 7)],
    "cor7": lambda k: [(TAN, 0, 7), (COT, 0, 1)],
    "tan-sq": lambda k: [(TAN, 0, 1), (TAN, 0, 1)],
    "values-real": lambda k: [(VALUES, _sqrt_column(k), 1),
                              (VALUES, _sqrt_column(k), 7)],
    "values-complex": lambda k: [(VALUES, _turned_column(k), 7),
                                 (VALUES, _turned_column(k), 1),
                                 (COT, 0, 1)],
    "values-fraction": lambda k: [
        (VALUES, random_rational_map(k, 3).values, 1),
        (VALUES, random_rational_map(k, 4).values, 7)],
    "cot_form": lambda k: [(VALUES, random_odd_map(k, 3).values, 1),
                           (COT, 0, 1)],
}


def _reference_terms(factors, k, residues):
    """The products of each residue, every entry at 800 bits."""
    def entry(kind, arg, n):
        if kind == COT:
            return mpmath.cot(mpmath.pi * n / k)
        if kind == TAN:
            return mpmath.tan(mpmath.pi * n / k)
        return mpmath.mpmathify(arg[n])

    with workprec(800):
        return [[entry(kind, arg, a * h % k) for kind, arg, h in factors]
                for a in residues]


@pytest.mark.parametrize("k", [60, 2000])
@pytest.mark.parametrize("form", FACTOR_LISTS)
def test_int_path_agrees_with_values_path(form, k):
    # within the kernel's stated bound, m*k*max|T|^(m-1)*2^-P before the one
    # rounding to guarded(bits, k), of an 800-bit reference
    off_half = [a for a in range(1, k) if 2 * a != k]
    for bits in (128, 256):
        with workprec(guarded(bits, k)):
            factors = FACTOR_LISTS[form](k)
        got = trig_product_sum(factors, k, bits, residues=off_half)
        terms = _reference_terms(factors, k, off_half)
        with workprec(800):
            ref = mpmath.fsum(mpmath.fprod(t) for t in terms)
            top = max(abs(v) for t in terms for v in t)
            bound = (len(factors) * k * top ** (len(factors) - 1)
                     * mpf(2) ** -table_scale(k, bits)
                     + abs(ref) * mpf(2) ** -guarded(bits, k))
            assert abs(got - ref) <= bound, bits
        if any(kind == VALUES for kind, _, _ in factors):
            continue
        # the same columns as VALUES of the mpf view
        as_values = [(VALUES, as_mpf(tan_table(k, bits) if kind == TAN
                                     else cot_deriv_table(arg, k, bits),
                                     k, bits), h)
                     for kind, arg, h in factors]
        from_view = trig_product_sum(as_values, k, bits, residues=off_half)
        with workprec(2 * bits):
            assert abs(got - from_view) <= (mpf(2) ** -(bits + 8)
                                            * max(1, abs(got))), bits


def test_a_k_major_sweep_keeps_one_table_pair(capsys):
    """Every table reader walks k in order, so the cache holds the one
    (cot, tan) pair in use, not a pair per k swept."""
    tracemalloc.start()
    try:
        assert main(["sweep", "eq1", "--k", "odd", "4001..4061",
                     "--h", "3"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
