import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec
from mpmath.libmp import to_rational

from conftest import TOL_DEFAULT, assert_close, residual
from cotsums import zeta
from cotsums.config import RunConfig
from cotsums.errors import (ConvergenceDomain, NonPositiveArgument,
                            NotCoprime, NotOdd, OutOfRange, WorkLimitExceeded)
from cotsums.hp import guarded
from cotsums.periodic import (PeriodicMap, constant_map, dft, map_max_residual,
                              random_odd_map, sawtooth_map)
from cotsums.zeta import (SeriesForms, digamma, euler_gamma_rk,
                          euler_gamma_table, gamma_dft_residual, hurwitz_zeta,
                          mikolas_lhs, mikolas_pair, mikolas_rhs,
                          periodic_zeta, periodic_zeta_dft_map,
                          periodic_zeta_map, riemann_zeta, series_forms,
                          series_partial)
from cotsums.registry import verify
from cotsums.sums import dedekind_series


def euler_gamma_partial(r: int, k: int, x: int) -> float:
    """Float partial-sum oracle for gamma(r,k): the definitional limit cut
    at n <= x (O(1/x) from the limit)."""
    first = r if r >= 1 else r + k
    acc = math.fsum(1.0 / n for n in range(first, x + 1, k))
    return acc - math.log(x) / k


def periodic_zeta_dft_residual(s, k: int, bits: int = 256) -> mpf:
    """max_n | dft(n -> F(s, n/k))(n) - stated closed form |."""
    lhs = dft(periodic_zeta_map(s, k, bits), bits)
    return map_max_residual(lhs, periodic_zeta_dft_map(s, k, bits), bits)[0]


class TestHurwitzZeta:
    def test_classical_values(self):
        with workprec(300):
            assert_close(hurwitz_zeta(2, Fraction(1)), mpmath.pi ** 2 / 6)
            assert_close(hurwitz_zeta(2, Fraction(1, 2)), mpmath.pi ** 2 / 2)
        # zeta(3) against an independent reference evaluation
        with workprec(300):
            ref = mpf("1.20205690315959428539973816151")
            assert_close(hurwitz_zeta(3, Fraction(1)), ref, tol=mpf(10) ** -28)

    @pytest.mark.parametrize("s,x", [
        (2, Fraction(1, 3)), (3, Fraction(2, 7)), ("2.5", Fraction(1, 10)),
        (5, Fraction(9, 10)), ("1.25", Fraction(1, 4)),
    ])
    def test_against_mpmath_oracle(self, s, x):
        # mpmath's zeta uses its own independently coded evaluation
        mine = hurwitz_zeta(s, x, 256)
        with workprec(300):
            ref = mpmath.zeta(mpmath.mpmathify(Fraction(str(s))),
                              mpmath.mpmathify(x))
            assert_close(mine, ref, tol=mpf(2) ** -240)

    @pytest.mark.parametrize("bits", [64, 256, 1000])
    @pytest.mark.parametrize("s", [2, 3, 7, 40, "edge", "past", "2.5", "2+1i"])
    def test_agrees_with_mpmath_at_every_precision(self, s, bits):
        # integer 2 <= s <= the working precision takes the int direct part,
        # "edge" is the largest such s and "past" the first mpf one
        edge = guarded(bits) + zeta._EM_GUARD
        s = {"edge": edge, "past": edge + 1}.get(s, s)
        with workprec(bits + 64):
            sc = mpmath.mpmathify(str(s).replace("i", "j"))
            for x in (Fraction(1), Fraction(1, 2), Fraction(2, 7),
                      Fraction(1, 97), Fraction(48, 97), Fraction(96, 97)):
                ref = mpmath.zeta(sc, mpmath.mpmathify(x))
                err = abs(hurwitz_zeta(s, x, bits) - ref) / abs(ref)
                assert err < mpf(2) ** -(bits + 8), (x, err)

    def test_th9_residual_shrinks_with_precision(self):
        # th9's sides are Hurwitz rows: at b bits the residual (|rhs| ~ 2^11)
        # is within 2^(16-b), and doubling b shrinks it by about 2^-b
        before = None
        for bits in (128, 256, 512):
            report = verify("th9", {"k": 7, "h1": 2, "h2": 3},
                            RunConfig(precision=bits,
                                      tolerance=f"2^-{bits - 16}"))
            with workprec(bits):
                res = mpf(report.residual)
                assert res <= mpf(2) ** (16 - bits)
                if before is not None:
                    assert res <= before * mpf(2) ** (8 - bits // 2)
            before = res

    @pytest.mark.parametrize("s", ["2+1i", "3+2i", "1.5+0.5i"])
    def test_complex_s_against_mpmath(self, s):
        mine = hurwitz_zeta(s, Fraction(1, 3), 256)
        with workprec(300):
            z = complex(s.replace("i", "j"))
            ref = mpmath.zeta(mpmath.mpc(z.real, z.imag),
                              mpmath.mpf(1) / 3)
            assert_close(mine, ref, tol=mpf(2) ** -240)

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("s", [2, 3, "2.5"])
    def test_multiplication_theorem(self, k, s):
        # sum_{a=1}^{k} zeta(s, a/k) = k^s zeta(s)
        with workprec(300):
            total = sum(hurwitz_zeta(s, Fraction(a, k)) for a in range(1, k + 1))
            sc = mpmath.mpmathify(Fraction(str(s)))
            assert_close(total, mpf(k) ** sc * riemann_zeta(s), tol=mpf(2) ** -230)

    def test_domain_errors(self):
        with pytest.raises(ConvergenceDomain):
            hurwitz_zeta(1, Fraction(1, 2))
        with pytest.raises(ConvergenceDomain):
            hurwitz_zeta("0.5", Fraction(1, 2))
        with pytest.raises(OutOfRange):
            hurwitz_zeta(2, Fraction(0))
        with pytest.raises(OutOfRange):
            hurwitz_zeta(2, Fraction(3, 2))


class TestPeriodicZeta:
    def test_alternating(self):
        with workprec(300):
            assert_close(periodic_zeta(2, Fraction(1, 2)), -mpmath.pi ** 2 / 12)

    def test_s1_closed_form(self):
        with workprec(300):
            expected = mpmath.mpc(-mpmath.log(2) / 2, mpmath.pi / 4)
            assert_close(periodic_zeta(1, Fraction(1, 4)), expected)

    def test_integer_x_is_zeta(self):
        with workprec(300):
            assert_close(periodic_zeta(2, Fraction(1)), mpmath.pi ** 2 / 6)

    @pytest.mark.parametrize("s,x", [(2, 0), (2 + 1j, 3), (3, -2), (2.5, 1)])
    def test_integer_x_keeps_the_working_precision(self, s, x):
        # F(s, n) = zeta(s) at 256 bits, not at mpmath's default 53
        value = periodic_zeta(s, Fraction(x), 256)
        with workprec(300):
            assert abs(value - mpmath.zeta(s)) < mpf(2) ** -240

    def test_direct_series_oracle(self):
        # brute partial sums of sum e^(2 pi i n x)/n^s, geometric-free check
        with workprec(120):
            x, s, n_terms = Fraction(1, 3), 3, 4000
            acc = mpmath.mpc(0)
            for n in range(1, n_terms + 1):
                acc += mpmath.expjpi(mpf(2 * (n % 3)) / 3) / mpf(n) ** s
            assert residual(periodic_zeta(s, x, 128), acc, bits=128) \
                < mpf(10) ** -9

    def test_divergence_refused(self):
        with pytest.raises(ConvergenceDomain):
            periodic_zeta(1, Fraction(2))
        with pytest.raises(ConvergenceDomain):
            periodic_zeta("0.8", Fraction(1, 3))

    @pytest.mark.parametrize("s,k", [(2, 3), ("2.5", 4), ("2+1i", 5)])
    def test_transform_closed_form(self, s, k):
        assert periodic_zeta_dft_residual(s, k) < TOL_DEFAULT

    # every q <= 30 at 64 bits; fewer at higher precision, where a complex
    # s costs ~0.15 s per Hurwitz value at 1000 bits
    @pytest.mark.parametrize("bits,qs", [(64, range(1, 31)),
                                         (256, (1, 2, 3, 4, 6, 7, 12, 30)),
                                         (1000, (1, 2, 3, 5))],
                             ids=["64-bits", "256-bits", "1000-bits"])
    @pytest.mark.parametrize("s", ["2", "3", "2.5", "2+1i"])
    def test_one_value_is_its_map_entry(self, monkeypatch, s, bits, qs):
        # F(s, p/q) and the map's entry p come from one builder, bit for
        # bit; the Hurwitz values are memoized here, which they do not move
        monkeypatch.setattr(zeta, "hurwitz_zeta",
                            functools.lru_cache(None)(zeta.hurwitz_zeta))
        for q in qs:
            row = periodic_zeta_map(s, q, bits).values
            for p in range(q):
                if math.gcd(p, q) == 1:
                    value = periodic_zeta(s, Fraction(p, q), bits)
                    assert value._mpc_ == row[p]._mpc_, (q, p)


class TestDigamma:
    def test_classical_values(self):
        with workprec(300):
            assert_close(digamma(Fraction(1)), -mpmath.euler)
            assert_close(digamma(Fraction(1, 2)),
                         -mpmath.euler - 2 * mpmath.log(2))
            assert_close(digamma(Fraction(2)), 1 - mpmath.euler)

    @pytest.mark.parametrize("m", range(2, 31))
    def test_gauss_digamma_theorem(self, m):
        # psi(r/m) = -gamma - log 2m - (pi/2) cot(pi r/m)
        #            + 2 sum_{n=1}^{ceil(m/2)-1} cos(2 pi n r/m) log sin(pi n/m)
        with workprec(300):
            logsin = [mpmath.log(mpmath.sinpi(mpf(n) / m))
                      for n in range(1, (m + 1) // 2)]
            for r in range(1, m):
                q = mpf(r) / m
                gauss = (-mpmath.euler - mpmath.log(2 * m)
                         - mpmath.pi / 2 * mpmath.cospi(q) / mpmath.sinpi(q)
                         + 2 * sum(mpmath.cospi(2 * n * q) * ls
                                   for n, ls in enumerate(logsin, 1)))
                assert_close(digamma(Fraction(r, m), 256), gauss,
                             tol=mpf(2) ** -240)

    @pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(3, 7), Fraction(2)])
    def test_duplication_oracle(self, x):
        # psi(2x) = (psi(x) + psi(x + 1/2))/2 + log 2
        with workprec(300):
            lhs = digamma(2 * x)
            rhs = (digamma(x) + digamma(x + Fraction(1, 2))) / 2 + mpmath.log(2)
            assert_close(lhs, rhs, tol=mpf(2) ** -240)

    def test_recurrence_oracle(self):
        with workprec(300):
            x = Fraction(3, 7)
            assert_close(digamma(x + 1), digamma(x) + mpmath.mpf(7) / 3,
                         tol=mpf(2) ** -240)

    def test_positive_domain(self):
        with pytest.raises(NonPositiveArgument):
            digamma(Fraction(0))
        with pytest.raises(NonPositiveArgument):
            digamma(Fraction(-1, 2))


class TestEulerGamma:
    def test_euler_constant(self):
        with workprec(300):
            assert_close(euler_gamma_rk(1, 1), mpmath.euler)

    def test_frozen_values(self):
        with workprec(300):
            assert_close(euler_gamma_rk(1, 3),
                         mpf("0.677807163784232210533724612455"),
                         tol=mpf(10) ** -28)
            assert_close(euler_gamma_rk(2, 3),
                         mpf("0.0732073757061595936690318599075"),
                         tol=mpf(10) ** -28)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_row_sum_is_euler(self, k):
        with workprec(300):
            assert_close(sum(euler_gamma_table(k), mpf(0)), mpmath.euler,
                         tol=mpf(2) ** -230)

    @pytest.mark.parametrize("r,k", [(1, 3), (2, 3), (2, 5)])
    def test_definitional_partial_sum_oracle(self, r, k):
        # the limit definition cut at 10^6 approaches the closed form as O(1/x)
        approx = euler_gamma_partial(r, k, 10 ** 6)
        assert abs(float(euler_gamma_rk(r, k, 64)) - approx) < 5e-6

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            euler_gamma_rk(4, 3)
        with pytest.raises(OutOfRange):
            euler_gamma_rk(0, 3)


class TestMikolas:
    def test_closed_case(self):
        lhs, rhs = mikolas_pair(2, 2, 1, 1, 2)
        with workprec(300):
            quarter_pi4 = mpmath.pi ** 4 / 4
            assert_close(lhs, quarter_pi4, tol=mpf(10) ** -30)
            assert_close(rhs, quarter_pi4, tol=mpf(10) ** -30)

    def test_k1_trivial(self):
        lhs, rhs = mikolas_pair(2, 3, 1, 1, 1)
        assert_close(lhs, 0)
        assert_close(rhs, 0)

    @pytest.mark.parametrize("s1,s2,h1,h2,k", [
        (2, 3, 1, 2, 5),
        ("2.5", 2, 2, 3, 7),
        ("2+1i", 3, 1, 3, 4),
    ])
    def test_generic_agreement(self, s1, s2, h1, h2, k):
        lhs, rhs = mikolas_pair(s1, s2, h1, h2, k)
        assert residual(lhs, rhs) < mpf(10) ** -20

    def test_domain_errors(self):
        with pytest.raises(ConvergenceDomain):
            mikolas_pair(1, 2, 1, 1, 3)
        with pytest.raises(NotCoprime):
            mikolas_pair(2, 2, 2, 1, 4)

    @pytest.mark.parametrize("s1,s2,h1,h2,k", [
        (2, 3, 1, 2, 5), ("2.5", 2, 2, 3, 7), (2, 3, 1, 1, 1)])
    def test_pair_is_its_two_sides(self, s1, s2, h1, h2, k):
        assert mikolas_pair(s1, s2, h1, h2, k) == (
            mikolas_lhs(s1, s2, h1, h2, k), mikolas_rhs(s1, s2, h1, h2, k))

    @pytest.mark.parametrize("args,kw,error,message", [
        (("1", "3", 1, 1, 5), {}, ConvergenceDomain, "Re s1 must exceed 1"),
        (("3", "1", 1, 1, 5), {}, ConvergenceDomain, "Re s2 must exceed 1"),
        ((2, 2, 2, 1, 4), {}, NotCoprime,
         "h1 must be coprime to k: gcd(2, 4) = 2"),
        ((2, 2, 1, 2, 4), {}, NotCoprime,
         "h2 must be coprime to k: gcd(2, 4) = 2"),
        ((2, 3, 1, 1, 5), {"work_limit": 100}, WorkLimitExceeded,
         "Hurwitz cut 121 terms x 5 values = 605 terms exceed the work "
         "limit 100"),
        # 200 cuts of 121 terms fit; the F maps' 200^2 products do not
        ((2, 3, 1, 1, 200), {"work_limit": 30000}, WorkLimitExceeded,
         "k^2 = 40000 products at k=200 exceed the limit 30000"),
    ], ids=["re-s1", "re-s2", "h1", "h2", "work-limit", "k-squared"])
    @pytest.mark.parametrize("side", [mikolas_lhs, mikolas_rhs],
                             ids=["lhs", "rhs"])
    def test_each_side_refuses_before_summing(self, monkeypatch, side, args,
                                              kw, error, message):
        # the refusal comes before any Hurwitz value or product is summed
        def refuse(*_args, **_kwargs):
            raise AssertionError("a side summed before its checks")

        for name in ("hurwitz_row", "riemann_zeta", "periodic_zeta_map",
                     "trig_product_sum"):
            monkeypatch.setattr(zeta, name, refuse)
        with pytest.raises(error) as refused:
            side(*args, **kw)
        assert str(refused.value) == message


class TestSeriesForms:
    def test_three_cycle_map(self):
        f = PeriodicMap((Fraction(0), Fraction(1), Fraction(-1)))
        forms = series_forms(f)
        with workprec(300):
            expected = mpmath.pi / (3 * mpmath.sqrt(3))
            for value in forms:
                assert_close(value, expected, tol=mpf(2) ** -200)

    def test_cot_map_reproduces_dedekind_series(self):
        # the map r -> cot(pi r h/k) has S(f) = 2 pi s(h,k)
        from cotsums.sums import dedekind_sum
        from cotsums.trig import as_mpf, cot_table

        k, h = 3, 1
        ct = as_mpf(cot_table(k, 256), k)
        with workprec(280):
            vals = [mpf(0)] + [ct[r * h % k] for r in range(1, k)]
        forms = series_forms(PeriodicMap(vals))
        with workprec(300):
            expected = 2 * mpmath.pi * mpmath.mpmathify(dedekind_sum(h, k))
            assert_close(forms.cot_form, expected, tol=mpf(2) ** -200)
            assert forms.max_pairwise_residual() < mpf(2) ** -200

    def test_tan_map_reproduces_s3_series(self):
        # the map r -> tan(pi r h/k) has S(f) = pi s3(h,k)
        from cotsums.sums import hardy_sum
        from cotsums.trig import as_mpf, tan_table

        k, h = 3, 1
        tt = as_mpf(tan_table(k, 256), k)
        with workprec(280):
            vals = [mpf(0)] + [tt[r * h % k] for r in range(1, k)]
        forms = series_forms(PeriodicMap(vals))
        with workprec(300):
            expected = mpmath.pi * mpmath.mpmathify(hardy_sum("s3", h, k))
            assert_close(forms.cot_form, expected, tol=mpf(2) ** -200)
            assert forms.max_pairwise_residual() < mpf(2) ** -200

    @pytest.mark.parametrize("k,seed", [(5, 1), (8, 2), (12, 3), (15, 4)])
    def test_random_odd_maps_agree(self, k, seed):
        forms = series_forms(random_odd_map(k, seed))
        assert forms.max_pairwise_residual() < mpf(10) ** -15

    def test_partial_sum_converges_within_bound(self):
        # the raw error oscillates with the truncation residue mod k; what
        # is guaranteed is the Abel bound, which halves as N doubles
        f = random_odd_map(9, 7)
        forms = series_forms(f)
        prev_bound = None
        for terms in (2000, 4000, 8000):
            partial, bound = series_partial(f, terms)
            assert residual(partial, forms.cot_form) < bound
            if prev_bound is not None:
                with workprec(300):
                    assert_close(prev_bound / bound, 2)
            prev_bound = bound

    @pytest.mark.parametrize("terms", [0, -3])
    def test_partial_refuses_no_terms(self, terms):
        with pytest.raises(OutOfRange, match=f"terms must be >= 1, got {terms}"):
            series_partial(random_odd_map(5, 1), terms)

    def test_partial_refuses_terms_over_work_limit(self):
        f = random_odd_map(5, 1)
        with pytest.raises(WorkLimitExceeded,
                           match="3000000000 terms exceed the limit 100000000"):
            series_partial(f, 3_000_000_000)
        with pytest.raises(WorkLimitExceeded, match="11 terms exceed the "
                                                    "limit 10"):
            series_partial(f, 11, work_limit=10)
        with pytest.raises(WorkLimitExceeded, match="11 terms exceed the "
                                                    "limit 10"):
            dedekind_series(1, 5, 11, work_limit=10)
        assert series_partial(f, 10, work_limit=10) == series_partial(f, 10)

    def test_max_pairwise_residual_of_equal_forms_is_zero(self):
        forms = SeriesForms(Fraction(1, 2), mpf(0.5), mpmath.mpc(0.5, 0), 0.5)
        assert forms.max_pairwise_residual() == 0

    def test_refuses_non_odd(self):
        with pytest.raises(NotOdd):
            series_forms(constant_map(1, 4))
        # non-mean-zero maps (divergent series) are always refused
        with pytest.raises(NotOdd):
            series_forms(PeriodicMap((Fraction(1), Fraction(1), Fraction(0))))

    def test_sawtooth_map_value(self):
        # S(((./3))) = (pi/6)(((1/3)) - ((2/3)))/sqrt(3) = -pi/(18 sqrt(3))
        forms = series_forms(sawtooth_map(3))
        with workprec(300):
            expected = -mpmath.pi / (18 * mpmath.sqrt(3))
            assert_close(forms.cot_form, expected, tol=mpf(2) ** -200)
            assert forms.max_pairwise_residual() < mpf(2) ** -200


class TestGammaDft:
    def test_k1_is_euler(self):
        assert gamma_dft_residual(1) < mpf(10) ** -20

    @pytest.mark.parametrize("k", [3, 5, 7, 10])
    def test_small_periods(self, k):
        assert gamma_dft_residual(k) < mpf(10) ** -20


@st.composite
def decimal_text(draw, signed=True):
    """Text m/10^n, m not a multiple of 5, so no binary float holds it:
    '0.00123', '12.3' or '123e-1' style, |value| < 1e29, and its exact
    value. mpmath scales by 10^n in one rounding up to n = 400 and in
    three past it; both are drawn."""
    m = draw(st.integers(1, 10 ** 450).filter(lambda m: m % 5))
    digits = str(m)
    n = draw(st.integers(max(1, len(digits) - 29), len(digits) + 450))
    if draw(st.booleans()):
        text = f"{digits}e-{n}"
    elif n < len(digits):
        text = f"{digits[:-n]}.{digits[-n:]}"
    else:
        text = "0." + "0" * (n - len(digits)) + digits
    sign = draw(st.sampled_from(["", "-"] if signed else [""]))
    return sign + text, Fraction(int(sign + "1") * m, 10 ** n)


@st.composite
def ratio_text(draw):
    """Text p/q whose reduced denominator is not a power of 2, |p/q| <= 1e30,
    and its exact value."""
    p = draw(st.integers(-10 ** 40, 10 ** 40))
    q = draw(st.integers(3, 10 ** 40))
    value = Fraction(p, q)
    assume(value.denominator & (value.denominator - 1)
           and abs(value) <= 10 ** 30)
    return f"{p}/{q}", value


@st.composite
def complex_text(draw):
    """Text a+bi or a-bj with decimal parts, and the exact parts."""
    (re_text, re), (im_text, im) = draw(decimal_text()), draw(
        decimal_text(signed=False))
    sign = draw(st.sampled_from("+-"))
    return (f"{re_text}{sign}{im_text}{draw(st.sampled_from('ij'))}",
            (re, im if sign == "+" else -im))


def within_one_ulp(value: mpf, exact: Fraction, prec: int) -> bool:
    """|value - exact| is at most one unit in the last place of exact at
    prec bits."""
    n, d = abs(exact.numerator), exact.denominator
    top = n.bit_length() - d.bit_length()
    top -= Fraction(n, d) < Fraction(2) ** top      # floor(log2 |exact|)
    error = abs(Fraction(*to_rational(value._mpf_)) - exact)
    return error <= Fraction(2) ** (top - prec + 1)


@given(st.one_of(decimal_text(), ratio_text(), complex_text()),
       st.sampled_from([64, 256, 1000]))
@settings(max_examples=300, deadline=None)
def test_exponent_text_is_read_to_one_ulp(drawn, bits):
    """Every part of exponent text, imaginary parts included, is read at the
    working precision, not through a 53-bit float."""
    text, exact = drawn
    re, im = exact if isinstance(exact, tuple) else (exact, Fraction(0))
    s = zeta._to_s(text, bits)
    assert within_one_ulp(s.real, re, guarded(bits))
    if im:
        assert within_one_ulp(s.imag, im, guarded(bits))
    else:
        assert s.imag == 0
