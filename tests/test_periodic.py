from fractions import Fraction
from math import lcm
from operator import mul

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf, mpmathify, workprec
from mpmath.libmp import to_rational

from conftest import TOL_DEFAULT, assert_close, residual
from cotsums.errors import (NotCoprime, NotOdd, OutOfRange, ParityViolation,
                            PeriodMismatch, WorkLimitExceeded)
from cotsums import trig
from cotsums.periodic import (PeriodicMap, alt_sawtooth_map, alt_sign_map,
                              bernoulli_dft_map, bernoulli_map,
                              closed_form_dft, constant_map,
                              constrained_product_sum, convolve, defining_map,
                              dft, enumerated_product_sum, map_max_residual,
                              random_even_map, random_odd_map,
                              random_rational_map, sawtooth_dft_map,
                              sawtooth_map, spectral_product_sum)
from cotsums.exact import bernoulli_poly, mod_inverse, sawtooth
from cotsums.hp import guarded
from cotsums.zeta import cot_form


def delta_map(k: int) -> PeriodicMap:
    return PeriodicMap((Fraction(1),) + (Fraction(0),) * (k - 1))


def involution_residual(f: PeriodicMap, bits: int = 256) -> mpf:
    """max_n |F(F(f))(n) - k*f(-n)|: the double-transform identity."""
    k = f.period
    ff = dft(dft(f, bits), bits)
    with workprec(guarded(bits, k)):
        return max(abs(ff(n) - k * mpmathify(f(-n))) for n in range(k))


def reference_input(kind: str, k: int, bits: int) -> PeriodicMap:
    """A map of each kind dft reads: exact; mpf or mpc entries at bits
    precision; and mpf entries past 2^q, q dft's root scale, which take
    the kernel's block exponent."""
    if kind == "exact":
        return random_rational_map(k, 7)
    with workprec(bits):
        vals = [(-1) ** a * mpmath.sqrt(a + 2) for a in range(k)]
        if kind == "mpc":
            vals = [mpmath.mpc(v, mpmath.cbrt(a + 1))
                    for a, v in enumerate(vals)]
        if kind == "past-2^q":
            vals = [v * mpf(2) ** (guarded(bits, k) + 2 * bits) for v in vals]
    return PeriodicMap(vals)


def as_fraction(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_)) if isinstance(x, mpf) else Fraction(x)


def reference_dft(f: PeriodicMap, r: int) -> list:
    """The transform, from the exact entries times roots taken one by one
    from cospi and sinpi and rounded to 2^-r, summed exactly and rounded
    once to the working precision: within k * 2^(1-r) * max|f| of it."""
    k = f.period
    with workprec(r + 16):
        turns = [mpf(2 * j) / k for j in range(k)]
        cos, sin = ([int(mpmath.nint(mpmath.ldexp(g(t), r))) for t in turns]
                    for g in (mpmath.cospi, mpmath.sinpi))
    (re, re_den), (im, im_den) = (
        PeriodicMap(as_fraction(getattr(v, part)) for v in f.values).ints
        for part in ("real", "imag"))
    den = lcm(re_den, im_den)
    re, im = ([v * (den // d) for v in vals]
              for vals, d in ((re, re_den), (im, im_den)))
    out = []
    for n in range(k):
        c, s = zip(*((cos[a * n % k], sin[a * n % k]) for a in range(k)))
        x = sum(map(mul, re, c)) + sum(map(mul, im, s))
        y = sum(map(mul, im, c)) - sum(map(mul, re, s))
        out.append(mpmath.mpc(mpf(x), mpf(y)) / (den << r))
    return out


class TestPeriodicMap:
    def test_indexing_wraps(self):
        f = PeriodicMap((Fraction(1), Fraction(2), Fraction(3)))
        assert f(4) == Fraction(2)
        assert f(-1) == Fraction(3)

    def test_oddness_check(self):
        # the S(f) forms read oddness from the values; no tag is carried
        cot_form(sawtooth_map(7))
        cot_form(random_odd_map(9, 3))
        for f in (constant_map(2, 5), random_even_map(9, 3),
                  PeriodicMap((Fraction(0), Fraction(1), Fraction(2)))):
            with pytest.raises(NotOdd):
                cot_form(f)

    def test_integer_form(self):
        f = PeriodicMap.over([-4, 0, 6], 8)
        assert f.period == 3 and f.exact
        assert f.values == (Fraction(-1, 2), Fraction(0), Fraction(3, 4))
        assert f(-1) == Fraction(3, 4)
        assert f.ints == ((-4, 0, 6), 8)
        # from values: one denominator, the lcm
        g = PeriodicMap([Fraction(1, 2), Fraction(-1, 3), 2])
        assert g.ints == ((3, -2, 12), 6)
        with pytest.raises(TypeError):
            PeriodicMap([Fraction(1), mpf(2)]).ints

    def test_over_refuses_bad_forms(self):
        for den in (0, -3):
            with pytest.raises(ValueError, match="denominator"):
                PeriodicMap.over([1, 2], den)
        with pytest.raises(ValueError, match="period"):
            PeriodicMap.over([], 5)

    def test_exactness_flag(self):
        assert sawtooth_map(5).exact
        assert not sawtooth_dft_map(5).exact

    def test_sawtooth_maps_match_the_definition(self):
        # the maps are built as (2a - k)/2k; exact.sawtooth is the definition
        for k in range(1, 301):
            defined = tuple(sawtooth(Fraction(a, k)) for a in range(k))
            assert sawtooth_map(k).values == defined
            if k % 2 == 0:
                assert alt_sawtooth_map(k).values == tuple(
                    (-1) ** a * v for a, v in enumerate(defined))

    def test_bernoulli_map_matches_the_polynomial(self):
        # built in its integer form; the values are B_r at each a/k
        for r in range(1, 9):
            poly = bernoulli_poly(r)
            for k in range(1, 41):
                assert bernoulli_map(r, k).values == tuple(
                    poly(Fraction(a, k)) for a in range(k))

    def test_sawtooth_map_needs_a_positive_period(self):
        for k in (0, -4):
            with pytest.raises(ValueError):
                sawtooth_map(k)


class TestDft:
    def test_sawtooth_k3(self):
        fhat = dft(sawtooth_map(3))
        with workprec(300):
            expected = mpmath.mpc(0, 1) * mpmath.sqrt(3) / 6
            assert_close(fhat.values[1], expected)
            assert_close(fhat.values[0], 0)

    def test_constant_k4(self):
        fhat = dft(constant_map(1, 4))
        assert_close(fhat.values[0], 4)
        for n in (1, 2, 3):
            assert_close(fhat.values[n], 0)

    def test_sawtooth_k2_is_zero(self):
        f = sawtooth_map(2)
        assert f.values == (Fraction(0), Fraction(0))
        fhat = dft(f)
        for v in fhat.values:
            assert_close(v, 0)

    @pytest.mark.parametrize("bits", [128, 256])
    @pytest.mark.parametrize("k", [96, 97])
    def test_error_within_the_stated_bound(self, k, bits):
        # the docstring's bound k*2^(2-bits), against the transform at 2*bits
        for f in (sawtooth_map(k), random_rational_map(k, 5)):
            fhat, ref = dft(f, bits), dft(f, 2 * bits)
            with workprec(4 * bits):
                err = max(abs(a - b) for a, b in zip(fhat.values, ref.values))
                assert err < k * mpf(2) ** (2 - bits)

    @pytest.mark.parametrize("bits", [64, 256, 1000])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 96, 97, 256])
    @pytest.mark.parametrize("kind", ["exact", "mpf", "mpc", "past-2^q"])
    def test_agrees_with_a_reference_of_independent_roots(self, kind, k, bits):
        # a systematic error of dft's rotation, which comparing dft with
        # itself at 2*bits cannot see, shows here; the bound is the
        # docstring's
        f = reference_input(kind, k, bits)
        fhat = dft(f, bits)
        with workprec(3 * bits):
            top = max(1, max(abs(mpmathify(v)) for v in f.values))
            for n, ref in enumerate(reference_dft(f, 3 * bits)):
                assert abs(fhat(n) - ref) < k * mpf(2) ** (2 - bits) * top

    def test_work_limit_is_charged_before_any_product(self, monkeypatch):
        # k^2 products, refused by name before the first root is rounded
        def refuse(*args):
            raise AssertionError("dft rounded a root")

        monkeypatch.setattr(trig, "fixed_column", refuse)
        with pytest.raises(WorkLimitExceeded,
                           match=r"k\^2 = 10000 products at k=100 exceed "
                                 r"the limit 9999"):
            dft(sawtooth_map(100), 256, 9999)
        with pytest.raises(WorkLimitExceeded, match="k=100"):
            spectral_product_sum([sawtooth_map(100)] * 2, (1, 1), 256, 9999)
        monkeypatch.undo()
        assert dft(sawtooth_map(100), 256, 10000).period == 100

    @pytest.mark.parametrize("make,k", [
        (sawtooth_map, 5),
        (lambda k: random_rational_map(k, 11), 8),
        (delta_map, 3),
    ])
    def test_involution(self, make, k):
        res = involution_residual(make(k))
        assert res < mpf(2) ** -248


class TestConvolve:
    def test_delta_is_identity(self):
        f = random_rational_map(6, 2)
        g = convolve(delta_map(6), f)
        assert g.values == f.values

    def test_sawtooth_square_at_zero(self):
        g = convolve(sawtooth_map(3), sawtooth_map(3))
        assert g.values[0] == Fraction(-1, 18)

    def test_exact_closure(self):
        g = convolve(random_rational_map(5, 1), random_rational_map(5, 2))
        assert g.exact

    @given(st.integers(min_value=1, max_value=9), st.integers(), st.integers())
    @settings(max_examples=25, deadline=None)
    def test_commutative(self, k, s1, s2):
        f, g = random_rational_map(k, s1), random_rational_map(k, s2)
        assert convolve(f, g).values == convolve(g, f).values

    def test_period_mismatch(self):
        with pytest.raises(PeriodMismatch):
            convolve(sawtooth_map(3), sawtooth_map(4))

    @pytest.mark.parametrize("k", [4, 6, 7])
    def test_convolution_theorem(self, k):
        # dft(f * g) = dft(f) dft(g) pointwise
        f, g = random_rational_map(k, 5), random_rational_map(k, 6)
        lhs = dft(convolve(f, g))
        ff, gg = dft(f), dft(g)
        with workprec(300):
            prod = PeriodicMap([ff.values[n] * gg.values[n] for n in range(k)])
        assert map_max_residual(lhs, prod)[0] < TOL_DEFAULT


class TestDilate:
    @pytest.mark.parametrize("k,h", [(5, 2), (7, 3), (8, 5), (9, 4)])
    def test_transform_law(self, k, h):
        # dft(dilate(f, h)) = dilate(dft(f), h^-1) for a unit h
        def dilate(g, u):
            return PeriodicMap(g(n * u) for n in range(k))

        f = random_rational_map(k, 4)
        lhs = dft(dilate(f, h))
        rhs = dilate(dft(f), mod_inverse(h, k))
        assert map_max_residual(lhs, rhs)[0] < TOL_DEFAULT


class TestProductSums:
    def test_sawtooth_pair(self):
        fs = [sawtooth_map(3)] * 2
        assert constrained_product_sum(fs, [1, 1]) == Fraction(-1, 18)
        assert_close(spectral_product_sum(fs, [1, 1]), Fraction(-1, 18))

    def test_sawtooth_quadruple(self):
        fs = [sawtooth_map(3)] * 4
        assert constrained_product_sum(fs, [1, 1, 1, 1]) == Fraction(1, 216)
        assert_close(spectral_product_sum(fs, [1, 1, 1, 1]), Fraction(1, 216))

    def test_single_map_inversion(self):
        f = random_rational_map(6, 8)
        assert constrained_product_sum([f], [1]) == f.values[0]
        assert_close(spectral_product_sum([f], [1]), f.values[0])

    @pytest.mark.parametrize("seed", range(8))
    def test_lhs_equals_rhs_randomized(self, seed):
        import random
        from math import gcd

        rng = random.Random(seed)
        k = rng.randint(1, 12)
        m = rng.randint(1, 4)
        units = [h for h in range(1, max(k, 2)) if gcd(h, k) == 1]
        fs = [random_rational_map(k, seed * 10 + j) for j in range(m)]
        hs = [rng.choice(units) for _ in range(m)]
        lhs = constrained_product_sum(fs, hs)
        rhs = spectral_product_sum(fs, hs)
        assert residual(lhs, rhs) < mpf(2) ** -100

    def test_work_limit(self):
        fs = [sawtooth_map(100)] * 4
        with pytest.raises(WorkLimitExceeded):
            constrained_product_sum(fs, [1, 1, 1, 1], work_limit=10 ** 4)

    @pytest.mark.parametrize("k,m", [(1, 4), (7, 2), (7, 3), (10, 5)])
    def test_chain_budget_is_its_product_count(self, k, m):
        fs, hs = [sawtooth_map(k)] * m, [1] * m
        products = (m - 2) * k * k + k
        constrained_product_sum(fs, hs, work_limit=products)
        with pytest.raises(WorkLimitExceeded):
            constrained_product_sum(fs, hs, work_limit=products - 1)

    @pytest.mark.parametrize("k,m", [(7, 2), (7, 3), (5, 5)])
    def test_enumeration_budget_is_its_term_count(self, k, m):
        fs, hs = [sawtooth_map(k)] * m, [1] * m
        enumerated_product_sum(fs, hs, work_limit=k ** (m - 1))
        with pytest.raises(WorkLimitExceeded):
            enumerated_product_sum(fs, hs, work_limit=k ** (m - 1) - 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            spectral_product_sum([sawtooth_map(6)] * 2, [2, 1])

    def test_period_mismatch(self):
        with pytest.raises(PeriodMismatch):
            constrained_product_sum([sawtooth_map(3), sawtooth_map(4)], [1, 1])
        with pytest.raises(PeriodMismatch):
            spectral_product_sum([sawtooth_map(3), sawtooth_map(4)], [1, 1])


class TestChainEqualsEnumeration:
    """The convolution chain against the brute-force enumeration, exactly."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_seeded_maps(self, k):
        import random

        rng = random.Random(k)
        for m in range(1, 6):
            fs = [random_rational_map(k, 100 * k + 10 * m + j)
                  for j in range(m)]
            # negative, non-unit and larger-than-k multipliers included
            hs = [rng.randint(-2 * k - 3, 3 * k + 3) for _ in range(m)]
            chain = constrained_product_sum(fs, hs)
            assert chain == enumerated_product_sum(fs, hs)
            assert isinstance(chain, Fraction)

    def test_int_and_zero_maps(self):
        ints = PeriodicMap([3, -1, 0, 2, 5, -4])
        fs = [ints, random_rational_map(6, 2), PeriodicMap([0] * 6), ints]
        for m in range(1, 5):
            for hs in ([1, 2, 3, 4], [-5, 6, 7, 0]):
                assert (constrained_product_sum(fs[:m], hs[:m])
                        == enumerated_product_sum(fs[:m], hs[:m]))

    def test_single_map(self):
        f = random_rational_map(9, 3)
        for h in (0, 1, 4, -7, 20):
            assert constrained_product_sum([f], [h]) == f.values[0]
            assert enumerated_product_sum([f], [h]) == f.values[0]

    def test_empty_and_mismatched(self):
        for fn in (constrained_product_sum, enumerated_product_sum):
            with pytest.raises(ValueError):
                fn([], [])
            with pytest.raises(PeriodMismatch):
                fn([sawtooth_map(3), sawtooth_map(4)], [1, 1])

    def test_length_mismatch(self):
        # zip would drop the unpaired map or multiplier
        for fn in (constrained_product_sum, enumerated_product_sum,
                   spectral_product_sum):
            for hs in ([1, 1], [1, 1, 1, 1]):
                with pytest.raises(OutOfRange, match="3 maps need 3"):
                    fn([sawtooth_map(5)] * 3, hs)

    @pytest.mark.parametrize("k", [1, 2, 5, 6, 9, 12])
    def test_integer_form_maps(self, k):
        # over() maps against their Fraction twins: negative numerators,
        # numerators sharing a factor with den, a den of 1, m up to 5
        import random

        rng = random.Random(31 * k)
        for m in range(1, 6):
            overs, twins = [], []
            for _ in range(m):
                den = rng.choice((1, 6, 12, 2 * k))
                nums = [rng.randint(-9, 9) * rng.choice((1, 2, 3, 4))
                        for _ in range(k)]
                overs.append(PeriodicMap.over(nums, den))
                twins.append(PeriodicMap([Fraction(n, den) for n in nums]))
                assert overs[-1].values == twins[-1].values
            hs = [rng.randint(-2 * k, 2 * k) for _ in range(m)]
            mixed = [o if j % 2 else t
                     for j, (o, t) in enumerate(zip(overs, twins))]
            expected = enumerated_product_sum(twins, hs)
            for fs in (overs, twins, mixed):
                assert constrained_product_sum(fs, hs) == expected
            assert enumerated_product_sum(overs, hs) == expected

    def test_refuses_numeric_maps(self):
        numeric = PeriodicMap([mpf(1), mpf(2), mpf(3)])
        for m in (1, 2, 3):
            with pytest.raises(TypeError):
                constrained_product_sum([sawtooth_map(3)] * (m - 1)
                                        + [numeric], [1] * m)


# arguments no family takes, and the one refusal both sides give: they once
# refused k = 0 with ZeroDivisionError, "period must be positive" or "k must
# be odd", and r = 0 and a missing r each with two different texts
BAD_FAMILY_ARGS = [
    *((kind, k, {"r": 2} if kind == "bernoulli" else {},
       f"k must be >= 1, got {k}")
      for kind in ("sawtooth", "bernoulli", "alt-sawtooth", "alt-sign")
      for k in (0, -1)),
    ("bernoulli", 5, {"r": 0}, "r must be >= 1"),
    ("bernoulli", 5, {}, "the bernoulli family needs the order r"),
]


class TestClosedFormDfts:
    @pytest.mark.parametrize("kind,k,kw", [
        ("sawtooth", 3, {}),
        ("sawtooth", 8, {}),
        ("bernoulli", 5, {"r": 2}),
        ("bernoulli", 6, {"r": 3}),
        ("bernoulli", 4, {"r": 4}),
        ("alt-sawtooth", 6, {}),
        ("alt-sawtooth", 10, {}),
        ("alt-sign", 7, {}),
        ("alt-sign", 9, {}),
    ])
    def test_matches_direct_transform(self, kind, k, kw):
        direct = dft(defining_map(kind, k, **kw))
        closed = closed_form_dft(kind, k, **kw)
        assert map_max_residual(direct, closed)[0] < TOL_DEFAULT

    def test_periodic_zeta_is_not_a_kind(self):
        # F's pair is zeta's own (periodic_zeta_map, periodic_zeta_dft_map),
        # checked in test_zeta
        with pytest.raises(ValueError, match="unknown closed-form kind"):
            closed_form_dft("periodic-zeta", 5)
        with pytest.raises(ValueError, match="unknown map kind"):
            defining_map("periodic-zeta", 5)

    @pytest.mark.parametrize("kind,k,order,message", BAD_FAMILY_ARGS,
                             ids=[f"{kind}-k{k}-r{order.get('r')}"
                                  for kind, k, order, _ in BAD_FAMILY_ARGS])
    def test_both_sides_refuse_alike(self, kind, k, order, message):
        for side in (closed_form_dft, defining_map):
            with pytest.raises(OutOfRange) as refused:
                side(kind, k, **order)
            assert str(refused.value) == message

    def test_bernoulli_r1_corrected_exact(self):
        direct = dft(bernoulli_map(1, 3))
        closed = closed_form_dft("bernoulli", 3, r=1, variant="corrected")
        assert map_max_residual(direct, closed)[0] < TOL_DEFAULT
        # the transform value itself: -1/2 + i sqrt(3)/6 at n = 1
        with workprec(300):
            expected = mpmath.mpc(mpf(-1) / 2, mpmath.sqrt(3) / 6)
            assert_close(direct.values[1], expected)

    def test_max_residual_keeps_the_first_index_of_a_tie(self):
        f = PeriodicMap((Fraction(0), Fraction(2), Fraction(-2), Fraction(1)))
        zero = constant_map(0, 4)
        assert map_max_residual(f, zero) == (2, 1)
        assert map_max_residual(zero, zero) == (0, 0)

    def test_bernoulli_r1_paper_gap_is_half(self):
        # the uncorrected form differs by exactly 1/2 off the multiples
        direct = dft(bernoulli_map(1, 5))
        closed = closed_form_dft("bernoulli", 5, r=1, variant="paper")
        res, where = map_max_residual(direct, closed)
        assert where != 0
        assert_close(res, Fraction(1, 2), tol=mpf(2) ** -120)

    def test_bernoulli_r2_at_multiples(self):
        closed = closed_form_dft("bernoulli", 3, r=2)
        assert closed.values[0] == Fraction(1, 18)

    def test_alt_sign_example_value(self):
        closed = closed_form_dft("alt-sign", 3)
        with workprec(300):
            assert_close(closed.values[1], mpmath.mpc(0, 1) * mpmath.sqrt(3))

    def test_parity_preconditions(self):
        with pytest.raises(ParityViolation):
            closed_form_dft("alt-sawtooth", 5)
        with pytest.raises(ParityViolation):
            closed_form_dft("alt-sign", 6)
        with pytest.raises(ParityViolation):
            alt_sawtooth_map(7)
        with pytest.raises(ParityViolation):
            alt_sign_map(4)


class TestSignRule:
    @pytest.mark.parametrize("k,h1,h2", [(7, 3, 5), (9, 2, 7), (8, 3, 5)])
    def test_odd_maps_flip_sign(self, k, h1, h2):
        # sum f1(a h1) f2(a h2) = -(1/k) sum f1hat(a h2) f2hat(a h1)
        f1, f2 = random_odd_map(k, 31), random_odd_map(k, 32)
        lhs = sum((f1.values[(a * h1) % k] * f2.values[(a * h2) % k]
                   for a in range(k)), Fraction(0))
        g1, g2 = dft(f1), dft(f2)
        with workprec(300):
            rhs = -sum((g1.values[(a * h2) % k] * g2.values[(a * h1) % k]
                        for a in range(k)), mpmath.mpc(0)) / k
            assert residual(lhs, rhs) < TOL_DEFAULT

    def test_mixed_parity_both_sides_vanish(self):
        k, h1, h2 = 9, 2, 4
        f1, f2 = random_odd_map(k, 33), random_even_map(k, 34)
        lhs = sum((f1.values[(a * h1) % k] * f2.values[(a * h2) % k]
                   for a in range(k)), Fraction(0))
        assert lhs == 0
        g1, g2 = dft(f1), dft(f2)
        with workprec(300):
            rhs = sum((g1.values[(a * h2) % k] * g2.values[(a * h1) % k]
                       for a in range(k)), mpmath.mpc(0)) / k
            assert residual(rhs, 0) < TOL_DEFAULT


class TestParseval:
    def test_sawtooth_both_sides(self):
        f1 = f2 = sawtooth_map(3)
        lhs = constrained_product_sum([f1, f2], (1, 1))
        rhs = spectral_product_sum([f1, f2], (1, 1))
        assert lhs == Fraction(-1, 18)
        assert_close(rhs, Fraction(-1, 18))

    def test_odd_even_orthogonal(self):
        f1, f2 = sawtooth_map(5), constant_map(1, 5)
        lhs = constrained_product_sum([f1, f2], (1, 1))
        rhs = spectral_product_sum([f1, f2], (1, 1))
        assert lhs == 0
        assert_close(rhs, 0)

    def test_random_maps(self):
        f1, f2 = random_rational_map(6, 21), random_rational_map(6, 22)
        lhs = constrained_product_sum([f1, f2], (1, 1))
        rhs = spectral_product_sum([f1, f2], (1, 1))
        assert residual(lhs, rhs) < TOL_DEFAULT
