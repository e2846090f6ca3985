"""Hurwitz zeta, periodic zeta, digamma, generalized Euler constants, and
the finite identities tying them to periodic maps.

The zeta-side identities are implemented exactly on their stated domain
Re s > 1 (plus the closed-form s = 1 branch of the periodic zeta); analytic
continuation is out of scope.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, isinf
from typing import NamedTuple

import mpmath
from mpmath import mpc, mpf, workprec

from .errors import (TERMS_POSITIVE, ConvergenceDomain, NonPositiveArgument,
                     NotOdd, OutOfRange, charge, check, coprime, require)
from .exact import bernoulli_number, frac
from .hp import DEFAULT_BITS, guarded
from .periodic import (DEFAULT_WORK_LIMIT, PeriodicMap, charge_dft, dft,
                       map_max_residual)
from .trig import COT, VALUES, trig_product_sum

_EM_GUARD = 32
# the largest |s| taken: lemma1-v fails at 1e100 and does not end at 1e400
S_BOUND = 10 ** 30


def _to_s(s, bits: int = DEFAULT_BITS, name: str = "s") -> mpc:
    """Normalize an exponent argument (int/Fraction/str/complex/mp) to mpc
    with one mpmathify at guarded(bits), which reads text such as 2, 5/2,
    2.1+1i or 1e1000000 and rounds it there once (as 129.86 must be); a
    value not finite, or above S_BOUND, is refused naming the parameter."""
    # mpmath counts an underscore after the point as a digit, and drops the
    # spaces inside complex text: 2+12 3.j would read as 2+123i
    text = (s.strip().replace("i", "j").replace("_", "")
            if isinstance(s, str) else s)
    with workprec(guarded(bits)):
        try:
            if isinstance(text, str) and len(text.split()) > 1:
                raise ValueError("whitespace inside the number")
            z = mpc(mpmath.mpmathify(text))
            number = mpmath.isfinite(z)
        except (ValueError, TypeError, AttributeError, ArithmeticError):
            # what mpmath raises on text it cannot read; it reads digits
            # through int, which takes at most 4,300: longer text that float
            # reads as infinite is past the bound
            z, number = mpmath.inf, False
            with suppress(ValueError, TypeError):
                number = (len(text) > sys.get_int_max_str_digits()
                          and isinf(float(text)))
        if not number:
            raise OutOfRange(f"{name} must be a finite number such as 2, "
                             f"5/2, 2.5 or 2+1i, got {s!r}")
        if abs(z) > S_BOUND:
            raise OutOfRange(f"|{name}| must be at most {S_BOUND:.0e}, "
                             f"got {s!r}")
        return z


def re_above_one(name: str):
    """The rule Re name > 1, the domain where the zeta-side series converge."""
    return require(lambda p: _to_s(p[name], name=name).real > 1,
                   ConvergenceDomain, f"Re {name} must exceed 1")


def _em_cut(sc: mpc, bits: int) -> int:
    """The Euler-Maclaurin cut M of hurwitz_zeta: at least 2|Im s|, so the
    tail converges; 2|Im s| is exact (ldexp), whatever mp.prec is."""
    return max(16, int(0.4 * (guarded(bits, 0) + _EM_GUARD)),
               abs(int(mpmath.ldexp(sc.imag, 1))))


def _charge_cut(sc: mpc, count: int, bits: int, work_limit: int) -> None:
    """Refuse Re s <= 1, then count Hurwitz values whose cuts sum more than
    work_limit terms: both before any term is summed."""
    check((re_above_one("s"),), s=sc)
    cut = _em_cut(sc, bits)
    charge(cut * count, work_limit, f"Hurwitz cut {cut} terms x {count} "
           f"values = {cut * count} terms")


def hurwitz_zeta(s, x, bits: int = DEFAULT_BITS):
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s) for Re s > 1, 0 < x <= 1.

    Euler-Maclaurin: direct sum of the first M terms, the integral and
    half-term corrections at the cut, then Bernoulli corrections of
    increasing order until the first omitted term falls under the target
    2^-(bits+8), in one pass: with w = M + x, M >= 0.4(bits+48) and
    M >= 2|Im s|, a first term at or above the target needs
    Re s <= (bits+8+log2|s|)/log2 w, so |s| < 1.2w, and each step shrinks
    the term by ((|s|+2j)/(2 pi w))^2 < 0.3 up to j = w: 2^-3.1w in all,
    more than the bits+8 the target needs. The tail is mpf work;
    _add_direct adds the direct part. Returns mpf for real s, mpc otherwise.
    """
    sc = _to_s(s, bits)
    check((re_above_one("s"),), s=sc)
    xq = Fraction(x)
    if not 0 < xq <= 1:
        raise OutOfRange(f"x must lie in (0, 1], got {xq}")
    with workprec(guarded(bits, 0) + _EM_GUARD):
        se = sc.real if sc.imag == 0 else sc
        m_cut = _em_cut(sc, bits)
        tail = _em_tail(se, mpmath.mpmathify(xq), m_cut, mpf(2) ** -(bits + 8))
        return _add_direct(tail, se, xq, m_cut)


def _add_direct(tail, s, x: Fraction, m_cut: int):
    """tail + sum_{n<M} (n+x)^(-s). An integer 2 <= s <= the working
    precision takes (n + a/k)^(-s) = k^s/(nk+a)^s, each term rounded to an
    int at 2^Q, Q = precision + bitlen(M), summed exactly: an error
    relative to zeta(s, x) >= 1. Any other s adds mpf terms; a larger s
    would build ints of ~s bits."""
    prec = mpmath.mp.prec
    if s.imag or not 2 <= s <= prec or s != int(s):
        xv = mpmath.mpmathify(x)
        for n in range(m_cut):
            tail += (n + xv) ** -s
        return tail
    e, a, k, q = int(s), x.numerator, x.denominator, prec + m_cut.bit_length()
    top = k ** e << (q + 1)
    return tail + mpf((sum((top + d) // (2 * d) for d in (
        (n * k + a) ** e for n in range(m_cut))), -q))


@lru_cache(maxsize=1024)
def _em_coefficient(j: int, prec: int) -> mpf:
    """B_2j / (2j)! rounded to prec bits."""
    with workprec(prec):
        return mpmath.mpmathify(bernoulli_number(2 * j) / factorial(2 * j))


def _em_tail(s, x, m_cut, target):
    """sum_{n>=M} (n+x)^(-s) by Euler-Maclaurin, to the first term < target."""
    w = m_cut + x
    total = w ** (1 - s) / (s - 1) + w ** -s / 2
    rising = s
    wpow = w ** (-s - 1)
    w_m2 = 1 / (w * w)
    j = 1
    while 2 * j < 8 * mpmath.mp.prec:
        term = _em_coefficient(j, mpmath.mp.prec) * rising * wpow
        total += term
        if abs(term) < target:
            return total
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        wpow *= w_m2
        j += 1
    raise ConvergenceDomain("Euler-Maclaurin failed to converge")  # pragma: no cover


@lru_cache(maxsize=64)
def riemann_zeta(s, bits: int = DEFAULT_BITS):
    return hurwitz_zeta(s, Fraction(1), bits)


@lru_cache(maxsize=64)
def hurwitz_row(s: mpc, k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(None, zeta(s, 1/k), ..., zeta(s, (k-1)/k)), indexed by n mod k: the
    row of mikolas_lhs and the closed side of lemma1-v, keyed by the
    normalized s."""
    return (None,) + tuple(hurwitz_zeta(s, Fraction(n, k), bits)
                           for n in range(1, k))


def digamma(x, bits: int = DEFAULT_BITS) -> mpf:
    """psi(x) for rational x > 0: mpmath.digamma at the working precision
    guarded(bits, 0) + _EM_GUARD."""
    xq = Fraction(x)
    if xq <= 0:
        raise NonPositiveArgument(f"digamma needs x > 0, got {xq}")
    with workprec(guarded(bits, 0) + _EM_GUARD):
        return mpmath.digamma(mpmath.mpmathify(xq))


def euler_gamma_rk(r: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """gamma(r,k) = lim (sum_{n<=x, n=r mod k} 1/n - log(x)/k)
    = -(log k + psi(r/k)) / k, for 1 <= r <= k."""
    if not 1 <= r <= k:
        raise OutOfRange(f"need 1 <= r <= k, got r={r}, k={k}")
    with workprec(guarded(bits, k)):
        return -(mpmath.log(k) + digamma(Fraction(r, k), bits)) / k


@lru_cache(maxsize=64)
def euler_gamma_table(k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(gamma(1,k), ..., gamma(k,k))."""
    return tuple(euler_gamma_rk(r, k, bits) for r in range(1, k + 1))


def gamma_map(k: int, bits: int = DEFAULT_BITS) -> PeriodicMap:
    """The k-periodic map r -> gamma(r,k) with representatives 1..k."""
    table = euler_gamma_table(k, bits)
    return PeriodicMap(tuple(table[(a - 1) % k] for a in range(k)))


def periodic_zeta(s, x, bits: int = DEFAULT_BITS,
                  work_limit: int = DEFAULT_WORK_LIMIT):
    """F(s, x) = sum_{n>=1} e^(2*pi*i*n*x) / n^s for rational x: at Re s > 1
    and x = p/q, F's one builder at n = p, charged q Hurwitz cuts; at s = 1
    and non-integer x, the closed form -log(2 sin(pi {x})) + i*pi*(1/2 - {x}).
    """
    sc = _to_s(s, bits)
    xq = frac(Fraction(x))
    if sc == 1:
        if xq == 0:
            raise ConvergenceDomain("F(1, x) diverges at integer x")
        with workprec(guarded(bits, xq.denominator)):
            xv = mpmath.mpmathify(xq)
            return mpc(-mpmath.log(2 * mpmath.sinpi(xv)),
                       mpmath.pi * (mpf(1) / 2 - xv))
    _charge_cut(sc, xq.denominator, bits, work_limit)
    return _hurwitz_combination(sc, xq.denominator, (xq.numerator,), bits)[0]


def periodic_zeta_map(s, k: int, bits: int = DEFAULT_BITS,
                      work_limit: int = DEFAULT_WORK_LIMIT) -> PeriodicMap:
    """n -> F(s, n/k), a k-periodic map charged k cuts and k^2 products."""
    sc = _to_s(s, bits)
    _charge_cut(sc, k, bits, work_limit)
    charge_dft(k, work_limit)
    return _periodic_zeta_table(sc, k, bits)


@lru_cache(maxsize=64)
def _periodic_zeta_table(s: mpc, k: int, bits: int) -> PeriodicMap:
    """The map of mikolas_rhs and lemma1-v, built apart from hurwitz_row."""
    return PeriodicMap(_hurwitz_combination(s, k, range(k), bits))


def _hurwitz_combination(s: mpc, k: int, ns, bits: int) -> list:
    """[F(s, n/k) for n in ns], F's one builder at Re s > 1: the finite
    Hurwitz combination k^(-s) sum_{a=1}^{k} e^(2*pi*i*a*n/k) zeta(s, a/k),
    exact there, with no conditionally convergent series. Each is one
    mpmath.fdot of k Hurwitz values and k roots, both its own, whose
    products are exact and whose sum is rounded once at guarded(bits, k^2).
    """
    with workprec(guarded(bits, k * k)):
        hz = [hurwitz_zeta(s, Fraction(a or k, k), bits) for a in range(k)]
        roots = [mpmath.expjpi(mpf(2 * j) / k) for j in range(k)]
        scale = mpf(k) ** -s
        return [scale * mpmath.fdot(hz, [roots[a * n % k] for a in range(k)])
                for n in ns]


def periodic_zeta_dft_map(s, k: int, bits: int = DEFAULT_BITS,
                          work_limit: int = DEFAULT_WORK_LIMIT) -> PeriodicMap:
    """Stated transform of n -> F(s, n/k): k^(1-s) zeta(s, {n/k}) off
    multiples of k (the cached hurwitz_row) and k^(1-s) zeta(s) at them;
    charged k Hurwitz cuts."""
    sc = _to_s(s, bits)
    _charge_cut(sc, k, bits, work_limit)
    zetas = (riemann_zeta(sc, bits), *hurwitz_row(sc, k, bits)[1:])
    with workprec(guarded(bits, k)):
        scale = mpf(k) ** (1 - sc)
        return PeriodicMap(scale * v for v in zetas)


def _mikolas_args(s1, s2, h1, h2, k, bits, work_limit) -> tuple:
    """The normalized (s1, s2) of a th9 side, once both sides' rules hold
    and k cuts per s and k^2 F products are charged: before any sum."""
    sc1, sc2 = _to_s(s1, bits, "s1"), _to_s(s2, bits, "s2")
    check((re_above_one("s1"), re_above_one("s2"), coprime("h1", "h2")),
          s1=sc1, s2=sc2, h1=h1, h2=h2, k=k)
    for sc in (sc1, sc2):
        _charge_cut(sc, k, bits, work_limit)
    charge_dft(k, work_limit)
    return sc1, sc2


def mikolas_lhs(s1, s2, h1: int, h2: int, k: int, bits: int = DEFAULT_BITS,
                work_limit: int = DEFAULT_WORK_LIMIT) -> mpc:
    """The lhs of the Hurwitz-zeta analogue of the Dedekind sum, read from
    hurwitz_row: sum_{a=1}^{k-1} zeta(s1, {a h1/k}) zeta(s2, {a h2/k})."""
    sc1, sc2 = _mikolas_args(s1, s2, h1, h2, k, bits, work_limit)
    with workprec(guarded(bits, k)):
        return mpc(trig_product_sum(
            [(VALUES, hurwitz_row(sc1, k, bits), h1),
             (VALUES, hurwitz_row(sc2, k, bits), h2)], k, bits=bits))


def mikolas_rhs(s1, s2, h1: int, h2: int, k: int, bits: int = DEFAULT_BITS,
                work_limit: int = DEFAULT_WORK_LIMIT) -> mpc:
    """Its rhs, (k^(s1+s2-1) - 1) zeta(s1) zeta(s2)
    + k^(s1+s2-1) sum_{a=1}^{k-1} F(s1, a h2/k) F(s2, -a h1/k), read from
    riemann_zeta and the cached F maps; each F map is charged k more cuts."""
    sc1, sc2 = _mikolas_args(s1, s2, h1, h2, k, bits, work_limit)
    with workprec(guarded(bits, k)):
        kp = mpf(k) ** (sc1 + sc2 - 1)
        rhs = (kp - 1) * riemann_zeta(sc1, bits) * riemann_zeta(sc2, bits)
        if k > 1:
            f1 = periodic_zeta_map(sc1, k, bits, work_limit)
            f2 = periodic_zeta_map(sc2, k, bits, work_limit)
            rhs += kp * trig_product_sum(
                [(VALUES, f1.values, h2), (VALUES, f2.values, -h1)], k,
                bits=bits)
        return rhs


def mikolas_pair(s1, s2, h1: int, h2: int, k: int, bits: int = DEFAULT_BITS,
                 work_limit: int = DEFAULT_WORK_LIMIT) -> tuple:
    """Both sides of the Hurwitz-zeta analogue of the Dedekind sum."""
    return (mikolas_lhs(s1, s2, h1, h2, k, bits, work_limit),
            mikolas_rhs(s1, s2, h1, h2, k, bits, work_limit))


# ---------------------------------------------------------------------------
# S(f) = sum f(r)/r for odd k-periodic maps: the four finite evaluations


class SeriesForms(NamedTuple):
    """Finite evaluations of S(f); all four agree for odd k-periodic f."""

    cot_form: object       # (pi/2k) sum f(r) cot(pi r/k)
    spectral_form: object  # -(pi i/k^2) sum r fhat(r)
    lehmer_form: object    # sum f(r) gamma(r,k)
    zeta_form: object      # -(1/k) sum fhat(r) F(1, -r/k)

    def max_pairwise_residual(self, bits: int = DEFAULT_BITS) -> mpf:
        with workprec(guarded(bits, 4)):
            return max((abs(mpmath.mpmathify(a) - mpmath.mpmathify(b))
                        for a, b in combinations(self, 2)),
                       default=mpf(0))


def _check_odd(f: PeriodicMap, bits: int) -> int:
    """The period k of an odd map; refuse one that is not odd: exactly for
    exact values, to within 2^-(bits/2) for numeric ones."""
    k = f.period
    if f.exact:
        if any(f.values[a] + f.values[-a % k] for a in range(k)):
            raise NotOdd("map is not odd over its period")
        return k
    with workprec(guarded(bits, k)):
        tol = mpf(2) ** -(bits // 2)
        for a in range(k):
            if abs(mpmath.mpmathify(f.values[a])
                   + mpmath.mpmathify(f.values[-a % k])) > tol:
                raise NotOdd(f"map is not odd at n = {a}")
    return k


def cot_form(f: PeriodicMap, bits: int = DEFAULT_BITS):
    """S(f) = (pi/2k) sum_{r=1}^{k-1} f(r) cot(pi r/k) for odd f."""
    k = _check_odd(f, bits)
    acc = trig_product_sum([(VALUES, f.values, 1), (COT, 0, 1)], k, bits=bits)
    with workprec(guarded(bits, k)):
        return mpmath.pi / (2 * k) * acc


def spectral_form(f: PeriodicMap, bits: int = DEFAULT_BITS) -> mpc:
    """S(f) = -(pi i/k^2) sum_{r=1}^{k-1} r fhat(r) for odd f."""
    k = _check_odd(f, bits)
    fhat = dft(f, bits)
    with workprec(guarded(bits, k)):
        acc = trig_product_sum(
            [(VALUES, range(k), 1), (VALUES, fhat.values, 1)], k, bits=bits)
        return -mpmath.pi * mpc(0, 1) / (k * k) * acc


def lehmer_form(f: PeriodicMap, bits: int = DEFAULT_BITS):
    """S(f) = sum_{r=1}^{k} f(r) gamma(r,k) for odd f (Lehmer's Theorem 8)."""
    k = _check_odd(f, bits)
    return trig_product_sum(
        [(VALUES, f.values, 1), (VALUES, gamma_map(k, bits).values, 1)], k,
        bits=bits, residues=range(1, k + 1))


def zeta_form(f: PeriodicMap, bits: int = DEFAULT_BITS) -> mpc:
    """S(f) = -(1/k) sum_{r=1}^{k-1} fhat(r) F(1, -r/k) for odd f, the F
    values read from gamma_dft_map (the kernel's residues 1..k-1 leave out
    its Euler constant at r = 0)."""
    k = _check_odd(f, bits)
    with workprec(guarded(bits, k)):
        return -mpc(trig_product_sum(
            [(VALUES, dft(f, bits).values, 1),
             (VALUES, gamma_dft_map(k, bits).values, 1)], k, bits=bits)) / k


def series_forms(f: PeriodicMap, bits: int = DEFAULT_BITS) -> SeriesForms:
    """Evaluate S(f) = sum_{r>=1} f(r)/r four independent ways.

    Requires f odd (which forces the zero period-sum that convergence of
    S(f) needs); a non-odd map is refused.
    """
    return SeriesForms(cot_form(f, bits), spectral_form(f, bits),
                       lehmer_form(f, bits), zeta_form(f, bits))


def series_partial(f: PeriodicMap, terms: int, bits: int = DEFAULT_BITS,
                   work_limit: int = DEFAULT_WORK_LIMIT):
    """Truncated S(f): sum_{r=1}^{N} f(r)/r, plus the Abel tail bound
    k * max|f| / N. The N terms count against work_limit."""
    check((TERMS_POSITIVE,), terms=terms)
    charge(terms, work_limit, f"{terms} terms")
    k = f.period
    with workprec(guarded(bits, terms)):
        acc = mpf(0)
        vals = [mpmath.mpmathify(v) for v in f.values]
        for r in range(1, terms + 1):
            v = vals[r % k]
            if v:
                acc += v / r
        bound = k * max(abs(v) for v in vals) / terms
        return acc, bound


def gamma_dft_map(k: int, bits: int = DEFAULT_BITS) -> PeriodicMap:
    """Stated transform of r -> gamma(r,k): F(1, -n/k) off multiples of k,
    Euler's constant at them."""
    with workprec(guarded(bits, k)):
        return PeriodicMap([+mpmath.euler] + [
            periodic_zeta(1, Fraction(-n, k), bits) for n in range(1, k)])


def gamma_dft_residual(k: int, bits: int = DEFAULT_BITS) -> mpf:
    """max_n | dft(r -> gamma(r,k))(n) - stated closed form |."""
    lhs = dft(gamma_map(k, bits), bits)
    return map_max_residual(lhs, gamma_dft_map(k, bits), bits)[0]
