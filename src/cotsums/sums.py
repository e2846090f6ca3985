"""Dedekind, Zagier-type, Bernoulli and Hardy sums: exact definitional side
and finite trigonometric side for each.

Each exact side is one call of periodic.constrained_product_sum: the zero-
sum product sum over the defining exact maps and their multipliers, as an
integer convolution chain ((m-2)k^2 + k products, charged to the work
limit by periodic.charge_chain before any k-entry map is built).
zagier_sum alone keeps the brute-force enumeration
(periodic.enumerated_product_sum: k^(m-1) Fraction terms, each prefix
product and, at m >= 4, each product of the last two factors formed
once), which the speed criterion times against its closed form. A pair
sum sum_a f1(a h1) f2(a h2) is the m = 2 case at multipliers (h1, -h2),
a weight such as (-1)^a a table at multiplier 1, and a classical
Hardy sum its corollary's pair sum. Each pair closed form is likewise its
theorem's tuple form at (h1, -h2); every other trig side is one call of
trig.trig_product_sum: its factor list, its residues, and its sign and scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import mpmath
from mpmath import mpf, workprec

from . import periodic, trig
from .errors import (H1_ODD, K_EVEN, K_ODD, K_POSITIVE, M_EVEN, PAIRED_ORDERS,
                     all_coprime, check, choice, coprime, orders, parity)
from .exact import bernoulli_number, mod_inverse
from .hp import DEFAULT_BITS, guarded
from .periodic import (DEFAULT_WORK_LIMIT, PeriodicMap, charge_chain,
                       constrained_product_sum, enumerated_product_sum)
from .trig import COT, TAN, VALUES, trig_product_sum
from .zeta import series_partial

HARDY_KINDS = ("S", "s1", "s2", "s3", "s4", "s5")
TERMS = 100_000     # the series truncation length N, unless one is given

EXCLUDE_ZERO = "exclude-zero-residue"
INCLUDE_ZERO = "include-zero-residue"
# library callers have caught an unknown convention as a ValueError
_CONVENTION = choice("convention", ("paper", "corrected"), ValueError)
# the rules of the functions below that a registry row names as its own
BERNOULLI_RHS = (*PAIRED_ORDERS,
                 parity("total order A", "even", lambda p: sum(p["rs"])),
                 all_coprime)
BERNOULLI_PAIR_RHS = (orders(lambda p: (p["r1"], p["r2"])),
                      parity("r1 + r2", "even", lambda p: p["r1"] + p["r2"]),
                      coprime("h1", "h2"))
HARDY_A_RHS = (K_EVEN, M_EVEN, H1_ODD, all_coprime)
HARDY_B_RHS = (K_ODD, M_EVEN, all_coprime)
ALT_PAIR_RHS = (K_EVEN, parity("h1", "odd"), coprime("h1", "h2"))
ODD_PAIR = (K_ODD, coprime("h1", "h2"))  # tan_cot_pair_rhs, alt_sign_pair_sum
S1_HALF_RANGE = (K_ODD, parity("h", "even"), coprime("h"))


def _sign(exponent: int) -> int:
    """(-1)^exponent for any integer exponent (negative included)."""
    return -1 if exponent % 2 else 1


def _weights(w, k: int, start: int = 0, den: int = 1) -> PeriodicMap:
    """The per-residue table a -> w(a)/den for start <= a < k, 0 below
    start; w gives integer numerators."""
    return PeriodicMap.over([0] * start + [w(a) for a in range(start, k)],
                            den)


def _floor_signs(h: int, k: int, alt: bool, start: int = 1) -> PeriodicMap:
    """a -> (-1)^(alt*a + floor(a h/k)) for start (0 or 1) <= a < k, 0 below
    it; & 1 reads the parity of a negative floor too (h < 0)."""
    return PeriodicMap.over([0] * start + [
        1 - 2 * ((alt * a + a * h // k) & 1) for a in range(start, k)], 1)


def _tan_cots(hs, k: int) -> list:
    """tan(pi*a*h_1'/k) prod_{j>=2} cot(pi*a*h_j'/k) as a factor list."""
    invs = [mod_inverse(h, k) for h in hs]
    return [(TAN, 0, invs[0])] + [(COT, 0, hp) for hp in invs[1:]]


# ---------------------------------------------------------------------------
# classical Dedekind sum


def dedekind_sum(h: int, k: int,
                 work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """s(h,k) = sum_{a mod k} ((a/k)) ((ah/k)), exact."""
    check((K_POSITIVE,), k=k)
    return homogeneous_pair_sum(1, h, k, work_limit)


def dedekind_cot(h: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """s(h,k) = (1/4k) sum_{a=1}^{k-1} cot(pi*a/k) cot(pi*a*h/k)."""
    check((coprime("h"),), h=h, k=k)
    return homogeneous_pair_cot(1, h, k, bits)


def dedekind_series(h: int, k: int, terms: int = TERMS,
                    bits: int = DEFAULT_BITS,
                    work_limit: int = DEFAULT_WORK_LIMIT):
    """Truncation of s(h,k) = (1/2pi) sum over r >= 1 with k not dividing r
    of cot(pi*r*h/k)/r: the series S(f) of the odd map f(r) = cot(pi*r*h/k)
    (0 at k | r), divided by 2pi.

    Returns (partial_sum, tail_bound), both divided by 2pi: series_partial's
    sum of N terms, charged to work_limit, and its Abel bound k*max|f|/N.
    """
    check((coprime("h"),), h=h, k=k)
    ct = trig.as_mpf(trig.cot_table(k, bits), k, bits)
    cot_map = PeriodicMap([0] + [ct[r * h % k] for r in range(1, k)])
    value, bound = series_partial(cot_map, terms, bits, work_limit)
    with workprec(guarded(bits, terms)):
        two_pi = 2 * mpmath.pi
        return value / two_pi, bound / two_pi


# ---------------------------------------------------------------------------
# Zagier-type higher dimensional sums


def zagier_sum(hs, k: int, work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """sum of ((a_1 h_1/k)) ... ((a_m h_m/k)) over tuples with sum = 0 (mod k),
    by brute-force enumeration (k^(m-1) Fraction terms, prefixes and last
    pairs shared)."""
    check((K_POSITIVE,), k=k)
    maps = [periodic.sawtooth_map(k)] * len(hs)
    return enumerated_product_sum(maps, hs, work_limit)


def zagier_cot(hs, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """((-1)^(m/2) / 2^m k) sum_{a=1}^{k-1} prod_j cot(pi*a*h_j'/k); m even."""
    check((M_EVEN, all_coprime), hs=hs, k=k)
    m = len(hs)
    factors = [(COT, 0, mod_inverse(h, k)) for h in hs]
    return trig_product_sum(factors, k, bits=bits,
                            divisor=_sign(m // 2) * 2 ** m * k)


def homogeneous_pair_sum(h1: int, h2: int, k: int,
                         work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """sum_{a=1}^{k-1} ((a h1/k)) ((a h2/k)), exact."""
    saw = periodic.sawtooth_map(charge_chain(k, 2, work_limit))
    return constrained_product_sum([saw, saw], (h1, -h2), work_limit)


def homogeneous_pair_cot(h1: int, h2: int, k: int,
                         bits: int = DEFAULT_BITS) -> mpf:
    """(1/4k) sum_{a=1}^{k-1} cot(pi*a*h1/k) cot(pi*a*h2/k): th2 at m = 2."""
    check((coprime("h1", "h2"),), h1=h1, h2=h2, k=k)
    return zagier_cot((h1, -h2), k, bits)


# ---------------------------------------------------------------------------
# Bernoulli-function sums


def bernoulli_dedekind_sum(rs, hs, k: int,
                           work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """sum of B_{r_1}({a_1 h_1/k}) ... B_{r_m}({a_m h_m/k}) over zero-sum tuples."""
    check((K_POSITIVE, *PAIRED_ORDERS), rs=rs, hs=hs, k=k)
    charge_chain(k, len(hs), work_limit)
    maps = [periodic.bernoulli_map(r, k) for r in rs]
    return constrained_product_sum(maps, hs, work_limit)


def bernoulli_dedekind_rhs(rs, hs, k: int, bits: int = DEFAULT_BITS,
                           convention: str = "corrected"):
    """Closed form for the zero-sum Bernoulli product sum, A = sum r_j even.

    convention="paper": the literal closed form
        prod B_{r_j} / k^(A-m+1)
        + ((-1)^(A/2) prod r_j / (2^A k^(A-m+1)))
          * sum_{a=1}^{k-1} prod_j cot^(r_j - 1)(pi*a*h_j'/k),
    which is exact iff every r_j >= 2.

    convention="corrected": (1/k) sum_a prod_j ghat_j(a h_j') with the
    r = 1 transforms carrying their missing constant, exact for all r_j.
    """
    check((*BERNOULLI_RHS, _CONVENTION), rs=rs, hs=hs, k=k,
          convention=convention)
    invs = [mod_inverse(h, k) for h in hs]
    if convention == "corrected":
        factors = [(VALUES, periodic.bernoulli_dft_map(r, k, bits).values,
                    hp) for r, hp in zip(rs, invs)]
        return trig_product_sum(factors, k, bits=bits, residues=range(k),
                                divisor=k)
    A = sum(rs)
    e = A - len(rs) + 1                     # the power of k in both terms
    first = prod(bernoulli_number(r) for r in rs) / Fraction(k) ** e
    if k == 1:
        with workprec(guarded(bits)):
            return mpmath.mpmathify(first)
    acc = trig_product_sum([(COT, r - 1, hp) for r, hp in zip(rs, invs)], k,
                           bits=bits)
    with workprec(guarded(bits, k)):
        coeff = mpf(_sign(A // 2) * prod(rs)) / (mpf(2) ** A * mpf(k) ** e)
        return mpmath.mpmathify(first) + coeff * acc


def bernoulli_pair_sum(r1: int, r2: int, h1: int, h2: int, k: int,
                       work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """sum_{a mod k} B_{r1}({a h1/k}) B_{r2}({a h2/k}), exact."""
    return bernoulli_dedekind_sum((r1, r2), (h1, -h2), k, work_limit)


def bernoulli_pair_rhs(r1: int, r2: int, h1: int, h2: int, k: int,
                       bits: int = DEFAULT_BITS, convention: str = "corrected"):
    """Closed form for bernoulli_pair_sum, r1 + r2 even: th4 at (h1, -h2).

    a -> a*h1*h2 turns th4's paper form into (-1)^((r1-r2)/2) times the sum
    of cot^(r1-1)(pi*a*h2/k) cot^(r2-1)(pi*a*h1/k): the order r1 - 1 falls
    on h2. The printed pairing r1 <-> h1 fails for r1 != r2.
    """
    check((*BERNOULLI_PAIR_RHS, _CONVENTION), r1=r1, r2=r2, h1=h1, h2=h2,
          k=k, convention=convention)
    return bernoulli_dedekind_rhs((r1, r2), (h1, -h2), k, bits, convention)


# ---------------------------------------------------------------------------
# Hardy sums


def hardy_sum(which: str, h: int, k: int, convention: str = EXCLUDE_ZERO,
              work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """The six classical Hardy sums, exact: s2 is alt_pair_sum at (1, h), s3
    and s1, s5 floor_pair_sum at (1, h) and (h, 1); S and s4 its sign table.

    The a = 0 residue contributes only to S (a -1) and s4 (a +1); the
    convention argument selects whether it is included. The finite trig
    representations hold with it excluded, which is the default.
    """
    check((choice("which", HARDY_KINDS, ValueError), K_POSITIVE,
           choice("convention", (EXCLUDE_ZERO, INCLUDE_ZERO), ValueError)),
          which=which, k=k, convention=convention)
    if which in ("S", "s4"):
        signs = _floor_signs(h, charge_chain(k, 2, work_limit), which == "S",
                             convention == EXCLUDE_ZERO)
        one = periodic.constant_map(-1 if which == "S" else 1, k)
        return constrained_product_sum([signs, one], (1, -1), work_limit)
    if which == "s2":
        return alt_pair_sum(1, h, k, work_limit)
    h1, h2 = (1, h) if which == "s3" else (h, 1)
    return floor_pair_sum(h1, h2, k, which != "s1", work_limit)


def hardy_A(hs, k: int, work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """(-1)^(a_1)-weighted zero-sum sawtooth product sum (generalizes s2).

    Needs k even (for periodicity of the weight) and h_1 odd.
    """
    check((K_POSITIVE, K_EVEN, H1_ODD, all_coprime), hs=hs, k=k)
    saw = periodic.sawtooth_map(charge_chain(k, len(hs), work_limit))
    nums, den = saw.ints
    alt = _weights(lambda a: _sign(a) * nums[a * hs[0] % k], k, den=den)
    return constrained_product_sum([alt] + [saw] * (len(hs) - 1),
                                   (1, *hs[1:]), work_limit)


def hardy_A_rhs(hs, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """((-1)^(m/2-1) / 2^m k) sum_{a != k/2} tan(pi*a*h_1'/k) prod cot(pi*a*h_j'/k)."""
    check(HARDY_A_RHS, hs=hs, k=k)
    m = len(hs)
    return trig_product_sum(_tan_cots(hs, k), k, bits=bits,
                            residues=[a for a in range(1, k) if 2 * a != k],
                            divisor=_sign(m // 2 - 1) * 2 ** m * k)


def hardy_B(hs, k: int, work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """Zero-sum product sum weighted by (-1)^(a_1 h_1 + k*floor(a_1 h_1/k)),
    a_1 not = 0, with sawtooth factors on h_2..h_m (generalizes s1, s3, s5).

    Needs k odd.
    """
    check((K_POSITIVE, K_ODD, all_coprime), hs=hs, k=k)
    h1 = hs[0]
    saw = periodic.sawtooth_map(charge_chain(k, len(hs), work_limit))
    sign = _weights(lambda a: _sign(a * h1 + k * ((a * h1) // k)), k, 1)
    return constrained_product_sum([sign] + [saw] * (len(hs) - 1),
                                   (1, *hs[1:]), work_limit)


def hardy_B_rhs(hs, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """((-1)^(m/2) / 2^(m-1) k) sum_a tan(pi*a*h_1'/k) prod cot(pi*a*h_j'/k)."""
    check(HARDY_B_RHS, hs=hs, k=k)
    m = len(hs)
    return trig_product_sum(_tan_cots(hs, k), k, bits=bits,
                            divisor=_sign(m // 2) * 2 ** (m - 1) * k)


# m = 2 corollary forms (homogeneous multipliers, no inverses)


def alt_pair_sum(h1: int, h2: int, k: int,
                 work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """sum_{a=1}^{k-1} (-1)^a ((a h1/k)) ((a h2/k)); equals s2 for h1 = 1."""
    saw = periodic.sawtooth_map(charge_chain(k, 2, work_limit))
    nums, den = saw.ints
    alt = _weights(lambda a: _sign(a) * nums[a * h1 % k], k, 1, den)
    return constrained_product_sum([alt, saw], (1, -h2), work_limit)


def alt_pair_rhs(h1: int, h2: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """-(1/4k) sum_{a != k/2} tan(pi*a*h2/k) cot(pi*a*h1/k); k even, h1 odd:
    th5 at m = 2."""
    check(ALT_PAIR_RHS, h1=h1, h2=h2, k=k)
    return hardy_A_rhs((h1, -h2), k, bits)


def floor_pair_sum(h1: int, h2: int, k: int, with_alt: bool,
                   work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """sum_{a=1}^{k-1} (-1)^(a + floor(a h1/k)) ((a h2/k)) when with_alt,
    else sum (-1)^floor(a h1/k) ((a h2/k))."""
    signs = _floor_signs(h1, charge_chain(k, 2, work_limit), with_alt)
    return constrained_product_sum([signs, periodic.sawtooth_map(k)],
                                   (1, -h2), work_limit)


def tan_cot_pair_rhs(h1: int, h2: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """(1/2k) sum_{a=1}^{k-1} tan(pi*a*h2/k) cot(pi*a*h1/k); k odd: th7 at
    m = 2."""
    check(ODD_PAIR, h1=h1, h2=h2, k=k)
    return hardy_B_rhs((h1, -h2), k, bits)


def alt_sign_pair_sum(h1: int, h2: int, k: int,
                      work_limit: int = DEFAULT_WORK_LIMIT) -> Fraction:
    """sum_{a=1}^{k-1} (-1)^((a h1 mod k) + (a h2 mod k)); equals s4(h1,k)
    for h2 = 1, h1 odd. The exponent reduces each product mod k separately
    (the form the transform derivation yields)."""
    check(ODD_PAIR, h1=h1, h2=h2, k=k)
    sign = periodic.alt_sign_map(charge_chain(k, 2, work_limit))
    return constrained_product_sum([sign, sign], (h1, -h2), work_limit)


def tan_pair_mean(h1: int, h2: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """(1/k) sum_{a=1}^{k-1} tan(pi*a*h1/k) tan(pi*a*h2/k); k odd."""
    check((K_ODD,), k=k)
    return trig_product_sum([(TAN, 0, h1), (TAN, 0, h2)], k, bits=bits,
                            divisor=k)


def tan_square_sum(k: int, bits: int = DEFAULT_BITS) -> mpf:
    """sum_{a=1}^{k-1} tan^2(pi*a/k) for odd k (classically k^2 - k)."""
    check((K_ODD,), k=k)
    return trig_product_sum([(TAN, 0, 1), (TAN, 0, 1)], k, bits=bits)


def s1_half_range(h: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """(1/k) sum_{j=1}^{(k-1)/2} tan(pi*j/k) cot(pi*h*j/k); k odd, h even."""
    check(S1_HALF_RANGE, h=h, k=k)
    return trig_product_sum([(TAN, 0, 1), (COT, 0, h)], k, bits=bits,
                            residues=range(1, (k + 1) // 2), divisor=k)
