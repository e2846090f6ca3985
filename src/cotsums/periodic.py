"""The DFT algebra on k-periodic maps.

A PeriodicMap stores one period of values, either exact (int/Fraction) or
high-precision mpf/mpc. An exact map also has an integer form: int
numerators over one positive denominator. The named exact maps (sawtooth,
alternating sawtooth and sign, constant) are made in that form by
PeriodicMap.over and build their Fraction values only when those are read;
a map made from values derives the form once, by lcm. Exact maps stay exact
through convolution and the zero-sum product sums; values are promoted to
mpc only at the transform boundary. The zero-sum product sum is a cyclic-
convolution chain on the integer forms (O((m-2)k^2 + k) products, one
division at the end); its brute-force enumeration is kept beside it as
the reference and as th2's definitional side, and multiplies the Fraction
values of all k^(m-1) terms (each prefix product once and, at m >= 4, each
product of the last two factors once), so that criterion 9 keeps timing
the enumeration it names. The chain's count is charged by one helper,
charge_chain, which the exact sides call before they build their maps.
The transform is the direct O(k^2) sum in ints, charged to the work
limit, with one rounding per output: k is small at verification scale,
every k (including primes) must work, and the error budget stays a simple
k*2^(2-bits) per output (dft).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm
from operator import mul

import mpmath
from mpmath import mpc, mpf, workprec

from . import trig
from .errors import (K_EVEN, K_ODD, K_POSITIVE, R_POSITIVE, OutOfRange,
                     PeriodMismatch, charge, check, choice, require)
from .exact import Poly, bernoulli_number, bernoulli_poly, mod_inverse
from .hp import DEFAULT_BITS, DEFAULT_WORK_LIMIT, guarded, is_exact


class PeriodicMap:
    """A k-periodic function given by its values on 0..k-1.

    An exact map also has an integer form, `ints`: numerators over one
    positive denominator. A map made by `over` holds that form and builds
    its Fraction `values` only when they are first read; a map made from
    values derives it once, by the lcm of their denominators.
    """

    __slots__ = ("_values", "_ints")

    def __init__(self, values):
        self._values = tuple(values)
        self._ints = None
        if not self._values:
            raise ValueError("period must be positive")

    @classmethod
    def over(cls, nums, den: int) -> PeriodicMap:
        """The exact map a -> nums[a]/den."""
        nums = tuple(nums)
        if not nums:
            raise ValueError("period must be positive")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        f = cls.__new__(cls)
        f._values, f._ints = None, (nums, den)
        return f

    @property
    def values(self) -> tuple:
        if self._values is None:
            nums, den = self._ints
            self._values = tuple(Fraction(n, den) for n in nums)
        return self._values

    @property
    def ints(self) -> tuple:
        """(nums, den) with value a = nums[a]/den; TypeError if not exact."""
        if self._ints is None:
            vals = self._values
            if not all(is_exact(v) for v in vals):
                raise TypeError("an integer form needs exact (int or "
                                "Fraction) values")
            den = lcm(*(v.denominator for v in vals))
            self._ints = (tuple(v.numerator * (den // v.denominator)
                                for v in vals), den)
        return self._ints

    @property
    def period(self) -> int:
        return len(self._values if self._ints is None else self._ints[0])

    def __call__(self, n: int):
        vals = self.values
        return vals[n % len(vals)]

    @property
    def exact(self) -> bool:
        return (self._ints is not None
                or all(is_exact(v) for v in self._values))

    def __repr__(self):
        return f"PeriodicMap(k={self.period})"


def _require_same_period(f: PeriodicMap, g: PeriodicMap) -> int:
    if f.period != g.period:
        raise PeriodMismatch(f"periods differ: {f.period} != {g.period}")
    return f.period


def charge_dft(k: int, work_limit: int) -> int:
    """k, once the k^2 products of a transform (or an F map) fit the limit."""
    charge(k * k, work_limit, f"k^2 = {k * k} products at k={k}")
    return k


def dft(f: PeriodicMap, bits: int = DEFAULT_BITS,
        work_limit: int = DEFAULT_WORK_LIMIT) -> PeriodicMap:
    """fhat(n) = sum_a f(a) e^(-2*pi*i*a*n/k), direct evaluation in ints.

    The k^2 products are charged to work_limit first. The roots are dft's
    own, as the lemma1-i..iv closed forms read the trig tables: powers of
    one rounded e^(-2*pi*i/k) as Gaussian ints at 2^q, q = w + bitlen(k),
    w = guarded(bits, 4k^2), each product shifted back with rounding, and
    their conjugates past k/2. An exact map's numerators multiply them
    exactly and each output divides by the denominator once; an mpf/mpc
    map is rounded once to ints at 2^q by trig.fixed_column. Each output
    is an exact sum rounded once to w, within k*2^(2-bits)*max(1, max|f|).
    """
    k = charge_dft(f.period, work_limit)
    w = guarded(bits, 4 * k * k)
    q = w + k.bit_length()
    with workprec(q + 8):
        (wr,), (wi,), _ = trig.fixed_column([mpmath.expjpi(mpf(-2) / k)], q)
    half, c, s, cos, sin = 1 << (q - 1), 1 << q, 0, [1 << q], [0]
    for _ in range(k // 2):
        c, s = (c * wr - s * wi + half) >> q, (c * wi + s * wr + half) >> q
        cos.append(c)
        sin.append(s)
    cos += cos[(k - 1) // 2:0:-1]
    sin += [-v for v in sin[(k - 1) // 2:0:-1]]
    if f.exact:
        (re, den), im, scale = f.ints, None, q
    else:
        re, im, shift = trig.fixed_column(f.values, q)
        den, scale = 1, q + shift
    real, sums = im is None, []
    for n in range(k // 2 + 1 if real else k):
        at = [a * n % k for a in range(k)]
        c, s = list(map(cos.__getitem__, at)), list(map(sin.__getitem__, at))
        x, y = sum(map(mul, re, c)), sum(map(mul, re, s))
        if not real:
            x, y = x - sum(map(mul, im, s)), y + sum(map(mul, im, c))
        sums.append((x, y))
    if real:    # fhat(k - n) is the conjugate of fhat(n)
        sums += [(x, -y) for x, y in reversed(sums[1:(k + 1) // 2])]
    with workprec(w):
        return PeriodicMap(mpc(mpf((x, -scale)) / den, mpf((y, -scale)) / den)
                           for x, y in sums)


def convolve(f: PeriodicMap, g: PeriodicMap) -> PeriodicMap:
    """Cauchy convolution (f*g)(n) = sum_a f(a) g(n-a), in the integer
    forms: the numerators convolve and the denominators multiply."""
    k = _require_same_period(f, g)
    (fn, fd), (gn, gd) = f.ints, g.ints
    # back[k - n + a] = g(n - a): row n is one slice, summed in order of a
    back = [gn[-a % k] for a in range(k)] * 2
    return PeriodicMap.over((sum(map(mul, fn, back[k - n:2 * k - n]))
                             for n in range(k)), fd * gd)


def charge_chain(k: int, m: int, work_limit: int) -> int:
    """k, once the (m-2)k^2 + k products of the chain fit the limit; an
    exact side charges them before it builds its k-entry maps."""
    products = (m - 2) * k * k + k
    charge(products, work_limit,
           f"(m-2)k^2 + k = {products} products at k={k}, m={m}")
    return k


def _common_period(fs, hs) -> int:
    if not fs:
        raise ValueError("need at least one map")
    if len(fs) != len(hs):
        raise OutOfRange(f"{len(fs)} maps need {len(fs)} multipliers, "
                         f"got {len(hs)}")
    for f in fs[1:]:
        _require_same_period(fs[0], f)
    return fs[0].period


def constrained_product_sum(fs, hs, work_limit: int = DEFAULT_WORK_LIMIT):
    """sum of f_1(a_1 h_1) ... f_m(a_m h_m) over tuples with sum a_j = 0 (mod k).

    The sum is (g_1 * ... * g_m)(0) with g_j(a) = f_j(a h_j) and * the
    cyclic convolution. Each g_j is read in its integer form (numerators
    over one denominator), convolve chains g_1 ... g_(m-1), and the last
    factor is paired off as sum_a c(a) g_m(-a): (m-2)k^2 + k integer
    products, the work budget, in place of the k^(m-1) terms of
    enumerated_product_sum, with the same value; the product of the
    denominators divides once at the end. The maps must be exact (int or
    Fraction). No transform is taken, so this side stays independent of
    the closed forms.
    """
    k, m = _common_period(fs, hs), len(fs)
    charge_chain(k, m, work_limit)
    gs = []
    for f, h in zip(fs, hs):
        nums, den = f.ints
        gs.append(PeriodicMap.over([nums[a * h % k] for a in range(k)], den))
    nums, den = reduce(convolve, gs[1:-1], gs[0]).ints
    if m == 1:
        return Fraction(nums[0], den)
    last, last_den = gs[-1].ints
    total = sum(c * last[-a % k] for a, c in enumerate(nums))
    return Fraction(total, den * last_den)


def enumerated_product_sum(fs, hs, work_limit: int = DEFAULT_WORK_LIMIT):
    """The same sum as constrained_product_sum, by brute force over
    (a_1, ..., a_{m-1}) with a_m determined mod k: k^(m-1) terms, exact when
    the maps are exact. It is th2's definitional side, which the speed
    criterion times as the enumeration, and the reference the convolution
    chain is tested against. A prefix product is kept while its prefix
    lasts, and a term is prefix * (f_{m-1} f_m). At m >= 4 the k^2 pair
    products f_{m-1}(a) f_m(-s-a) are formed once, by s = the prefix sum
    mod k, so a term is one product and one addition; k^(m-1) <= work_limit
    bounds the table by work_limit^(2/3) entries. At m <= 3 no pair is
    reused, so each is formed in the loop and memory stays O(m + k).
    """
    k, m = _common_period(fs, hs), len(fs)
    charge(k ** (m - 1), work_limit, f"{k}^{m - 1} terms")
    tables = [tuple(f.values[(a * h) % k] for a in range(k)) for f, h in zip(fs, hs)]
    if m == 1:
        return tables[0][0]
    *outer, row, last = tables
    back = [last[-a % k] for a in range(k)] * 2     # last[-(s + a)]
    pairs = ([list(map(mul, row, back[s:s + k])) for s in range(k)]
             if m > 3 else None)
    total, prefix = 0, [1] * (m - 1)    # prefix[j]: the product of j factors
    for idx in product(range(k), repeat=m - 2):
        j = m - 3   # product order zeroes the indices after the one that moved
        while j > 0 and not idx[j]:
            j -= 1
        for j in range(max(j, 0), m - 2):
            prefix[j + 1] = prefix[j] * outer[j][idx[j]]
        s, p = sum(idx) % k, prefix[-1]
        for vw in pairs[s] if pairs else map(mul, row, back[s:s + k]):
            total = total + p * vw
    return total


def spectral_product_sum(fs, hs, bits: int = DEFAULT_BITS,
                         work_limit: int = DEFAULT_WORK_LIMIT) -> mpc:
    """(1/k) sum_a prod_j fhat_j(a * h_j'): the transform side of the same
    sum; each transform is charged its k^2 products."""
    k = _common_period(fs, hs)
    factors = [(trig.VALUES, dft(f, bits, work_limit).values,
                mod_inverse(h, k))
               for f, h in zip(fs, hs)]
    return trig.trig_product_sum(factors, k, bits=bits, residues=range(k),
                                 divisor=k)


def map_max_residual(f: PeriodicMap, g: PeriodicMap, bits: int = DEFAULT_BITS):
    """(max_n |f(n) - g(n)|, argmax n), the first such n on a tie."""
    k = _require_same_period(f, g)
    with workprec(guarded(bits, k)):
        diffs = [abs(mpmath.mpmathify(a) - mpmath.mpmathify(b))
                 for a, b in zip(f.values, g.values)]
        where = max(range(k), key=diffs.__getitem__)
        return diffs[where], where


# ---------------------------------------------------------------------------
# the defining maps


def sawtooth_map(k: int) -> PeriodicMap:
    """a -> ((a/k)): 0 at a = 0 and (2a - k)/2k = a/k - 1/2 off it."""
    return PeriodicMap.over([2 * a - k if a else 0 for a in range(k)], 2 * k)


def bernoulli_map(r: int, k: int) -> PeriodicMap:
    """a -> B_r({a/k}) = sum_i c_i (a/k)^i in its integer form: over
    k^r * L, L the lcm of the denominators of the c_i, the numerator at a
    is the integer polynomial sum_i (L c_i k^(r-i)) a^i."""
    check((R_POSITIVE,), r=r)
    coeffs = bernoulli_poly(r).coefficients
    den = lcm(*(c.denominator for c in coeffs))
    poly = Poly(r, tuple(int(c * den) * k ** (r - i)
                         for i, c in enumerate(coeffs)))
    return PeriodicMap.over(map(poly, range(k)), k ** r * den)


def alt_sawtooth_map(k: int) -> PeriodicMap:
    """(-1)^n ((n/k)); k-periodic only for even k."""
    check((K_EVEN,), k=k)
    nums, den = sawtooth_map(k).ints
    return PeriodicMap.over((-v if a % 2 else v for a, v in enumerate(nums)),
                            den)


def alt_sign_map(k: int) -> PeriodicMap:
    """(-1)^(n mod k) off multiples of k, 0 at them; k must be odd."""
    check((K_ODD,), k=k)
    return PeriodicMap.over([0] + [(-1) ** a for a in range(1, k)], 1)


def constant_map(c, k: int) -> PeriodicMap:
    c = Fraction(c)
    return PeriodicMap.over([c.numerator] * k, c.denominator)


def random_rational_map(k: int, seed: int) -> PeriodicMap:
    rng = random.Random(seed)
    vals = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(k))
    return PeriodicMap(vals)


def random_odd_map(k: int, seed: int) -> PeriodicMap:
    """Random exact odd map: free on 1..floor((k-1)/2), reflected, 0 elsewhere."""
    rng = random.Random(seed)
    vals = [Fraction(0)] * k
    for a in range(1, (k - 1) // 2 + 1):
        vals[a] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        vals[k - a] = -vals[a]
    return PeriodicMap(vals)


def random_even_map(k: int, seed: int) -> PeriodicMap:
    rng = random.Random(seed)
    vals = [Fraction(0)] * k
    vals[0] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    for a in range(1, k // 2 + 1):
        vals[a] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        vals[k - a] = vals[a]
    return PeriodicMap(vals)


# ---------------------------------------------------------------------------
# closed-form transforms


def _table_map(table, k: int, bits: int, scale, at_pole,
               shift=0) -> PeriodicMap:
    """n -> scale * T(n) + shift over a trig table T of (k, bits), read as
    mpf under guarded(bits, k); at_pole where T holds None."""
    vals = trig.as_mpf(table, k, bits)
    with workprec(guarded(bits, k)):
        return PeriodicMap(at_pole if t is None else scale * t + shift
                           for t in vals)


def sawtooth_dft_map(k: int, bits: int = DEFAULT_BITS) -> PeriodicMap:
    """Transform of ((n/k)): (i/2) cot(pi*n/k) off multiples of k, 0 at them."""
    return _table_map(trig.cot_table(k, bits), k, bits, mpc(0, 1) / 2,
                      Fraction(0))


def bernoulli_dft_map(r: int, k: int, bits: int = DEFAULT_BITS,
                      variant: str = "corrected") -> PeriodicMap:
    """Transform of B_r({n/k}): r k^(1-r) (i/2)^r cot^(r-1)(pi*n/k) off
    multiples, B_r k^(1-r) at them.

    That off-multiples formula is exact for r >= 2. For r = 1 the stated
    form misses a constant: the r = 1 map equals the sawtooth map minus
    (1/2) * indicator(k | n), whose transform is the constant -1/2, so the
    "corrected" variant adds -1/2 off the multiples branch (the at-multiples
    value -1/2 is already right). variant="paper" keeps the uncorrected
    closed form so its residual can be reported.
    """
    check((choice("variant", ("paper", "corrected"), ValueError), R_POSITIVE),
          variant=variant, r=r)
    with workprec(guarded(bits, k)):
        scale = mpf(r) * mpf(k) ** (1 - r) * (mpc(0, 1) / 2) ** r
    return _table_map(trig.cot_deriv_table(r - 1, k, bits), k, bits, scale,
                      bernoulli_number(r) * Fraction(k) ** (1 - r),
                      mpf(-1) / 2 if r == 1 and variant == "corrected" else 0)


def alt_sawtooth_dft_map(k: int, bits: int = DEFAULT_BITS) -> PeriodicMap:
    """Transform of (-1)^n ((n/k)) (k even): -(i/2) tan(pi*n/k), 0 at n = k/2."""
    check((K_EVEN,), k=k)
    return _table_map(trig.tan_table(k, bits), k, bits, mpc(0, -1) / 2, mpc(0))


def alt_sign_dft_map(k: int, bits: int = DEFAULT_BITS) -> PeriodicMap:
    """Transform of the odd-k alternating-sign map: i tan(pi*n/k), no pole."""
    check((K_ODD,), k=k)
    return _table_map(trig.tan_table(k, bits), k, bits, mpc(0, 1), None)


_ORDER_GIVEN = require(
    lambda p: p["kind"] != "bernoulli" or p["r"] is not None, OutOfRange,
    "the bernoulli family needs the order r")


def closed_form_dft(kind: str, k: int, bits: int = DEFAULT_BITS, *,
                    r: int | None = None,
                    variant: str = "corrected") -> PeriodicMap:
    """Dispatch the closed-form transform of a named map family.

    kind: "sawtooth" | "bernoulli" (needs r) | "alt-sawtooth" (k even)
          | "alt-sign" (k odd); F's transform is zeta.periodic_zeta_dft_map.
    """
    check((K_POSITIVE, _ORDER_GIVEN), k=k, kind=kind, r=r)
    if kind == "sawtooth":
        return sawtooth_dft_map(k, bits)
    if kind == "bernoulli":
        return bernoulli_dft_map(r, k, bits, variant)
    if kind == "alt-sawtooth":
        return alt_sawtooth_dft_map(k, bits)
    if kind == "alt-sign":
        return alt_sign_dft_map(k, bits)
    raise ValueError(f"unknown closed-form kind {kind!r}")


def defining_map(kind: str, k: int, *, r: int | None = None) -> PeriodicMap:
    """The map whose transform closed_form_dft(kind, ...) claims to be."""
    check((K_POSITIVE, _ORDER_GIVEN), k=k, kind=kind, r=r)
    if kind == "sawtooth":
        return sawtooth_map(k)
    if kind == "bernoulli":
        return bernoulli_map(r, k)
    if kind == "alt-sawtooth":
        return alt_sawtooth_map(k)
    if kind == "alt-sign":
        return alt_sign_map(k)
    raise ValueError(f"unknown map kind {kind!r}")
