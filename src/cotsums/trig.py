"""tan/cot and cotangent derivatives at rational multiples of pi, and the
product-sum kernel that evaluates every closed form.

Table layout. The cot and tan tables of (k, bits) are Python ints at one
fixed scale 2^P, P = table_scale(k, bits) = guarded(bits, k) + bitlen(k):
the entry v stands for v * 2^-P. The extra bitlen(k) bits keep full
relative precision in the smallest entries, ~pi/(2k) next to n = k/2. Each
table holds one whole period, indexed by the residue n = 0..k-1, with None
at a pole (cot at n = 0, tan at n = k/2) and the exact 0 of cot at
n = k/2. fixed_tables builds both from one rotation and keeps them in the
layer's only cache, which holds the last (k, bits) built: the powers of
w = round(e^(i*pi/k) * 2^Q) as Gaussian-int products with a rounding
shift, at Q = guarded(bits, k) + 2*bitlen(k) + 40 (the drift is O(k)
units of 2^-Q, and cos near pi/2 is O(1/k)); then cot = round((c << P) / s)
and tan = round((s << P) / c). Each entry is within 2^-P of the true
value. cot_table and tan_table read the cache; as_mpf is the mpf view of
any entries, rounded to guarded(bits, k), for readers outside the kernel.

Higher derivatives of cot are evaluated through exact integer polynomials
Q_m with cot^(m)(x) = Q_m(cot x), so the coefficients carry no rounding
error: a derivative table is Q_m over the cot ints by integer Horner at
scale 2^P, one rounding shift per step, within
(2m + 4) * 2^-guarded(bits, k) relative error for odd m.

Kernel error bound. trig_product_sum has one arithmetic path: every factor
is an int column at scale 2^P (a "values" entry rounded once to it, an mpc
entry as two ints), the columns are multiplied and summed exactly, and the
sum is rounded once to guarded(bits, k). Each entry is within 2^-P of its
value, so the sum of k m-fold products is within about
m * k * max|T|^(m-1) * 2^-P of the true sum before that rounding. A values
column whose entries pass 2^P (zeta(s, 1/k) ~ k^s at large s) is rounded
at 2^(2P - t) instead, t its largest entry's exponent: each of its entries
is within 2^-2P of that entry, and no int grows past 2P bits. That rule
is fixed_column's, which periodic.dft also uses.

cot_at, tan_at and cot_deriv_at evaluate one value each by cospi/sinpi.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import repeat
from operator import mul

import mpmath
from mpmath import mpc, mpf, workprec
from mpmath.libmp import mpf_shift, to_int

from .errors import (K_POSITIVE, PoleAtHalfPeriod, PoleAtIntegerMultiple,
                     check)
from .exact import Poly
from .hp import DEFAULT_BITS, guarded

# factor kinds of trig_product_sum
COT, TAN, VALUES = "cot-deriv", "tan", "values"

_COT_POLYS: list[Poly] = [Poly(1, (0, 1))]


def cot_poly(m: int) -> Poly:
    """Q_m, with cot^(m)(x) = Q_m(cot x), by Q_{m+1} = -(1 + t^2) Q_m';
    integer coefficients, memoized."""
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    while len(_COT_POLYS) <= m:
        prev = _COT_POLYS[-1].coefficients
        deriv = tuple(i * c for i, c in enumerate(prev))[1:]
        out = [0] * (len(deriv) + 2)
        for i, c in enumerate(deriv):
            out[i] -= c
            out[i + 2] -= c
        _COT_POLYS.append(Poly(len(out) - 1, tuple(out)))
    return _COT_POLYS[m]


def cot_at(a: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """cot(pi*a/k), argument reduced mod k first; k >= 1."""
    check((K_POSITIVE,), k=k)
    a %= k
    if a == 0:
        raise PoleAtIntegerMultiple(f"cot(pi*{a}/{k}) has a pole: k | a")
    with workprec(guarded(bits, k)):
        q = mpf(a) / k
        return mpmath.cospi(q) / mpmath.sinpi(q)


def tan_at(a: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """tan(pi*a/k), k >= 1; a = k/2 (mod k) is a pole when k is even."""
    check((K_POSITIVE,), k=k)
    a %= k
    if k % 2 == 0 and a == k // 2:
        raise PoleAtHalfPeriod(f"tan(pi*{a}/{k}) is undefined")
    with workprec(guarded(bits, k)):
        q = mpf(a) / k
        return mpmath.sinpi(q) / mpmath.cospi(q)


def cot_deriv_at(m: int, a: int, k: int, bits: int = DEFAULT_BITS) -> mpf:
    """cot^(m)(pi*a/k) = Q_m(cot(pi*a/k))."""
    poly = cot_poly(m)
    with workprec(guarded(bits, k) + m):
        return poly(cot_at(a, k, bits + m))


def table_scale(k: int, bits: int = DEFAULT_BITS) -> int:
    """P of the module doc: a table entry v stands for v * 2^-P."""
    return guarded(bits, k) + k.bit_length()


def _half_turn(k: int, q: int) -> list:
    """round(2^q (cos, sin)(pi*a/k)), a = 1..k//2: the powers of the
    rounded root, each product shifted back to 2^q with rounding."""
    r = q + 8
    with workprec(r):
        # e^(i*pi*x), x = 1/k rounded to 2^-r by an int division
        w = mpmath.expjpi(mpf((((1 << r) + k // 2) // k, -r)))
        wr, wi = (int(mpmath.nint(mpmath.ldexp(v, q)))
                  for v in (w.real, w.imag))
    half, c, s, points = 1 << (q - 1), 1 << q, 0, []
    for _ in range(k // 2):
        c, s = (c * wr - s * wi + half) >> q, (c * wi + s * wr + half) >> q
        points.append((c, s))
    return points


def _ratio(x: int, y: int, p: int) -> int:
    """round(x * 2^p / y) for y > 0."""
    return ((x << (p + 1)) + y) // (y << 1)


def _period(first, half: list, k: int) -> tuple:
    """n = 0..k-1 from the values at n = 1..k//2, by table[k-n] = -table[n]."""
    return (first, *half, *(-v for v in reversed(half[:(k - 1) // 2])))


@lru_cache(maxsize=1)
def fixed_tables(k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(cot table, tan table) of (k, bits), both from one rotation."""
    check((K_POSITIVE,), k=k)
    p = table_scale(k, bits)
    points = _half_turn(k, guarded(bits, k) + 2 * k.bit_length() + 40)
    cot = [0 if 2 * a == k else _ratio(c, s, p)
           for a, (c, s) in enumerate(points, 1)]
    tan = [None if 2 * a == k else _ratio(s, c, p)
           for a, (c, s) in enumerate(points, 1)]
    return _period(None, cot, k), _period(0, tan, k)


def cot_table(k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(cot(pi*n/k))_{n=0..k-1} at scale 2^P: None at n = 0, exactly 0 at
    n = k/2, table[k-n] = -table[n]."""
    return fixed_tables(k, bits)[0]


def tan_table(k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(tan(pi*n/k))_{n=0..k-1} at scale 2^P: 0 at n = 0, None at n = k/2,
    table[k-n] = -table[n]."""
    return fixed_tables(k, bits)[1]


# each call of the two is one lookup in the int cache, whose counters they
# report (a profiler reads a table layer's hits through them)
for _column in (cot_table, tan_table):
    _column.cache_info = fixed_tables.cache_info
    _column.cache_clear = fixed_tables.cache_clear


def cot_deriv_table(order: int, k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(cot^(order)(pi*n/k))_{n=0..k-1} at scale 2^P, None at n = 0:
    Q_order by integer Horner over the cot table (itself the order-0
    table), one rounding shift per step."""
    table = cot_table(k, bits)
    if not order:
        return table
    p, (*rest, lead) = table_scale(k, bits), cot_poly(order).coefficients
    half, out = 1 << (p - 1), [None]
    for t in table[1:]:
        acc = lead << p
        for c in reversed(rest):
            acc = ((acc * t + half) >> p) + (c << p)
        out.append(acc)
    return tuple(out)


def as_mpf(values, k: int, bits: int = DEFAULT_BITS) -> tuple:
    """The mpf view of table entries of (k, bits), rounded to
    guarded(bits, k); None stays None."""
    p = table_scale(k, bits)
    with workprec(guarded(bits, k)):
        return tuple(None if v is None else mpf((v, -p)) for v in values)


def _fixed(x, q: int) -> int:
    """round(x * 2^q) of an int, Fraction or mpf x."""
    if isinstance(x, mpf):
        return to_int(mpf_shift(x._mpf_, q), "n")
    return _ratio(x.numerator << max(q, 0), x.denominator << max(-q, 0), 0)


def fixed_column(col, p: int) -> tuple:
    """(real ints, imaginary ints or None if no entry is an mpc, shift):
    int, Fraction, mpf or mpc entries rounded once to 2^-shift, shift = p,
    or 2p - t past 2^p (t the largest entry's exponent, the module doc's
    block exponent)."""
    shift = p - max(0, max(map(mpmath.mag, col), default=0) - p)
    im = ([_fixed(v.imag, shift) for v in col]
          if any(isinstance(v, mpc) for v in col) else None)
    return [_fixed(v.real, shift) for v in col], im, shift


def _times(x, y) -> tuple:
    """The entrywise product of two columns, each (real ints, imaginary
    ints or None); a real product is left lazy, so a sum of real columns
    holds no list of products."""
    (a, b), (c, d) = x, y
    if b is None and d is None:
        return map(mul, a, c), None
    terms = list(zip(a, b or repeat(0), c, d or repeat(0)))
    return ([p * r - q * s for p, q, r, s in terms],
            [p * s + q * r for p, q, r, s in terms])


def trig_product_sum(factors, k: int, bits: int = DEFAULT_BITS, *,
                     residues=None, divisor: int = 1):
    """(1/divisor) sum_{a in residues} prod_j T_j((a*h_j) % k).

    Each factor is (kind, arg, h_j). Kind "cot-deriv" takes T_j(n) =
    cot^(arg)(pi*n/k) and "tan" takes tan(pi*n/k) (arg ignored), both
    from the int tables; "values" takes T_j = arg, a sequence of int,
    Fraction, mpf or mpc entries indexed by the residue mod k. residues, a
    range or a list, defaults to 1..k-1 and must leave out every pole (n = 0
    for cot, n = k/2 for tan with k even, a None entry of a values factor);
    a pole met raises. The result is an mpc when some values entry is, else
    an mpf; the module doc gives its one arithmetic path and error bound.
    """
    check((K_POSITIVE,), k=k)
    if not factors:
        raise ValueError("trig_product_sum needs at least one factor")
    idx = range(1, k) if residues is None else residues
    p, cols, scale = table_scale(k, bits), [], 0
    for kind, arg, h in factors:
        if kind == VALUES:
            table = arg
        elif kind == TAN:
            table = tan_table(k, bits)
        elif kind == COT:
            table = cot_deriv_table(arg, k, bits)
        else:
            raise ValueError(f"unknown trig factor kind {kind!r}")
        col = [table[a * h % k] for a in idx]
        if None in col:
            error = PoleAtHalfPeriod if kind == TAN else PoleAtIntegerMultiple
            raise error(f"{kind} factor with multiplier {h} has a pole at "
                        f"a = {idx[col.index(None)]} (mod {k})")
        col, im, shift = (fixed_column(col, p) if kind == VALUES
                          else (col, None, p))
        cols.append((col, im))
        scale -= shift
    re, im = reduce(_times, cols)
    with workprec(guarded(bits, k)):
        total = mpf((sum(re), scale))
        if im is not None:
            total = mpc(total, mpf((sum(im), scale)))
        return total / divisor
