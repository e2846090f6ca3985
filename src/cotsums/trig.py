"""tan/cot and cotangent derivatives at rational multiples of pi, and the
product-sum kernel that evaluates every closed form.

The cot and tan tables hold one whole period, indexed by the residue
n = 0..k-1, with None at a pole; they are the layer's only caches. They
come from one rotation, the powers of e^(i*pi/k) at 2*bitlen(k) + 40 bits
above guarded(bits, k) (the O(k) drift, and cos near pi/2 is O(1/k)); cos
and sin are rounded to guarded(bits, k) and divided, so each entry is
within 2 ulp there, and cot at n = k/2 is an exact 0. cot_at, tan_at and
cot_deriv_at evaluate one value each by cospi/sinpi.

Higher derivatives of cot are evaluated through exact integer polynomials
Q_m with cot^(m)(x) = Q_m(cot x), so the coefficients carry no rounding
error: a derivative table is Q_m over the cached cot table, within
(2m + 4) * 2^-guarded(bits, k) relative error for odd m.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import accumulate, repeat
from operator import mul

import mpmath
from mpmath import mpf, workprec

from .errors import (K_POSITIVE, PoleAtHalfPeriod, PoleAtIntegerMultiple,
                     check)
from .hp import DEFAULT_BITS, guarded

# factor kinds of trig_product_sum
COT, TAN, VALUES = "cot-deriv", "tan", "values"


@dataclass(frozen=True)
class CotPoly:
    """Q_m(t) with cot^(m)(x) = Q_m(cot x); integer coefficients, ascending."""

    order: int
    coefficients: tuple[int, ...]

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


_COT_POLYS: list[CotPoly] = [CotPoly(0, (0, 1))]
_COT_POLYS_LOCK = threading.Lock()


def cot_poly(m: int) -> CotPoly:
    """Q_m via Q_{m+1} = -(1 + t^2) Q_m', memoized."""
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    if m >= len(_COT_POLYS):
        with _COT_POLYS_LOCK:
            while len(_COT_POLYS) <= m:
                prev = _COT_POLYS[-1].coefficients
                deriv = tuple(i * c for i, c in enumerate(prev))[1:]
                out = [0] * (len(deriv) + 2)
                for i, c in enumerate(deriv):
                    out[i] -= c
                    out[i + 2] -= c
                _COT_POLYS.append(CotPoly(len(_COT_POLYS), tuple(out)))
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


def _half_turn(k: int, bits: int) -> list:
    """(cos, sin)(pi*a/k), a = 1..k//2, by the rotation of the module doc."""
    check((K_POSITIVE,), k=k)
    with workprec(guarded(bits, k) + 2 * k.bit_length() + 40):
        w = mpmath.expjpi(mpf(1) / k)
        points = list(accumulate(repeat(w, k // 2), mul))
    with workprec(guarded(bits, k)):
        return [(+z.real, +z.imag) for z in points]


@lru_cache(maxsize=256)
def cot_table(k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(cot(pi*n/k))_{n=0..k-1}: None at n = 0, exactly 0 at n = k/2,
    table[k-n] = -table[n]."""
    with workprec(guarded(bits, k)):
        half = [mpf(0) if 2 * a == k else c / s
                for a, (c, s) in enumerate(_half_turn(k, bits), 1)]
        return (None, *half, *(-v for v in reversed(half[:(k - 1) // 2])))


@lru_cache(maxsize=256)
def tan_table(k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(tan(pi*n/k))_{n=0..k-1}: 0 at n = 0, None at n = k/2,
    table[k-n] = -table[n]."""
    with workprec(guarded(bits, k)):
        half = [None if 2 * a == k else s / c
                for a, (c, s) in enumerate(_half_turn(k, bits), 1)]
        return (mpf(0), *half, *(-v for v in reversed(half[:(k - 1) // 2])))


def cot_deriv_table(order: int, k: int, bits: int = DEFAULT_BITS) -> tuple:
    """(cot^(order)(pi*n/k))_{n=0..k-1}, None at n = 0: Q_order over the
    cached cot table, which is itself the order-0 table."""
    table = cot_table(k, bits)
    if not order:
        return table
    poly = cot_poly(order)
    with workprec(guarded(bits, k)):
        return (None, *(poly(t) for t in table[1:]))


def trig_product_sum(factors, k: int, exclusions=(),
                     bits: int = DEFAULT_BITS, *, residues: range | None = None,
                     start=None, divisor: int = 1):
    """(1/divisor) sum_{a in residues, a not excluded} prod_j T_j((a*h_j) % k).

    Each factor is (kind, arg, h_j). Kind "cot-deriv" takes T_j(n) =
    cot^(arg)(pi*n/k) from cot_deriv_table and "tan" takes tan(pi*n/k)
    from tan_table (arg ignored); "values" takes T_j = arg, a sequence
    indexed by the residue mod k. residues defaults to 1..k-1. Each product is folded left
    from start, or from its first factor when start is None (so at least
    one factor is needed); start=mpc(1) rounds that factor into the working
    precision guarded(bits, k), at which the whole sum runs. Exclusions
    must cover every pole (n = 0 for cot, n = k/2 for tan with k even); an
    uncovered pole raises.
    """
    check((K_POSITIVE,), k=k)
    if residues is None:
        residues = range(1, k)
    idx = residues
    if exclusions:
        # the runs of the range between the excluded residues
        idx, lo = [], residues.start
        for e in sorted({e % k for e in exclusions}):
            if lo <= e < residues.stop:
                idx += range(lo, e)
                lo = e + 1
        idx += range(lo, residues.stop)
    with workprec(guarded(bits, k)):
        cols = []
        for kind, arg, h in factors:
            if kind == VALUES:
                table = arg
            elif kind == TAN:
                table = tan_table(k, bits)
            elif kind == COT:
                table = cot_deriv_table(arg, k, bits)
            else:
                raise ValueError(f"unknown trig factor kind {kind!r}")
            cols.append([table[a * h % k] for a in idx])
        first, rest = ((cols[0], cols[1:]) if start is None
                       else (repeat(start, len(idx)), cols))
        try:
            return sum(reduce(partial(map, mul), rest, first),
                       mpf(0)) / divisor
        except TypeError:
            # a product met a None slot: name the pole it marks
            for (kind, _, h), col in zip(factors, cols):
                for a, value in zip(idx, col):
                    if value is None:
                        error = (PoleAtHalfPeriod if kind == TAN
                                 else PoleAtIntegerMultiple)
                        raise error(f"{kind} factor with multiplier {h} has "
                                    f"a pole at a = {a} (mod {k})") from None
            raise
