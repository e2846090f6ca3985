"""Exact rational arithmetic: sawtooth, Bernoulli numbers/polynomials, inverses.

Everything here is closed over Fraction, so identities whose two sides are
rational can be compared structurally.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from .errors import K_POSITIVE, R_POSITIVE, check, coprime


def frac(q: Fraction) -> Fraction:
    """Fractional part {q} = q - floor(q), in [0, 1)."""
    q = Fraction(q)
    return Fraction(q.numerator % q.denominator, q.denominator)


def sawtooth(q: Fraction) -> Fraction:
    """((q)) = {q} - 1/2 for non-integer q, and 0 at integers."""
    q = Fraction(q)
    return Fraction(0) if q.denominator == 1 else frac(q) - Fraction(1, 2)


_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli_number(r: int) -> Fraction:
    """B_r via the binomial recurrence sum_{j<=r} C(r+1,j) B_j = 0, memoized.

    Convention B_1 = -1/2. The cache is extended under a lock and only
    appended to, so concurrent readers are safe after the fill.
    """
    if r < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if r >= len(_BERNOULLI):
        with _BERNOULLI_LOCK:
            while len(_BERNOULLI) <= r:
                n = len(_BERNOULLI)
                acc = sum(comb(n + 1, j) * _BERNOULLI[j] for j in range(n))
                _BERNOULLI.append(-acc / (n + 1))
    return _BERNOULLI[r]


class Poly(NamedTuple):
    """A polynomial with exact coefficients, ascending powers of x: B_r(x)
    here, and trig's cot-derivative polynomials."""

    degree: int
    coefficients: tuple

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def bernoulli_poly(r: int) -> Poly:
    """B_r(x) = sum_j C(r,j) B_j x^(r-j)."""
    bernoulli_number(r)  # refuses r < 0; fills the cache the loop reads
    coeffs = tuple(comb(r, r - j) * bernoulli_number(r - j) for j in range(r + 1))
    return Poly(r, coeffs)


def periodic_bernoulli(r: int, q: Fraction) -> Fraction:
    """The 1-periodic Bernoulli function: B_r evaluated at {q}.

    For r = 1 this differs from sawtooth() exactly at the integers,
    where it is -1/2 rather than 0.
    """
    check((R_POSITIVE,), r=r)
    return bernoulli_poly(r)(frac(q))


def units_mod(k: int) -> list[int]:
    """The multipliers 1..k-1 coprime to k, or [1] at k = 1."""
    return [h for h in range(1, max(k, 2)) if gcd(h, k) == 1]


def mod_inverse(h: int, k: int) -> int:
    """Least positive h' with h*h' = 1 (mod k); h' = 1 when k = 1.

    Normalizing to [1, k-1] keeps downstream trig arguments pi*a*h'/k
    reproducible across platforms.
    """
    check((K_POSITIVE, coprime("h")), h=h, k=k)
    return 1 if k == 1 else pow(h % k, -1, k)
