"""High-precision numeric substrate.

Real/complex values are mpmath mpf/mpc carrying an explicit bit precision.
Every routine that produces numbers takes a ``bits`` argument and evaluates
under ``workprec(bits + guard)`` so that the returned value is accurate at
the configured precision; the guard absorbs the O(k) accumulation of the
summations involved.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mpf, workprec

from .errors import OutOfRange

# the run defaults of RunConfig and the CLI
DEFAULT_BITS = 256
DEFAULT_TOLERANCE = "2^-128"
DEFAULT_WORK_LIMIT = 10 ** 8        # exact-side product budget

# extra working bits on top of the requested precision
GUARD_BITS = 16


def guarded(bits: int, n: int = 0) -> int:
    """Working precision for a computation combining ~n rounded terms."""
    return bits + GUARD_BITS + max(0, n).bit_length()


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def parse_tolerance(text: str) -> mpf:
    """Parse '2^-128', '1e-30' or a plain decimal into a finite mpf
    tolerance; other text, inf and nan are refused naming these forms."""
    text = text.strip()
    try:
        with workprec(80):      # 2^n is exact at any precision
            value = (mpf(2) ** int(text[2:]) if text.startswith("2^")
                     else mpf(text))
    except ValueError:
        value = mpmath.nan
    if not mpmath.isfinite(value):
        raise OutOfRange(f"tolerance must be a finite 2^n or decimal such as "
                         f"2^-128 or 1e-30, got {text!r}")
    return value


def fmt(x, bits: int = DEFAULT_BITS) -> str:
    """Render exact values as fractions, numerics as decimals.

    Exact rationals keep the lossless p/q form; mpf/mpc are printed with
    the number of digits the precision actually supports.
    """
    if is_exact(x):
        return str(x)
    digits = max(8, int(bits * 0.3010) - 2)
    return mpmath.nstr(x, digits)
