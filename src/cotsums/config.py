"""Run configuration shared by the CLI and the identity checkers."""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath import mpf

from .errors import OutOfRange
from .hp import (DEFAULT_BITS, DEFAULT_TOLERANCE, DEFAULT_WORK_LIMIT,
                 parse_tolerance)


class RunConfig(NamedTuple):
    """The settings every run reads: immutable, checked once per value."""

    precision: int = DEFAULT_BITS               # bits
    tolerance: str = DEFAULT_TOLERANCE
    work_limit: int = DEFAULT_WORK_LIMIT        # the work budget

    @lru_cache(maxsize=64)
    def validate(self) -> tuple[mpf, str]:
        """Refuse tolerances the arithmetic cannot honor, else return the
        parsed tolerance and its printed text; a refusal is not cached."""
        if self.precision < 32:
            raise OutOfRange("precision must be at least 32 bits")
        tolerance = parse_tolerance(self.tolerance)
        if tolerance < mpf(2) ** (-self.precision + 16):
            raise OutOfRange(
                f"tolerance {self.tolerance} is below 2^({-self.precision}+16); "
                f"raise precision or loosen tolerance")
        if self.work_limit < 1:
            raise OutOfRange(f"work limit must be >= 1, got {self.work_limit}")
        return tolerance, mpmath.nstr(tolerance, 10)
