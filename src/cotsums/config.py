"""Run configuration shared by the CLI and the identity checkers."""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpf

from .errors import OutOfRange
from .hp import (DEFAULT_BITS, DEFAULT_TOLERANCE, DEFAULT_WORK_LIMIT,
                 parse_tolerance)


@dataclass
class RunConfig:
    precision: int = DEFAULT_BITS               # bits
    tolerance: str = DEFAULT_TOLERANCE
    work_limit: int = DEFAULT_WORK_LIMIT        # exact-side product budget

    def tolerance_value(self) -> mpf:
        return parse_tolerance(self.tolerance)

    def validate(self) -> None:
        """Refuse tolerances the arithmetic cannot honor."""
        if self.precision < 32:
            raise OutOfRange("precision must be at least 32 bits")
        floor = mpf(2) ** (-self.precision + 16)
        if self.tolerance_value() < floor:
            raise OutOfRange(
                f"tolerance {self.tolerance} is below 2^({-self.precision}+16); "
                f"raise precision or loosen tolerance")
        if self.work_limit < 1:
            raise OutOfRange(f"work limit must be >= 1, got {self.work_limit}")
