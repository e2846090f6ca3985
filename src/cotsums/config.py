"""Run configuration shared by the CLI and the identity checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mpf

from .errors import OutOfRange
from .hp import parse_tolerance


@dataclass
class RunConfig:
    precision: int = 256            # bits
    tolerance: str = "2^-128"
    terms: int = 100_000            # series truncation length
    work_limit: int = 10 ** 8       # exact-side product budget
    convention: str | None = None   # per-identity default when None
    jobs: int = 1

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
        if self.terms < 1 or self.work_limit < 1 or self.jobs < 1:
            raise OutOfRange("terms, work limit and jobs must be positive")
