"""Verification reports: one record per identity instance."""

from __future__ import annotations

import json
from itertools import combinations

import mpmath
from mpmath import mp, mpc, mpf, mpmathify, workprec
from mpmath.libmp import from_rational, to_rational

from .hp import fmt, is_exact


class IdentityReport:
    """One verification instance: lhs vs rhs at a tolerance.

    `passed` is exactly `residual < tolerance or residual == 0`, where
    tolerance is the effective one for the instance (the configured
    tolerance, or the identity's own computed bound for truncated-series
    checks). An exactly zero residual passes even against a zero bound,
    as for a series whose terms all vanish. Timings are set once built.
    """

    def __init__(self, id: str, params: dict, lhs: str, rhs: str,
                 residual: str, tolerance: str, passed: bool, note: str = "",
                 anchor: str = "", micros: int = 0,
                 lhs_micros: int | None = None,
                 rhs_micros: int | None = None):
        self.id, self.params, self.lhs, self.rhs = id, params, lhs, rhs
        self.residual, self.tolerance = residual, tolerance
        self.passed, self.note, self.anchor = passed, note, anchor
        self.micros = micros
        self.lhs_micros, self.rhs_micros = lhs_micros, rhs_micros

    def to_dict(self) -> dict:
        out = {"id": self.id, "params": self.params, "lhs": self.lhs,
               "rhs": self.rhs, "residual": self.residual,
               "tolerance": self.tolerance, "pass": self.passed,
               "note": self.note, "anchor": self.anchor,
               "micros": self.micros}
        if self.lhs_micros is not None:
            out["lhs_micros"] = self.lhs_micros
            out["rhs_micros"] = self.rhs_micros
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "IdentityReport":
        return cls(d["id"], d["params"], d["lhs"], d["rhs"], d["residual"],
                   d["tolerance"], d["pass"], d.get("note", ""),
                   d.get("anchor", ""), d.get("micros", 0),
                   d.get("lhs_micros"), d.get("rhs_micros"))


def _residual(lhs, rhs):
    """|lhs - rhs| at the working precision. When lhs is exact and rhs a
    finite mpf or mpc, lhs - Re(rhs) is taken exactly, in integers, so the
    one rounding is of the residual itself, not of lhs (~2^-266 at |lhs| ~ 40
    and 256 bits, above the closed side's own error)."""
    re = rhs.real if isinstance(rhs, mpc) else rhs
    if is_exact(lhs) and isinstance(re, mpf) and mpmath.isfinite(re):
        n, d = lhs.numerator, lhs.denominator
        p, q = to_rational(re._mpf_)
        # mpmathify of the Fraction gap rounds the same way (round_fast)
        gap = mp.make_mpf(from_rational(n * q - p * d, d * q, mp.prec))
        return abs(mpc(gap, rhs.imag) if isinstance(rhs, mpc) else gap)
    return abs(mpmathify(lhs) - mpmathify(rhs))


def build_report(identity_id: str, anchor: str, params: dict, lhs, rhs,
                 config, note: str = "", residual=None, tolerance=None,
                 more=()) -> IdentityReport:
    """Assemble a report at the config's precision, computing |lhs - rhs|,
    or its max over every pair of lhs, rhs and the further sides more,
    unless a residual (e.g. a max over map indices) is supplied. The pass is
    against the config's tolerance, or against tolerance when one is given
    (a truncated series' tail bound)."""
    bits = config.precision
    with workprec(bits + 16):   # a given bound is printed unrounded
        tolerance, text = (config.validate() if tolerance is None else
                           (tolerance, mpmath.nstr(mpmathify(tolerance), 10)))
        if residual is None:
            residual = max(_residual(a, b) for a, b in
                           combinations((lhs, rhs, *more), 2))
        residual = abs(mpmathify(residual))
        passed = bool(residual < tolerance or residual == 0)
    return IdentityReport(
        id=identity_id, params=params, lhs=fmt(lhs, bits), rhs=fmt(rhs, bits),
        residual=mpmath.nstr(residual, 10), tolerance=text, passed=passed,
        note=note, anchor=anchor)


def csv_header(param_names) -> list[str]:
    return (["id"] + list(param_names)
            + ["lhs", "rhs", "residual", "pass", "micros"])


def csv_row(report: IdentityReport, param_names) -> list:
    row = [report.id]
    for name in param_names:
        v = report.params.get(name, "")
        if isinstance(v, (list, tuple)):
            v = ",".join(str(x) for x in v)
        row.append(v)
    row += [report.lhs, report.rhs, report.residual,
            int(report.passed), report.micros]
    return row
