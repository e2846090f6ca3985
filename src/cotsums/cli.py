"""Command-line surface: compute any sum, verify any identity, sweep ranges.

Exit codes: 0 all pass / value printed, 1 any verification failure,
2 usage or precondition error (the message names the violated condition).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import mpmath

from . import sums, trig, zeta
from .config import RunConfig
from .errors import (CotsumsError, OutOfRange, WorkLimitExceeded, check,
                     choice, given, holds_ints)
from .exact import (bernoulli_number, bernoulli_poly, mod_inverse, sawtooth,
                    units_mod)
from .hp import fmt, is_exact
from .registry import REGISTRY, verify
from .report import csv_header, csv_row

USAGE_EXIT = 2
FAIL_EXIT = 1


# ---------------------------------------------------------------------------
# compute targets


def _rational(text: str) -> Fraction:
    """A --x argument such as 1/3, refused when it is not a rational or its
    denominator is zero."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise OutOfRange(f"x must have a nonzero denominator, got {text}"
                         ) from None
    except ValueError:
        raise OutOfRange(f"x must be a rational such as 1/3, -2 or 0.25, "
                         f"got {text!r}") from None


class _Noted(NamedTuple):
    """A compute value and the note printed beside it."""

    value: object
    note: str


def _dedekind_series(h, k, terms, bits, work_limit):
    value, bound = sums.dedekind_series(h, k, terms, bits, work_limit)
    return _Noted(value, f"tail bound {mpmath.nstr(bound, 6)}")


def _bernoulli_sum_rhs(rs, hs, k, bits, convention):
    conv = convention or "corrected"
    return _Noted(sums.bernoulli_dedekind_rhs(rs, hs, k, bits, conv),
                  f"convention={conv}")


def _hardy(which, h, k, convention):
    """The sum at the zero-residue convention asked for (exclude-zero by
    default); for S and s4 the note gives the other one where it differs."""
    conv, other = sums.EXCLUDE_ZERO, sums.INCLUDE_ZERO
    if convention == "include-zero":
        conv, other = other, conv
    value = sums.hardy_sum(which, h, k, conv)
    alt = sums.hardy_sum(which, h, k, other) if which in ("S", "s4") else value
    return _Noted(value, f"{other} value: {alt}" if alt != value else "")


def _hurwitz(s, x, bits, work_limit):
    zeta._charge_cut(zeta._to_s(s, bits), 1, bits, work_limit)
    return zeta.hurwitz_zeta(s, x, bits)


def _bernoulli_poly(r):
    return _Noted(bernoulli_poly(r).coefficients,
                  "coefficients, ascending powers")


# target -> (function, argv names in call order, the settings passed after
# them: precision, work_limit, convention); the compute flags are added in
# the order the rows first name them
COMPUTE_TARGETS = {
    "dedekind": (sums.dedekind_sum, ("h", "k"), ()),
    "dedekind-cot": (sums.dedekind_cot, ("h", "k"), ("precision",)),
    "dedekind-series": (_dedekind_series, ("h", "k", "terms"),
                        ("precision", "work_limit")),
    "mod-inverse": (mod_inverse, ("h", "k"), ()),
    "cot": (trig.cot_at, ("a", "k"), ("precision",)),
    "tan": (trig.tan_at, ("a", "k"), ("precision",)),
    "gamma-rk": (zeta.euler_gamma_rk, ("r", "k"), ("precision",)),
    "bernoulli-number": (bernoulli_number, ("r",), ()),
    "bernoulli-poly": (_bernoulli_poly, ("r",), ()),
    "cot-deriv": (trig.cot_deriv_at, ("order", "a", "k"), ("precision",)),
    "zagier": (sums.zagier_sum, ("hs", "k"), ("work_limit",)),
    "zagier-cot": (sums.zagier_cot, ("hs", "k"), ("precision",)),
    "hardy-a": (sums.hardy_A, ("hs", "k"), ("work_limit",)),
    "hardy-a-rhs": (sums.hardy_A_rhs, ("hs", "k"), ("precision",)),
    "hardy-b": (sums.hardy_B, ("hs", "k"), ("work_limit",)),
    "hardy-b-rhs": (sums.hardy_B_rhs, ("hs", "k"), ("precision",)),
    "bernoulli-sum": (sums.bernoulli_dedekind_sum, ("rs", "hs", "k"),
                      ("work_limit",)),
    "bernoulli-sum-rhs": (_bernoulli_sum_rhs, ("rs", "hs", "k"),
                          ("precision", "convention")),
    "hurwitz": (_hurwitz, ("s", "x"), ("precision", "work_limit")),
    "periodic-zeta": (zeta.periodic_zeta, ("s", "x"),
                      ("precision", "work_limit")),
    "digamma": (zeta.digamma, ("x",), ("precision",)),
    "sawtooth": (sawtooth, ("x",), ()),
    "hardy": (_hardy, ("which", "h", "k"), ("convention",)),
}
# the --convention values of the targets that read one, in CLI spelling
CONVENTIONS = {"bernoulli-sum-rhs": ("paper", "corrected"),
               "hardy": ("include-zero", "exclude-zero")}


def _ints_csv(text: str) -> tuple:
    """A comma-separated integer list such as 1,3,7; an empty one is refused
    as an argparse type error, which carries the usage line."""
    values = tuple(int(t) for t in text.split(",") if t.strip() != "")
    try:
        check((holds_ints("the list"),), values=values, text=text)
    except OutOfRange as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return values


# ---------------------------------------------------------------------------
# instance flags


# How sweep reads a flag, numbered in the order it expands them within each
# k: MULTIPLIER a range or all-coprime, TUPLE 'm,list' / all-coprime /
# random, RANGE '1..50' | 'odd 3..49' | 'even 4..48' | '3,5,7' | '7', ONE a
# single value.
MULTIPLIER, TUPLE, RANGE, ONE = range(4)
_SWEEP_KWARGS = {MULTIPLIER: {"nargs": "+"}, RANGE: {"nargs": "+"},
                 TUPLE: {"help": "'m,list' / all-coprime / random"}}


class _Param(NamedTuple):
    kwargs: dict            # argparse type, choices and help (verify, compute)
    form: int = ONE         # how sweep reads it


_INT, _INTS = {"type": int}, {"type": _ints_csv}

# every instance flag once, in the order verify lists them
PARAMS = {
    "k": _Param(_INT, RANGE),
    **dict.fromkeys(("h", "h1", "h2"), _Param(_INT, MULTIPLIER)),
    **dict.fromkeys(("r", "r1", "r2", "seed"), _Param(_INT, RANGE)),
    "m": _Param({**_INT, "help": "tuple length for hs expansion"}),
    "hs": _Param(_INTS, TUPLE),
    "rs": _Param({**_INTS, "help": "explicit order tuple, e.g. 2,2"}),
    "s": _Param({"help": "exponent, e.g. 2, 2.5, 2+1i"}),
    "s1": _Param({"help": "first exponent"}),
    "s2": _Param({"help": "second exponent"}),
    "parity": _Param({"choices": ["odd", "even"]}),
    "terms": _Param({**_INT, "help": "series truncation length "
                                     f"(default {sums.TERMS})"}),
    **dict.fromkeys(("a", "order"), _Param(_INT)),
    "x": _Param({"help": "rational argument, e.g. 1/3"}),
    "which": _Param({"choices": list(sums.HARDY_KINDS)}),
    # the rows' choice, the same pair as the Bernoulli target's
    "convention": _Param({"choices": list(CONVENTIONS["bernoulli-sum-rhs"]),
                          "help": "closed-form convention (default "
                                  "corrected)"}),
}
_SWEEP_ORDER = sorted(PARAMS, key=lambda name: PARAMS[name].form)


def _instance_flags(p, names, sweep: bool = False) -> None:
    for name in names:
        param = PARAMS[name]
        kwargs = _SWEEP_KWARGS.get(param.form, param.kwargs) if sweep \
            else param.kwargs
        p.add_argument(f"--{name}", **kwargs)


def _common_flags(p: argparse.ArgumentParser) -> None:
    defaults = RunConfig()
    p.add_argument("--precision", type=int, default=defaults.precision,
                   help="working precision in bits (default "
                        f"{defaults.precision})")
    p.add_argument("--tolerance", default=defaults.tolerance,
                   help=f"pass tolerance, e.g. {defaults.tolerance} or 1e-30")
    p.add_argument("--work-limit", type=int, default=defaults.work_limit,
                   help="exact-side product budget")
    p.add_argument("--json", action="store_true", help="emit JSON")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cotsums",
        description="Compute and verify finite trigonometric identities for "
                    "Dedekind, Hardy and zeta-type sums.")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one sum or special value")
    pc.add_argument("target", choices=sorted(COMPUTE_TARGETS))
    _common_flags(pc)
    pc.add_argument("--convention",
                    choices=[c for cs in CONVENTIONS.values() for c in cs],
                    help="closed-form / zero-residue convention")
    _instance_flags(pc, dict.fromkeys(
        name for _, names, _ in COMPUTE_TARGETS.values() for name in names))
    pc.set_defaults(s="2", x="1", terms=sums.TERMS)

    pv = sub.add_parser("verify", help="verify one identity instance")
    pv.add_argument("id", nargs="?", choices=REGISTRY, metavar="id",
                    help="identity id (see --list)")
    pv.add_argument("--list", action="store_true",
                    help="list identity ids and preconditions")
    _common_flags(pv)
    row_params = [name for name in PARAMS
                  if any(name in e.param_names for e in REGISTRY.values())]
    _instance_flags(pv, row_params)

    ps = sub.add_parser("sweep", help="verify an identity over ranges")
    ps.add_argument("id", choices=REGISTRY, metavar="id", help="identity id")
    _common_flags(ps)
    _instance_flags(ps, row_params, sweep=True)
    ps.add_argument("--jobs", type=int, default=1,
                    help="parallel workers (at most the cores and the "
                         "instances)")
    ps.add_argument("--csv", metavar="PATH", help="write per-instance rows")
    ps.add_argument("--samples", type=int, default=50,
                    help="random multiplier tuples when --hs random")
    ps.add_argument("--verbose", action="store_true",
                    help="print one line per instance")
    return ap


def _config_from(args) -> RunConfig:
    cfg = RunConfig(precision=args.precision, tolerance=args.tolerance,
                    work_limit=args.work_limit)
    cfg.validate()
    return cfg


def _cmd_compute(args) -> int:
    cfg = _config_from(args)
    fn, names, fields = COMPUTE_TARGETS[args.target]
    if args.convention is not None and args.target in CONVENTIONS:
        check((choice("convention", CONVENTIONS[args.target]),),
              convention=args.convention)
    params = {n: getattr(args, n) for n in names}
    check((given(args.target, names),), **params)
    result = fn(*(_rational(v) if n == "x" else v for n, v in params.items()),
                *(getattr(args, f) for f in fields))
    value, note = result if isinstance(result, _Noted) else (result, "")
    # a tuple (the Bernoulli coefficients) prints as a list
    parts = value if isinstance(value, tuple) else (value,)
    text = ", ".join(fmt(v, cfg.precision) for v in parts)
    if isinstance(value, tuple):
        text = f"[{text}]"
    if args.json:
        print(json.dumps({"target": args.target, "params": params,
                          "value": text, "exact": all(map(is_exact, parts)),
                          **({"note": note} if note else {})}))
    else:
        print(text)
        if note:
            print(f"# {note}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for entry in REGISTRY.values():
            print(f"{entry.id:12s} params: {', '.join(entry.param_names):40s}"
                  f" requires: {entry.precondition}")
        return 0
    if not args.id:
        raise CotsumsError("verify needs an identity id (or --list)")
    rep = verify(args.id, {n: getattr(args, n)
                           for n in REGISTRY[args.id].param_names},
                 _config_from(args))
    if args.json:
        print(rep.to_json())
    else:
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.id} {rep.params}")
        print(f"  lhs      = {rep.lhs}")
        print(f"  rhs      = {rep.rhs}")
        print(f"  residual = {rep.residual} (tolerance {rep.tolerance})")
        if rep.note:
            print(f"  note     = {rep.note}")
        print(f"  anchor   = {rep.anchor}")
    return 0 if rep.passed else FAIL_EXIT


# ---------------------------------------------------------------------------
# sweep expansion


def _parse_int_range(args, name: str) -> list[int]:
    """The values of --name: '1..50' | 'odd 3..49' | 'even 4..48' | '3,5,7'
    | '7'; any other text is refused naming the flag and these forms, and a
    range of more values than --work-limit before it is listed."""
    text = " ".join(getattr(args, name))
    spec = text.strip()
    parity = next((p for p in ("odd", "even") if spec.startswith(p)), None)
    if parity:
        spec = spec[len(parity):].strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            values = range(int(lo), int(hi) + 1)
        else:
            values = [int(t) for t in spec.split(",")]
    except ValueError:
        forms = "1..50, odd 3..49, even 4..48, 3,5,7 or 7"
        if PARAMS[name].form == MULTIPLIER:
            forms = forms.replace(" or", ",") + " or all-coprime"
        raise OutOfRange(f"--{name} takes {forms}, got {text!r}") from None
    if parity:      # a range is sliced: its len is counted, not listed
        values = (values[values.start % 2 != (parity == "odd")::2]
                  if isinstance(values, range)
                  else [v for v in values if v % 2 == (parity == "odd")])
    if len(values) > args.work_limit:
        raise WorkLimitExceeded(f"--{name} {text.strip()}: {len(values)} "
                                f"values exceed the limit {args.work_limit}")
    check((holds_ints(f"--{name}"),), values=values, text=text)
    return list(values)


def _tuple_candidates(spec: str, k: int, m: int, samples: int, seed: int,
                      work_limit: int) -> list[tuple]:
    if spec is None:
        spec = "all-coprime" if (m or 2) <= 2 else "random"
    spec = spec.strip()
    if spec not in ("all-coprime", "random"):
        return [_ints_csv(spec)]
    units = units_mod(k)
    # the len(units)^m tuples, the power capped where 2^m passes the limit
    every = len(units) ** min(m, work_limit.bit_length() + 1)
    if spec == "all-coprime":
        if every > work_limit:
            raise WorkLimitExceeded(
                f"--hs all-coprime: {len(units)}^{m} multiplier tuples "
                f"exceed the work limit {work_limit}")
        return list(product(units, repeat=m))
    if samples * m > work_limit:
        raise WorkLimitExceeded(
            f"--samples {samples} tuples x {m} multipliers = "
            f"{samples * m} random draws exceed the work limit {work_limit}")
    # repeated draws are verified once, in the order first drawn; the draws
    # stop once all the tuples have come up
    rng = random.Random(seed * 99991 + k)
    drawn = {}
    for _ in range(samples):
        drawn[tuple(rng.choice(units) for _ in range(m))] = None
        if len(drawn) == every:
            break
    return list(drawn)


def _expand_instances(args, entry) -> list[dict]:
    """Cartesian product of the requested ranges, k-major, filtered to
    admissible parameter sets (instances violating the identity's
    preconditions are skipped, not errors). A flag the row does not read
    is ignored; one it needs without a default must be given, except hs,
    whose tuples default to all-coprime pairs or random tuples."""
    names = [n for n in _SWEEP_ORDER if n in entry.param_names]
    check((given(args.id, [n for n in names if n not in entry.defaults
                           and PARAMS[n].form != TUPLE]),), **vars(args))
    # an exponent no instance takes is refused by its rule, as verify does
    check([zeta.re_above_one(n) for n in ("s", "s1", "s2")
           if n in names and getattr(args, n) is not None], **vars(args))
    ks = _parse_int_range(args, "k")
    # default hs tuples are as long as the explicit rs they pair up with
    rs = args.rs if "rs" in entry.param_names else None
    m = args.m if args.m is not None else len(rs) if rs else 2
    seed = _parse_int_range(args, "seed")[0] if args.seed else 1
    names.remove("k")
    instances = []
    for k in ks:
        per_k: list[dict] = [{"k": k}]
        for name in names:
            value, form = getattr(args, name), PARAMS[name].form
            if form == TUPLE:
                cands = _tuple_candidates(value, k, m, args.samples, seed,
                                          args.work_limit)
            elif value is None:             # the row's default
                continue
            elif form == ONE:
                cands = [value]
            else:
                text = " ".join(value).strip()
                cands = (units_mod(k) if form == MULTIPLIER
                         and text == "all-coprime"
                         else _parse_int_range(args, name))
            per_k = [dict(p, **{name: c}) for p in per_k for c in cands]
        instances.extend(per_k)
    admissible = []
    for params in instances:
        try:
            entry.validate({**entry.defaults, **params})
        except CotsumsError:
            continue
        admissible.append(params)
    return admissible


def _run_instance(payload):
    return verify(*payload)


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    for name, low in (("jobs", 1), ("samples", 1), ("m", 0)):
        value = getattr(args, name)
        if value is not None and value < low:
            raise OutOfRange(f"{name} must be >= {low}, got {value}")
    entry = REGISTRY[args.id]
    instances = _expand_instances(args, entry)
    if not instances:
        print("no admissible instances in the requested ranges",
              file=sys.stderr)
        return USAGE_EXIT
    payloads = [(args.id, params, cfg) for params in instances]
    # the pool forks every worker at once: no more than cores or instances
    jobs = min(args.jobs, os.cpu_count() or 1, len(payloads))
    # a bad --csv path is refused before the sweep runs, not after it
    try:
        out = open(args.csv, "w", newline="") if args.csv else nullcontext()
    except OSError as exc:
        raise CotsumsError(f"cannot write {args.csv}: "
                           f"{exc.strerror or exc}") from None
    with out as fh:
        t0 = time.perf_counter()
        if jobs > 1:
            # one task per run of instances (they are ordered by k), so a
            # worker reuses its tables; 4 runs per worker balance the tail
            chunksize = -(-len(payloads) // (4 * jobs))
            # imported here: a serial sweep never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(_run_instance, payloads,
                                        chunksize=chunksize))
        else:
            reports = [_run_instance(p) for p in payloads]
        elapsed = time.perf_counter() - t0
        if fh is not None:
            names = [n for n in entry.param_names if n != "convention"]
            w = csv.writer(fh)
            w.writerow(csv_header(names))
            for r in reports:
                w.writerow(csv_row(r, names))
    failures = [r for r in reports if not r.passed]
    max_res = max((mpmath.mpf(r.residual) for r in reports), default=0)
    if args.verbose or args.json:
        for r in reports:
            print(r.to_json() if args.json else
                  f"[{'PASS' if r.passed else 'FAIL'}] {r.id} {r.params} "
                  f"residual={r.residual} ({r.micros} us)")
    timed = [r for r in reports
             if r.lhs_micros is not None and r.rhs_micros]
    print(f"sweep {args.id}: {len(reports)} instances, "
          f"{len(reports) - len(failures)} pass, {len(failures)} fail")
    print(f"max residual {mpmath.nstr(max_res, 6)}; total "
          f"{elapsed:.2f} s, mean "
          f"{1e3 * elapsed / len(reports):.2f} ms/instance")
    if timed:                   # each rhs_micros is positive
        lhs_us = sum(r.lhs_micros for r in timed)
        rhs_us = sum(r.rhs_micros for r in timed)
        print(f"exact-side {lhs_us} us vs closed-form {rhs_us} us: "
              f"ratio {lhs_us / rhs_us:.1f}x")
    for r in failures[:10]:
        print(f"  FAIL {r.params}: residual {r.residual} "
              f"(tolerance {r.tolerance}){'; ' + r.note if r.note else ''}")
    return FAIL_EXIT if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (CotsumsError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
