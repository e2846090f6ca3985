"""Command-line surface: compute any sum, verify any identity, sweep ranges.

Exit codes: 0 all pass / value printed, 1 any verification failure,
2 usage or precondition error (the message names the violated condition).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from math import gcd

import mpmath

from . import sums, trig, zeta
from .config import RunConfig
from .errors import CotsumsError, OutOfRange
from .exact import bernoulli_number, bernoulli_poly, mod_inverse, sawtooth
from .hp import fmt
from .registry import REGISTRY, verify
from .report import IdentityReport, csv_header, csv_row

USAGE_EXIT = 2
FAIL_EXIT = 1


# ---------------------------------------------------------------------------
# compute targets


def _rational(text: str) -> Fraction:
    """A --x argument such as 1/3, refused when its denominator is zero."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise OutOfRange(f"x must have a nonzero denominator, got {text}"
                         ) from None


def _t_dedekind(a, cfg):
    return sums.dedekind_sum(a.h, a.k), True, ""


def _t_dedekind_cot(a, cfg):
    return sums.dedekind_cot(a.h, a.k, cfg.precision), False, ""


def _t_dedekind_series(a, cfg):
    value, bound = sums.dedekind_series(a.h, a.k, cfg.terms, cfg.precision)
    return value, False, f"tail bound {mpmath.nstr(bound, 6)}"


def _t_zagier(a, cfg):
    return sums.zagier_sum(a.hs, a.k, cfg.work_limit), True, ""


def _t_zagier_cot(a, cfg):
    return sums.zagier_cot(a.hs, a.k, cfg.precision), False, ""


def _t_bernoulli_sum(a, cfg):
    return sums.bernoulli_dedekind_sum(a.rs, a.hs, a.k, cfg.work_limit), True, ""


def _t_bernoulli_sum_rhs(a, cfg):
    conv = cfg.convention or "corrected"
    return (sums.bernoulli_dedekind_rhs(a.rs, a.hs, a.k, cfg.precision, conv),
            False, f"convention={conv}")


def _t_hardy(a, cfg):
    conv = cfg.convention or sums.EXCLUDE_ZERO
    if conv not in (sums.EXCLUDE_ZERO, sums.INCLUDE_ZERO):
        conv = sums.EXCLUDE_ZERO
    value = sums.hardy_sum(a.which, a.h, a.k, conv)
    note = ""
    if a.which in ("S", "s4"):
        other = (sums.INCLUDE_ZERO if conv == sums.EXCLUDE_ZERO
                 else sums.EXCLUDE_ZERO)
        alt = sums.hardy_sum(a.which, a.h, a.k, other)
        if alt != value:
            note = f"{other} value: {alt}"
    return value, True, note


def _t_hardy_a(a, cfg):
    return sums.hardy_A(a.hs, a.k, cfg.work_limit), True, ""


def _t_hardy_a_rhs(a, cfg):
    return sums.hardy_A_rhs(a.hs, a.k, cfg.precision), False, ""


def _t_hardy_b(a, cfg):
    return sums.hardy_B(a.hs, a.k, cfg.work_limit), True, ""


def _t_hardy_b_rhs(a, cfg):
    return sums.hardy_B_rhs(a.hs, a.k, cfg.precision), False, ""


def _t_gamma_rk(a, cfg):
    return zeta.euler_gamma_rk(a.r, a.k, cfg.precision), False, ""


def _t_digamma(a, cfg):
    return zeta.digamma(_rational(a.x), cfg.precision), False, ""


def _t_hurwitz(a, cfg):
    x = _rational(a.x)
    zeta._charge_cut(zeta._to_s(a.s, cfg.precision), 1, cfg.precision,
                     cfg.work_limit)
    return zeta.hurwitz_zeta(a.s, x, cfg.precision), False, ""


def _t_periodic_zeta(a, cfg):
    return zeta.periodic_zeta(a.s, _rational(a.x), cfg.precision,
                              cfg.work_limit), False, ""


def _t_cot(a, cfg):
    return trig.cot_at(a.a, a.k, cfg.precision), False, ""


def _t_tan(a, cfg):
    return trig.tan_at(a.a, a.k, cfg.precision), False, ""


def _t_cot_deriv(a, cfg):
    return trig.cot_deriv_at(a.order, a.a, a.k, cfg.precision), False, ""


def _t_bernoulli_number(a, cfg):
    return bernoulli_number(a.r), True, ""


def _t_bernoulli_poly(a, cfg):
    poly = bernoulli_poly(a.r)
    return "[" + ", ".join(str(c) for c in poly.coefficients) + "]", True, \
        "coefficients, ascending powers"


def _t_sawtooth(a, cfg):
    return sawtooth(_rational(a.x)), True, ""


def _t_mod_inverse(a, cfg):
    return mod_inverse(a.h, a.k), True, ""


COMPUTE_TARGETS = {
    "dedekind": (_t_dedekind, ("h", "k")),
    "dedekind-cot": (_t_dedekind_cot, ("h", "k")),
    "dedekind-series": (_t_dedekind_series, ("h", "k")),
    "zagier": (_t_zagier, ("hs", "k")),
    "zagier-cot": (_t_zagier_cot, ("hs", "k")),
    "bernoulli-sum": (_t_bernoulli_sum, ("rs", "hs", "k")),
    "bernoulli-sum-rhs": (_t_bernoulli_sum_rhs, ("rs", "hs", "k")),
    "hardy": (_t_hardy, ("which", "h", "k")),
    "hardy-a": (_t_hardy_a, ("hs", "k")),
    "hardy-a-rhs": (_t_hardy_a_rhs, ("hs", "k")),
    "hardy-b": (_t_hardy_b, ("hs", "k")),
    "hardy-b-rhs": (_t_hardy_b_rhs, ("hs", "k")),
    "gamma-rk": (_t_gamma_rk, ("r", "k")),
    "digamma": (_t_digamma, ("x",)),
    "hurwitz": (_t_hurwitz, ("s", "x")),
    "periodic-zeta": (_t_periodic_zeta, ("s", "x")),
    "cot": (_t_cot, ("a", "k")),
    "tan": (_t_tan, ("a", "k")),
    "cot-deriv": (_t_cot_deriv, ("order", "a", "k")),
    "bernoulli-number": (_t_bernoulli_number, ("r",)),
    "bernoulli-poly": (_t_bernoulli_poly, ("r",)),
    "sawtooth": (_t_sawtooth, ("x",)),
    "mod-inverse": (_t_mod_inverse, ("h", "k")),
}


def _ints_csv(text: str) -> tuple:
    """A comma-separated integer list such as 1,3,7; an empty one is refused."""
    values = tuple(int(t) for t in text.split(",") if t.strip() != "")
    if not values:
        raise argparse.ArgumentTypeError(
            f"the list must hold at least one integer, got {text!r}")
    return values


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int, default=256,
                   help="working precision in bits (default 256)")
    p.add_argument("--tolerance", default="2^-128",
                   help="pass tolerance, e.g. 2^-128 or 1e-30")
    p.add_argument("--terms", type=int, default=100_000,
                   help="series truncation length")
    p.add_argument("--work-limit", type=int, default=10 ** 8,
                   help="exact-side product budget")
    p.add_argument("--convention",
                   choices=["paper", "corrected", "include-zero",
                            "exclude-zero"],
                   help="closed-form / zero-residue convention")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for sweep (at most the cores "
                        "and the instances)")
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
    pc.add_argument("--h", type=int)
    pc.add_argument("--k", type=int)
    pc.add_argument("--a", type=int)
    pc.add_argument("--r", type=int)
    pc.add_argument("--order", type=int)
    pc.add_argument("--hs", type=_ints_csv)
    pc.add_argument("--rs", type=_ints_csv)
    pc.add_argument("--s", default="2", help="exponent, e.g. 2, 2.5, 2+1i")
    pc.add_argument("--x", default="1", help="rational argument, e.g. 1/3")
    pc.add_argument("--which", choices=list(sums.HARDY_KINDS))

    pv = sub.add_parser("verify", help="verify one identity instance")
    pv.add_argument("id", nargs="?", help="identity id (see --list)")
    pv.add_argument("--list", action="store_true",
                    help="list identity ids and preconditions")
    _common_flags(pv)
    _instance_flags(pv, for_sweep=False)

    ps = sub.add_parser("sweep", help="verify an identity over ranges")
    ps.add_argument("id", help="identity id")
    _common_flags(ps)
    _instance_flags(ps, for_sweep=True)
    ps.add_argument("--csv", metavar="PATH", help="write per-instance rows")
    ps.add_argument("--samples", type=int, default=50,
                    help="random multiplier tuples when --hs random")
    ps.add_argument("--verbose", action="store_true",
                    help="print one line per instance")
    return ap


def _instance_flags(p, for_sweep: bool) -> None:
    if for_sweep:
        rng = {"nargs": "+"}
        p.add_argument("--k", **rng)
        p.add_argument("--h", **rng)
        p.add_argument("--h1", **rng)
        p.add_argument("--h2", **rng)
        p.add_argument("--r", **rng)
        p.add_argument("--r1", **rng)
        p.add_argument("--r2", **rng)
        p.add_argument("--seed", **rng)
        p.add_argument("--hs", help="'m,list' / all-coprime / random")
        p.add_argument("--rs", help="explicit order tuple, e.g. 2,2")
        p.add_argument("--m", type=int, help="tuple length for hs expansion")
    else:
        for name in ("k", "h", "h1", "h2", "r", "r1", "r2", "seed", "m"):
            p.add_argument(f"--{name}", type=int)
        p.add_argument("--hs", type=_ints_csv)
        p.add_argument("--rs", type=_ints_csv)
    p.add_argument("--s", help="exponent, e.g. 2, 2.5, 2+1i")
    p.add_argument("--s1", help="first exponent")
    p.add_argument("--s2", help="second exponent")
    p.add_argument("--parity", choices=["odd", "even"])
    p.add_argument("--instance-terms", dest="instance_terms", type=int,
                   help="series terms for this identity instance")


def _config_from(args) -> RunConfig:
    conv = args.convention
    if conv in ("include-zero", "exclude-zero"):
        conv += "-residue"
    cfg = RunConfig(precision=args.precision, tolerance=args.tolerance,
                    terms=args.terms, work_limit=args.work_limit,
                    convention=conv, jobs=args.jobs)
    cfg.validate()
    return cfg


def _gather_params(args, entry) -> dict:
    params = {}
    for name in entry.param_kinds:
        if name == "convention":
            continue  # flows through the config
        if name == "terms":
            params["terms"] = args.instance_terms
            continue
        params[name] = getattr(args, name, None)
    return {k: v for k, v in params.items() if v is not None}


def _cmd_compute(args) -> int:
    cfg = _config_from(args)
    fn, needed = COMPUTE_TARGETS[args.target]
    missing = [n for n in needed if getattr(args, n, None) is None]
    if missing:
        print(f"compute {args.target} needs --" + " --".join(missing),
              file=sys.stderr)
        return USAGE_EXIT
    value, exact, note = fn(args, cfg)
    text = value if isinstance(value, str) else fmt(value, cfg.precision)
    if args.json:
        params = {n: _jsonable(getattr(args, n)) for n in needed}
        print(json.dumps({"target": args.target, "params": params,
                          "value": text, "exact": exact,
                          **({"note": note} if note else {})}))
    else:
        print(text)
        if note:
            print(f"# {note}", file=sys.stderr)
    return 0


def _jsonable(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def _cmd_verify(args) -> int:
    if args.list:
        for entry in REGISTRY.values():
            print(f"{entry.id:12s} params: {', '.join(entry.param_names):40s}"
                  f" requires: {entry.precondition}")
        return 0
    if not args.id:
        print("verify needs an identity id (or --list)", file=sys.stderr)
        return USAGE_EXIT
    cfg = _config_from(args)
    if args.id not in REGISTRY:
        print(f"unknown identity {args.id!r}; known ids: "
              f"{', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return USAGE_EXIT
    rep = verify(args.id, _gather_params(args, REGISTRY[args.id]), cfg)
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


def _parse_int_range(tokens) -> list[int]:
    """'1..50' | 'odd 3..49' | 'even 4..48' | '3,5,7' | '7'."""
    text = " ".join(tokens) if isinstance(tokens, (list, tuple)) else tokens
    text = text.strip()
    parity = None
    for tag in ("odd", "even"):
        if text.startswith(tag):
            parity = tag
            text = text[len(tag):].strip()
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
    elif "," in text:
        values = [int(t) for t in text.split(",")]
    else:
        values = [int(text)]
    if parity == "odd":
        values = [v for v in values if v % 2 == 1]
    elif parity == "even":
        values = [v for v in values if v % 2 == 0]
    return values


def _multiplier_candidates(token_list, k: int) -> list[int]:
    text = " ".join(token_list) if isinstance(token_list, (list, tuple)) \
        else token_list
    text = text.strip()
    if text == "all-coprime":
        return [h for h in range(1, max(k, 2)) if gcd(h, k) == 1]
    return _parse_int_range(text)


def _tuple_candidates(spec: str, k: int, m: int, samples: int,
                      seed: int) -> list[tuple]:
    import random as _random

    if spec is None:
        spec = "all-coprime" if (m or 2) <= 2 else "random"
    spec = spec.strip()
    units = [h for h in range(1, max(k, 2)) if gcd(h, k) == 1]
    if spec == "all-coprime":
        import itertools

        return [t for t in itertools.product(units, repeat=m)]
    if spec == "random":
        rng = _random.Random(seed * 99991 + k)
        return [tuple(rng.choice(units) for _ in range(m))
                for _ in range(samples)]
    return [_ints_csv(spec)]


def _expand_instances(args, entry, cfg) -> list[dict]:
    """Cartesian product of the requested ranges, filtered to admissible
    parameter sets (instances violating the identity's preconditions are
    skipped, not errors)."""
    ks = _parse_int_range(args.k) if args.k else None
    if ks is None:
        raise CotsumsError("sweep needs --k")
    m = getattr(args, "m", None)
    hs_spec = getattr(args, "hs", None)
    if m is None and hs_spec and hs_spec not in ("all-coprime", "random"):
        m = len(_ints_csv(hs_spec))
    if m is None:
        m = 2
    seeds = _parse_int_range(args.seed) if args.seed else [1]
    instances = []
    for k in ks:
        per_k: list[dict] = [{"k": k}]
        for name in ("h", "h1", "h2"):
            tokens = getattr(args, name, None)
            if tokens is None:
                continue
            cands = _multiplier_candidates(tokens, k)
            per_k = [dict(p, **{name: c}) for p in per_k for c in cands]
        if "hs" in entry.param_kinds:
            tuples = _tuple_candidates(getattr(args, "hs", None), k, m,
                                       args.samples, seeds[0])
            per_k = [dict(p, hs=t) for p in per_k for t in tuples]
        if "rs" in entry.param_kinds:
            if not getattr(args, "rs", None):
                raise CotsumsError("this identity needs --rs")
            per_k = [dict(p, rs=_ints_csv(args.rs)) for p in per_k]
        for name in ("r", "r1", "r2"):
            tokens = getattr(args, name, None)
            if tokens is None:
                continue
            cands = _parse_int_range(tokens)
            per_k = [dict(p, **{name: c}) for p in per_k for c in cands]
        if "seed" in entry.param_kinds:
            per_k = [dict(p, seed=s) for p in per_k for s in seeds]
        for name in ("s", "s1", "s2", "parity", "m"):
            v = getattr(args, name, None)
            if v is not None:
                per_k = [dict(p, **{name: v}) for p in per_k]
        instances.extend(per_k)
    admissible = []
    for params in instances:
        params = {k: v for k, v in params.items() if k in entry.param_kinds}
        full = dict(entry.defaults)
        full.update(params)
        try:
            entry.validate(full)
        except CotsumsError:
            continue
        admissible.append(params)
    return admissible


def _run_instance(payload):
    index, identity_id, params, cfg_dict = payload
    cfg = RunConfig.from_dict(cfg_dict)
    rep = verify(identity_id, params, cfg)
    return index, rep.to_dict()


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    if args.id not in REGISTRY:
        print(f"unknown identity {args.id!r}", file=sys.stderr)
        return USAGE_EXIT
    entry = REGISTRY[args.id]
    instances = _expand_instances(args, entry, cfg)
    if not instances:
        print("no admissible instances in the requested ranges",
              file=sys.stderr)
        return USAGE_EXIT
    payloads = [(i, args.id, params, cfg.to_dict())
                for i, params in enumerate(instances)]
    # the pool forks every worker at once: no more than cores or instances
    jobs = min(cfg.jobs, os.cpu_count() or 1, len(payloads))
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
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = sorted(pool.map(_run_instance, payloads,
                                          chunksize=chunksize))
        else:
            results = [_run_instance(p) for p in payloads]
        elapsed = time.perf_counter() - t0
        reports = [IdentityReport.from_dict(d) for _, d in results]
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
    if timed:
        lhs_us = sum(r.lhs_micros for r in timed)
        rhs_us = sum(r.rhs_micros for r in timed)
        if rhs_us:
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
