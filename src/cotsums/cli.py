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
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, closing, suppress
from fractions import Fraction
from functools import partial
from itertools import chain, cycle, product
from math import gcd, isqrt, prod
from typing import NamedTuple

import mpmath

from . import sums, trig, zeta
from .config import RunConfig
from .errors import (CotsumsError, OutOfRange, charge, check, choice, given,
                     holds_ints)
from .exact import bernoulli_number, bernoulli_poly, mod_inverse, sawtooth
from .hp import fmt, is_exact
from .registry import REGISTRY, verify
from .report import csv_header, csv_row

USAGE_EXIT = 2
FAIL_EXIT = 1
# a fork costs ~4 ms: eq1 sweeps at --jobs 2 broke even near 128 instances
_PER_WORKER = 64


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


def _hardy(which, h, k, work_limit, convention):
    """The sum at the zero-residue convention asked for (exclude-zero by
    default); for S and s4 the note gives the other one where it differs."""
    conv, other = sums.EXCLUDE_ZERO, sums.INCLUDE_ZERO
    if convention == "include-zero":
        conv, other = other, conv
    value = sums.hardy_sum(which, h, k, conv, work_limit)
    alt = (sums.hardy_sum(which, h, k, other, work_limit)
           if which in ("S", "s4") else value)
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
    "dedekind": (sums.dedekind_sum, ("h", "k"), ("work_limit",)),
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
    "hardy": (_hardy, ("which", "h", "k"), ("work_limit", "convention")),
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
                   help="work budget")
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


def _parse_int_range(args, name: str) -> range | list[int]:
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
    charge(len(values), args.work_limit,
           f"--{name} {text.strip()}: {len(values)} values")
    check((holds_ints(f"--{name}"),), values=values, text=text)
    return values


def _tuple_candidates(spec: str, k: int, m: int, samples: int, seed: int,
                      work_limit: int) -> tuple[int, Iterable[tuple]]:
    """The count and the hs tuples at k: all-coprime (counted from phi(k),
    the tuples made as they are read) or random."""
    phi, units = _units(k)
    # the phi^m tuples, the power capped where 2^m passes the limit
    every = phi ** min(m, work_limit.bit_length() + 1)
    if spec == "all-coprime":
        charge(every, work_limit,
               f"--hs all-coprime: {phi}^{m} multiplier tuples")
        # product lists its input when it is called, so it is called only
        # when the tuples are read
        return every, chain.from_iterable(
            map(partial(product, repeat=m), [units]))
    units = list(units)
    charge(samples * m, work_limit, f"--samples {samples} tuples x {m} "
           f"multipliers = {samples * m} random draws")
    # repeated draws are verified once, in the order first drawn; the draws
    # stop once all the tuples have come up
    rng = random.Random(seed * 99991 + k)
    drawn = {}
    for _ in range(samples):
        drawn[tuple(rng.choice(units) for _ in range(m))] = None
        if len(drawn) == every:
            break
    return len(drawn), list(drawn)


def _units(k: int) -> tuple[int, Iterable[int]]:
    """phi(k) = len(units_mod(k)), from the primes of k, and units_mod(k)
    made as it is read: an all-coprime multiplier's count and values."""
    phi = n = max(k, 1)
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
    return (phi - phi // n if n > 1 else phi,
            (h for h in range(1, max(k, 2)) if gcd(h, k) == 1))


def _expand_instances(args, entry) -> tuple[int, Iterator[dict]]:
    """The count and the admissible instances of the ranges, k-major; each
    flag is parsed once, to a sequence or to a function of k giving (count,
    values). A flag the row does not read is ignored; one it needs without
    a default must be given, except hs, whose tuples default to all-coprime
    pairs or random tuples."""
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
    flags = []
    for name in names:
        value, form = getattr(args, name), PARAMS[name].form
        if form == TUPLE:
            spec = value.strip() if value is not None \
                else "all-coprime" if m <= 2 else "random"
            # random tuples are drawn from the first --seed
            seed = (_parse_int_range(args, "seed")[0]
                    if spec == "random" and args.seed else 1)
            values = ([_ints_csv(spec)] if spec not in ("all-coprime",
                                                        "random")
                      else partial(_tuple_candidates, spec, m=m,
                                   samples=args.samples, seed=seed,
                                   work_limit=args.work_limit))
        elif name == "k" or value is None:      # None: the row's default
            continue
        elif form == ONE:
            values = [value]
        elif form == MULTIPLIER and " ".join(value).strip() == "all-coprime":
            values = _units
        else:
            values = _parse_int_range(args, name)
        flags.append((name, values))
    # counted before any is made: k by k only while some values depend on
    # k, and then up to the k past the limit
    per_k = [v for _, v in flags if callable(v)]
    fixed = prod(len(v) for _, v in flags if not callable(v))
    count = 0 if per_k else len(ks) * fixed
    for k in ks if per_k else ():
        count += fixed * prod(v(k)[0] for v in per_k)
        if count > args.work_limit:
            break
    swept = " x ".join(f"--{n}" for n, v in [("k", ks), *flags]
                       if callable(v) or len(v) > 1)
    charge(count, args.work_limit, f"{swept}: "
           f"{f'more than {args.work_limit}' if per_k else count} instances")
    return count, (p for k in ks for p in _nested(entry, flags, {"k": k}))


def _nested(entry, flags, params: dict) -> Iterator[dict]:
    """The admissible instances extending params, the first flag varying
    slowest (instances violating the identity's preconditions are skipped,
    not errors)."""
    if flags:
        (name, values), *rest = flags
        for value in values(params["k"])[1] if callable(values) else values:
            yield from _nested(entry, rest, {**params, name: value})
        return
    with suppress(CotsumsError):
        entry.validate({**entry.defaults, **params})
        yield params


def _run_instance(payload):
    return verify(*payload)


def _forked(payloads: Iterator, jobs: int, chunk: int) -> Iterator:
    """The reports of payloads in their order, from `jobs` forked workers.
    Worker w walks its own copy of the stream (validating every instance,
    ~3 us each) and pickles to its pipe the reports of chunks w, w + jobs,
    ... of `chunk` payloads, a chunk cut short with its error, then None.
    A pipe that ends early fails the sweep; every worker is reaped."""
    import pickle                       # here: a serial sweep loads neither
    import signal

    workers = {}                        # pid -> the read end of its pipe
    try:
        for w in range(jobs):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                code, reports, error = 1, [], None
                try:    # os._exit: no buffer of the parent is flushed twice
                    os.close(read)      # else a full pipe outlives the parent
                    out = open(write, "wb")
                    try:
                        for i, payload in enumerate(payloads):
                            if i // chunk % jobs == w:
                                reports.append(_run_instance(payload))
                                if len(reports) == chunk:
                                    out.write(pickle.dumps((reports, None)))
                                    out.flush()
                                    reports = []
                    except Exception as exc:    # raised by the parent
                        import traceback
                        exc.add_note(traceback.format_exc())
                        error = exc
                    if reports or error is not None:
                        out.write(pickle.dumps((reports, error)))
                    out.write(pickle.dumps(None))
                    out.flush()
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            workers[pid] = open(read, "rb")
        for pid in cycle(list(workers)):
            try:
                message = pickle.load(workers[pid])
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                workers.pop(pid).close()
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise CotsumsError("a sweep worker ended before its last "
                                   f"report ({how})") from None
            if message is None:
                return
            yield from message[0]
            if message[1] is not None:
                raise message[1]
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    for name, low in (("jobs", 1), ("samples", 1), ("m", 0)):
        value = getattr(args, name)
        if value is not None and value < low:
            raise OutOfRange(f"{name} must be >= {low}, got {value}")
    entry = REGISTRY[args.id]
    count, instances = _expand_instances(args, entry)
    first = next(instances, None)
    if first is None:
        print("no admissible instances in the requested ranges",
              file=sys.stderr)
        return USAGE_EXIT
    payloads = ((args.id, p, cfg) for p in chain([first], instances))
    # every worker is forked at once, each for _PER_WORKER instances or more
    jobs = max(1, min(args.jobs, os.cpu_count() or 1, count // _PER_WORKER))
    names = [n for n in entry.param_names if n != "convention"]
    n = fails = lhs_us = rhs_us = 0
    failures = []
    with ExitStack() as stack:
        # a bad --csv path is refused before the sweep runs, not after it
        try:
            rows = args.csv and csv.writer(
                stack.enter_context(open(args.csv, "w", newline="")))
        except OSError as exc:
            raise CotsumsError(f"cannot write {args.csv}: "
                               f"{exc.strerror or exc}") from None
        if rows:
            rows.writerow(csv_header(names))
        t0 = time.perf_counter()
        reports = map(_run_instance, payloads)
        if jobs > 1 and hasattr(os, "fork"):
            # a chunk is a run of at most 256 instances (ordered by k), so a
            # worker reuses its tables; 4 per worker balance the tail
            chunk = min(-(-count // (4 * jobs)), 256)
            reports = stack.enter_context(
                closing(_forked(payloads, jobs, chunk)))
        # each report is written, printed and tallied as it arrives
        for r in reports:
            n += 1
            if rows:
                rows.writerow(csv_row(r, names))
            if args.verbose or args.json:
                print(r.to_json() if args.json else
                      f"[{'PASS' if r.passed else 'FAIL'}] {r.id} "
                      f"{r.params} residual={r.residual} ({r.micros} us)")
            fails += not r.passed
            if not r.passed and fails <= 10:
                failures.append(r)
            residual = mpmath.mpf(r.residual)
            max_res = residual if n == 1 else max(max_res, residual)
            if r.lhs_micros is not None and r.rhs_micros:
                lhs_us += r.lhs_micros
                rhs_us += r.rhs_micros
        elapsed = time.perf_counter() - t0
    print(f"sweep {args.id}: {n} instances, {n - fails} pass, {fails} fail")
    print(f"max residual {mpmath.nstr(max_res, 6)}; total "
          f"{elapsed:.2f} s, mean {1e3 * elapsed / n:.2f} ms/instance")
    if rhs_us:                  # each timed rhs_micros is positive
        print(f"exact-side {lhs_us} us vs closed-form {rhs_us} us: "
              f"ratio {lhs_us / rhs_us:.1f}x")
    for r in failures:
        print(f"  FAIL {r.params}: residual {r.residual} "
              f"(tolerance {r.tolerance}){'; ' + r.note if r.note else ''}")
    return FAIL_EXIT if fails else 0


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
    except (MemoryError, OverflowError) as exc:
        # the backstop for a size no work-limit charge counts yet
        name = getattr(args, "target", None) or args.id
        cause = ("ran out of memory" if isinstance(exc, MemoryError)
                 else f"overflowed: {exc}")
        print(f"error: {args.command} {name} {cause}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
