"""The identity registry: every verifiable identity, keyed by a stable id.

Each identity is one data row: its id, the anchor (the formula under test,
in ASCII), a parameter schema with defaults, the precondition text and the
ordered rules that enforce it, and its exact and closed sides as callables.
One comparison builds the report from what the closed side returns: a
PeriodicMap is compared with the exact map at the worst index; a (partial
sum, tail bound) pair passes against that bound; any other value is
compared with the exact value. A check whose exact side is exact and whose
closed side is numeric records the time of each side, so sweeps report the
exact-vs-closed cost ratio. A row's `more` gives further closed sides
(remark1's full-range form), and the residual is then the max over every
pair of sides; its `derived` gives the params its report adds (th1's
drawn multipliers). parseval, cor1 and cor2 are th1's two sides at m = 2.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import mpmath

from . import periodic, sums, zeta
from .config import RunConfig
from .errors import (K_EVEN, K_ODD, K_POSITIVE, R_POSITIVE, TERMS_POSITIVE,
                     OutOfRange, all_coprime, check, choice, coprime, given,
                     holds_ints, parity, require)
from .exact import units_mod
from .hp import is_exact
from .periodic import (PeriodicMap, dft, map_max_residual, random_even_map,
                       random_odd_map, random_rational_map)
from .report import IdentityReport, build_report

# the list parameters, each checked non-empty in this order
_LISTS = ("rs", "hs")


class IdentityEntry(NamedTuple):
    id: str
    anchor: str
    param_names: tuple         # in the order of report params and CSV columns
    precondition: str
    rules: tuple = ()          # checked in order, after k >= 1, lists non-empty
    defaults: dict = {}        # shared, never mutated: verify copies it
    # the two sides, (config, **params) -> lhs / rhs (see the module doc)
    exact: Callable | None = None
    closed: Callable | None = None
    note: str | Callable = ""  # or a function of (params, *more values)
    more: tuple = ()           # further closed sides, as exact and closed
    derived: Callable = lambda params: {}   # the params the report adds

    def validate(self, params: dict) -> None:
        """Raise the first violated precondition, naming its condition."""
        K_POSITIVE(params)
        for name in _LISTS:
            if name in self.param_names:
                check((holds_ints(name),), values=params[name],
                      text=params[name])
        check(self.rules, **params)

    def check(self, params: dict, config: RunConfig) -> IdentityReport:
        """Run the identity on parameters that passed validate(): the one
        comparison of its sides (see the module doc)."""
        args = {name: params[name] for name in self.param_names}
        params = {**params, **self.derived(params)}
        lhs, lhs_us = _timed(lambda: self.exact(config, **args))
        rhs, rhs_us = _timed(lambda: self.closed(config, **args))
        more = [side(config, **args) for side in self.more]
        note = self.note(params, *more) if callable(self.note) else self.note
        residual = tolerance = None
        if isinstance(rhs, PeriodicMap):
            residual, where = map_max_residual(lhs, rhs, config.precision)
            lhs, rhs = lhs.values[where], rhs.values[where]
            note = "; ".join(filter(None, (note, f"worst index n={where}")))
        elif isinstance(rhs, tuple):            # (partial sum, tail bound)
            rhs, tolerance = rhs
            note = f"{note} = {mpmath.nstr(tolerance, 6)}"
        rep = build_report(self.id, self.anchor, params, lhs, rhs, config,
                           note, residual, tolerance, more)
        if is_exact(lhs) and not is_exact(rhs):
            rep.lhs_micros, rep.rhs_micros = lhs_us, rhs_us
        return rep


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, int((time.perf_counter() - t0) * 1e6)


@lru_cache(maxsize=64)
def _seeded_maps(k, seed, count, kind="rational"):
    """Drawn once for both sides of a row; a PeriodicMap is immutable."""
    maker = {"rational": random_rational_map, "odd": random_odd_map,
             "even": random_even_map}[kind]
    return tuple(maker(k, seed * 1000003 + i) for i in range(count))


@lru_cache(maxsize=64)
def _seeded_units(k, m, seed):
    """th1's m multipliers, units mod k, drawn once for both sides."""
    rng = random.Random(seed ^ 0x5EED)
    units = units_mod(k)
    return tuple(rng.choice(units) for _ in range(m))


def _chain(c, k, seed, hs, kind="rational"):
    """th1's exact side over the seeded maps at the multipliers hs."""
    k = periodic.charge_chain(k, len(hs), c.work_limit)     # before the maps
    return periodic.constrained_product_sum(
        _seeded_maps(k, seed, len(hs), kind), hs, c.work_limit)


def _spectral(c, k, seed, hs, kind="rational"):
    """th1's transform side over the same maps and multipliers."""
    return periodic.spectral_product_sum(
        _seeded_maps(k, seed, len(hs), kind), hs, c.precision, c.work_limit)


def _transform_sides(kind):
    """The sides of a transform row: the DFT of the family's defining map,
    and the family's stated closed form."""
    def exact(c, k, convention=None, **order):
        return dft(periodic.defining_map(kind, k, **order), c.precision,
                   c.work_limit)

    def closed(c, k, convention="corrected", **order):
        return periodic.closed_form_dft(kind, k, c.precision, **order,
                                        variant=convention)
    return {"exact": exact, "closed": closed}


def _th2_note(params):
    k, m = params["k"], len(params["hs"])
    if m % 2:
        return "odd m: both sides vanish; exact side checked against 0"
    return (f"exact side {k}^{m - 1} = {k ** (m - 1)} product terms, "
            f"trig side {max(k - 1, 0)}")


# --- the identities ---------------------------------------------------------


_PAIR = ("k", "h1", "h2")
_ONE = ("k", "h")
_TUPLE = ("k", "hs")
_SEEDED = ("k", "seed")

REGISTRY: dict[str, IdentityEntry] = {e.id: e for e in [
    IdentityEntry(
        "eq1", "s(h,k) = (1/4k) sum_{a=1}^{k-1} cot(pi a/k) cot(pi a h/k)",
        ("h", "k"), "gcd(h,k) = 1, k >= 1", (coprime("h"),),
        exact=lambda c, h, k: sums.dedekind_sum(h, k, c.work_limit),
        closed=lambda c, h, k: sums.dedekind_cot(h, k, c.precision)),
    IdentityEntry(
        "eq2", "s(h,k) = (1/2pi) sum_{r>=1, k !| r} cot(pi r h/k)/r",
        ("h", "k", "terms"),
        "gcd(h,k) = 1; pass measured against the computed tail bound",
        (coprime("h"), TERMS_POSITIVE), {"terms": sums.TERMS},
        exact=lambda c, h, k, terms: sums.dedekind_sum(h, k, c.work_limit),
        closed=lambda c, h, k, terms: sums.dedekind_series(
            h, k, terms, c.precision, c.work_limit),
        note="pass is against the computed tail bound C(k)/N"),
    IdentityEntry(
        "parseval", "sum_a f1(a) f2(-a) = (1/k) sum_a DFT[f1](a) DFT[f2](a)",
        _SEEDED, "k >= 1; seeded random exact maps", defaults={"seed": 1},
        # th1 at hs = (1, 1)
        exact=lambda c, k, seed: _chain(c, k, seed, (1, 1)),
        closed=lambda c, k, seed: _spectral(c, k, seed, (1, 1))),
    IdentityEntry(
        "th1", "sum over a_1+...+a_m = 0 (mod k) of prod f_j(a_j h_j) "
               "= (1/k) sum_a prod DFT[f_j](a h_j')",
        ("k", "m", "seed"),
        "k >= 1, 1 <= m <= 8; seeded maps and coprime multipliers",
        (require(lambda p: 1 <= p["m"] <= 8, OutOfRange,
                 "m must be in 1..8, got {m}"),),
        {"m": 2, "seed": 1},
        exact=lambda c, k, m, seed: _chain(c, k, seed,
                                           _seeded_units(k, m, seed)),
        closed=lambda c, k, m, seed: _spectral(c, k, seed,
                                               _seeded_units(k, m, seed)),
        derived=lambda p: {"hs": _seeded_units(p["k"], p["m"], p["seed"])}),
    IdentityEntry(
        "cor1", "sum_a f1(a h1) f2(a h2) "
                "= (1/k) sum_a DFT[f1](-a h2) DFT[f2](a h1)",
        (*_PAIR, "seed"), "gcd(h1,k) = gcd(h2,k) = 1",
        (coprime("h1", "h2"),), {"seed": 1},
        # th1 at hs = (h1, -h2); a -> -a h1 h2 gives the stated form
        exact=lambda c, k, h1, h2, seed: _chain(c, k, seed, (h1, -h2)),
        closed=lambda c, k, h1, h2, seed: _spectral(c, k, seed, (h1, -h2))),
    IdentityEntry(
        "cor2", "sum_a f1(a h1) f2(a h2) "
                "= ((-1)^s/k) sum_a DFT[f1](a h2) DFT[f2](a h1)",
        (*_PAIR, "seed", "parity"),
        "gcd(h_i,k) = 1; both maps share the declared parity",
        (coprime("h1", "h2"), choice("parity", ("odd", "even"))),
        {"seed": 1, "parity": "odd"},
        # cor1 with fhat(-n) = (-1)^s fhat(n): (-1)^s times th1's
        # transform side at (h1, h2), the sign applied without rounding
        exact=lambda c, k, h1, h2, seed, parity: _chain(c, k, seed, (h1, -h2),
                                                        parity),
        closed=lambda c, k, h1, h2, seed, parity: mpmath.fmul(
            _spectral(c, k, seed, (h1, h2), parity),
            -1 if parity == "odd" else 1, exact=True),
        note=lambda p: "sign (-1)^s with s=1 for odd maps, 0 for even; "
                       f"{p['parity']} maps used"),
    IdentityEntry(
        "lemma1-i", "DFT[((n/k))](n) = (i/2) cot(pi n/k) off multiples of k, "
                    "0 at them",
        ("k",), "k >= 1", **_transform_sides("sawtooth")),
    IdentityEntry(
        "lemma1-ii", "DFT[B_r({n/k})](n) = r k^(1-r) (i/2)^r "
                     "cot^(r-1)(pi n/k) off multiples, B_r k^(1-r) at them",
        ("k", "r", "convention"),
        "k >= 1, r >= 1; r = 1 exact only under convention=corrected",
        (R_POSITIVE,),
        {"r": 2, "convention": "corrected"}, **_transform_sides("bernoulli"),
        note=lambda p: (
            "stated closed form omits the constant -1/2 off multiples of k "
            "for r = 1; residual reported, not asserted"
            if p["r"] == 1 and p["convention"] == "paper" else "")),
    IdentityEntry(
        "lemma1-iii", "DFT[(-1)^n ((n/k))](n) = -(i/2) tan(pi n/k), "
                      "0 at n = k/2 (k even)",
        ("k",), "k even", (K_EVEN,), **_transform_sides("alt-sawtooth")),
    IdentityEntry(
        "lemma1-iv",
        "DFT[(-1)^(n mod k), 0 at k|n](n) = i tan(pi n/k) (k odd)",
        ("k",), "k odd", (K_ODD,), **_transform_sides("alt-sign")),
    IdentityEntry(
        "lemma1-v", "DFT[F(s, n/k)](n) = k^(1-s) zeta(s,{n/k}) off "
                    "multiples, k^(1-s) zeta(s) at them",
        ("k", "s"), "k >= 1, Re s > 1",
        (zeta.re_above_one("s"),),
        {"s": "2"},
        exact=lambda c, k, s: dft(
            zeta.periodic_zeta_map(s, k, c.precision, c.work_limit),
            c.precision, c.work_limit),
        closed=lambda c, k, s: zeta.periodic_zeta_dft_map(
            s, k, c.precision, c.work_limit)),
    IdentityEntry(
        "th2", "zero-sum sawtooth product sum = ((-1)^(m/2)/(2^m k)) "
               "sum_{a=1}^{k-1} prod_j cot(pi a h_j'/k)",
        _TUPLE, "all gcd(h_j,k) = 1; even m compares with the cot form, odd "
                "m checks the exact zero",
        (all_coprime,),
        exact=lambda c, k, hs: sums.zagier_sum(hs, k, c.work_limit),
        closed=lambda c, k, hs: (sums.zagier_cot(hs, k, c.precision)
                                 if len(hs) % 2 == 0 else Fraction(0)),
        note=_th2_note),
    IdentityEntry(
        "cor3", "sum_{a=1}^{k-1} ((a h1/k))((a h2/k)) "
                "= (1/4k) sum_a cot(pi a h1/k) cot(pi a h2/k)",
        _PAIR, "gcd(h_i,k) = 1", (coprime("h1", "h2"),),
        exact=lambda c, k, h1, h2: sums.homogeneous_pair_sum(
            h1, h2, k, c.work_limit),
        closed=lambda c, k, h1, h2: sums.homogeneous_pair_cot(
            h1, h2, k, c.precision)),
    IdentityEntry(
        "th4", "zero-sum Bernoulli product sum = prod_j B_{r_j} / k^(A-m+1) "
               "+ ((-1)^(A/2) prod_j r_j/(2^A k^(A-m+1))) "
               "sum_a prod_j cot^(r_j-1)(pi a h_j'/k), A = sum r_j even",
        ("k", "rs", "hs", "convention"),
        "A = sum r_j even; all gcd(h_j,k) = 1", sums.BERNOULLI_RHS,
        {"convention": "corrected"},
        exact=lambda c, k, rs, hs, convention: sums.bernoulli_dedekind_sum(
            rs, hs, k, c.work_limit),
        closed=lambda c, k, rs, hs, convention: sums.bernoulli_dedekind_rhs(
            rs, hs, k, c.precision, convention),
        note=lambda p: (
            "closed form is exact only for all r_j >= 2; with some r_j = 1 "
            "the r=1 transform gap makes it differ (documented mismatch, "
            "reported not asserted)"
            if p["convention"] == "paper" and 1 in p["rs"] else "")),
    IdentityEntry(
        "cor5", "sum_{a mod k} B_r1({a h1/k}) B_r2({a h2/k}) = "
                "B_r1 B_r2/k^(A-1) + ((-1)^((r1-r2)/2) r1 r2/(2^A k^(A-1))) "
                "sum_a cot^(r1-1)(pi a h2/k) cot^(r2-1)(pi a h1/k)",
        ("k", "r1", "r2", "h1", "h2", "convention"),
        "r1 + r2 even; gcd(h_i,k) = 1", sums.BERNOULLI_PAIR_RHS,
        {"convention": "corrected"},
        exact=lambda c, k, r1, r2, h1, h2, convention: sums.bernoulli_pair_sum(
            r1, r2, h1, h2, k, c.work_limit),
        closed=lambda c, k, r1, r2, h1, h2, convention: (
            sums.bernoulli_pair_rhs(r1, r2, h1, h2, k, c.precision,
                                    convention)),
        note=lambda p: (
            "cot^(r1-1) attached to h2 (transform-derived pairing; the "
            "printed source pairing r1<->h1 fails for r1 != r2)"
            + ("; r = 1 closed-form gap applies"
               if p["convention"] == "paper" and 1 in (p["r1"], p["r2"])
               else ""))),
    IdentityEntry(
        "th5", "A(h_1,...,h_m; k) = ((-1)^(m/2-1)/(2^m k)) "
               "sum_{a != k/2} tan(pi a h_1'/k) prod_{j>=2} cot(pi a h_j'/k)",
        _TUPLE, "k even, m even, h1 odd, all gcd(h_j,k) = 1",
        sums.HARDY_A_RHS,
        exact=lambda c, k, hs: sums.hardy_A(hs, k, c.work_limit),
        closed=lambda c, k, hs: sums.hardy_A_rhs(hs, k, c.precision)),
    IdentityEntry(
        "cor6", "sum_{a=1}^{k-1} (-1)^a ((a h1/k))((a h2/k)) = -(1/4k) "
                "sum_{a != k/2} tan(pi a h2/k) cot(pi a h1/k)",
        _PAIR, "k even, h1 odd, gcd(h_i,k) = 1", sums.ALT_PAIR_RHS,
        exact=lambda c, k, h1, h2: sums.alt_pair_sum(h1, h2, k,
                                                     c.work_limit),
        closed=lambda c, k, h1, h2: sums.alt_pair_rhs(h1, h2, k,
                                                      c.precision)),
    IdentityEntry(
        "cor7", "s2(h,k) = -(1/4k) sum_{a != k/2} tan(pi a h/k) cot(pi a/k)",
        _ONE, "k even, gcd(h,k) = 1", (K_EVEN, coprime("h")),
        exact=lambda c, k, h: sums.hardy_sum("s2", h, k,
                                              work_limit=c.work_limit),
        closed=lambda c, k, h: sums.alt_pair_rhs(1, h, k, c.precision)),
    IdentityEntry(
        "th7", "B(h_1,...,h_m; k) = ((-1)^(m/2)/(2^(m-1) k)) "
               "sum_{a=1}^{k-1} tan(pi a h_1'/k) prod_{j>=2} cot(pi a h_j'/k)",
        _TUPLE, "k odd, m even, all gcd(h_j,k) = 1", sums.HARDY_B_RHS,
        exact=lambda c, k, hs: sums.hardy_B(hs, k, c.work_limit),
        closed=lambda c, k, hs: sums.hardy_B_rhs(hs, k, c.precision)),
    IdentityEntry(
        "cor8", "sum_{a=1}^{k-1} (-1)^(a + floor(a h1/k)) ((a h2/k)) "
                "= (1/2k) sum_a tan(pi a h2/k) cot(pi a h1/k)",
        _PAIR, "k odd, h1 odd, gcd(h_i,k) = 1",
        (K_ODD, parity("h1", "odd"), coprime("h1", "h2")),
        exact=lambda c, k, h1, h2: sums.floor_pair_sum(h1, h2, k, True,
                                                       c.work_limit),
        closed=lambda c, k, h1, h2: sums.tan_cot_pair_rhs(h1, h2, k,
                                                          c.precision)),
    IdentityEntry(
        "cor9-s3", "s3(h,k) = (1/2k) sum_{a=1}^{k-1} tan(pi a h/k) cot(pi a/k)",
        _ONE, "k odd, gcd(h,k) = 1", (K_ODD, coprime("h")),
        exact=lambda c, k, h: sums.hardy_sum("s3", h, k,
                                              work_limit=c.work_limit),
        closed=lambda c, k, h: sums.tan_cot_pair_rhs(1, h, k, c.precision)),
    IdentityEntry(
        "cor9-s5", "s5(h,k) = (1/2k) sum_{a=1}^{k-1} tan(pi a/k) cot(pi a h/k)",
        _ONE, "k odd, h odd, gcd(h,k) = 1",
        (K_ODD, coprime("h"), parity("h", "odd")),
        exact=lambda c, k, h: sums.hardy_sum("s5", h, k,
                                              work_limit=c.work_limit),
        closed=lambda c, k, h: sums.tan_cot_pair_rhs(h, 1, k, c.precision)),
    IdentityEntry(
        "cor10", "sum_{a=1}^{k-1} (-1)^floor(a h1/k) ((a h2/k)) "
                 "= (1/2k) sum_a tan(pi a h2/k) cot(pi a h1/k)",
        _PAIR, "k odd, h1 even, gcd(h_i,k) = 1",
        (K_ODD, parity("h1", "even"), coprime("h1", "h2")),
        exact=lambda c, k, h1, h2: sums.floor_pair_sum(h1, h2, k, False,
                                                       c.work_limit),
        closed=lambda c, k, h1, h2: sums.tan_cot_pair_rhs(h1, h2, k,
                                                          c.precision)),
    IdentityEntry(
        "cor11", "s1(h,k) = (1/2k) sum_{a=1}^{k-1} tan(pi a/k) cot(pi a h/k)",
        _ONE, "k odd, h even, gcd(h,k) = 1",
        (K_ODD, parity("h", "even"), coprime("h")),
        exact=lambda c, k, h: sums.hardy_sum("s1", h, k,
                                              work_limit=c.work_limit),
        closed=lambda c, k, h: sums.tan_cot_pair_rhs(h, 1, k, c.precision)),
    IdentityEntry(
        "eq14", "sum_{a=1}^{k-1} (-1)^((a h1 mod k)+(a h2 mod k)) "
                "= (1/k) sum_a tan(pi a h1/k) tan(pi a h2/k)",
        _PAIR, "k odd, gcd(h_i,k) = 1", sums.ODD_PAIR,
        exact=lambda c, k, h1, h2: sums.alt_sign_pair_sum(h1, h2, k,
                                                          c.work_limit),
        closed=lambda c, k, h1, h2: sums.tan_pair_mean(h1, h2, k,
                                                       c.precision),
        note="exponent reduces each a*h_i mod k separately "
             "(the transform-derived reading)"),
    IdentityEntry(
        "tan-sq", "sum_{a=1}^{k-1} tan^2(pi a/k) = k^2 - k (k odd)",
        ("k",), "k odd", (K_ODD,),
        exact=lambda c, k: k * k - k,
        closed=lambda c, k: sums.tan_square_sum(k, c.precision)),
    IdentityEntry(
        "remark1", "s1(h,k) = (1/k) sum_{j=1}^{(k-1)/2} tan(pi j/k) "
                   "cot(pi h j/k) = full-range form",
        _ONE, "k odd, h even, gcd(h,k) = 1", sums.S1_HALF_RANGE,
        exact=lambda c, k, h: sums.hardy_sum("s1", h, k,
                                              work_limit=c.work_limit),
        closed=lambda c, k, h: sums.s1_half_range(h, k, c.precision),
        more=(lambda c, k, h: sums.tan_cot_pair_rhs(h, 1, k, c.precision),),
        note=lambda p, full: f"full-range form = {mpmath.nstr(full, 12)}; "
                             "residual is the max over the three pairings"),
    IdentityEntry(
        "th9", "sum_{a=1}^{k-1} zeta(s1,{a h1/k}) zeta(s2,{a h2/k}) = "
               "(k^(s1+s2-1)-1) zeta(s1) zeta(s2) + k^(s1+s2-1) "
               "sum_a F(s1, a h2/k) F(s2, -a h1/k)",
        (*_PAIR, "s1", "s2"),
        "gcd(h_i,k) = 1, Re s1 > 1, Re s2 > 1",
        (coprime("h1", "h2"), zeta.re_above_one("s1"), zeta.re_above_one("s2")),
        {"s1": "2", "s2": "3"},
        exact=lambda c, k, h1, h2, s1, s2: zeta.mikolas_lhs(
            s1, s2, h1, h2, k, c.precision, c.work_limit),
        closed=lambda c, k, h1, h2, s1, s2: zeta.mikolas_rhs(
            s1, s2, h1, h2, k, c.precision, c.work_limit)),
    IdentityEntry(
        "lemma3-a", "S(f) = sum_{r>=1} f(r)/r "
                    "= (pi/2k) sum_{r=1}^{k-1} f(r) cot(pi r/k)",
        (*_SEEDED, "terms"),
        "seeded random odd map; pass against the series tail bound",
        (TERMS_POSITIVE,), {"seed": 1, "terms": sums.TERMS},
        exact=lambda c, k, seed, terms: zeta.cot_form(random_odd_map(k, seed),
                                                      c.precision),
        closed=lambda c, k, seed, terms: zeta.series_partial(
            random_odd_map(k, seed), terms, c.precision, c.work_limit),
        note="truncated series vs finite form; pass is against the tail "
             "bound k*max|f|/N"),
    IdentityEntry(
        "lemma3-b", "(pi/2k) sum_r f(r) cot(pi r/k) "
                    "= -(pi i/k^2) sum_{r=1}^{k-1} r DFT[f](r)",
        _SEEDED, "seeded random odd map", defaults={"seed": 1},
        exact=lambda c, k, seed: zeta.cot_form(random_odd_map(k, seed),
                                               c.precision),
        closed=lambda c, k, seed: zeta.spectral_form(random_odd_map(k, seed),
                                                     c.precision)),
    IdentityEntry(
        "lehmer-th8", "S(f) = sum_{r=1}^{k} f(r) gamma(r,k) "
                      "(zero period-sum required)",
        _SEEDED, "seeded random odd map (zero period-sum holds)",
        defaults={"seed": 1},
        exact=lambda c, k, seed: zeta.cot_form(random_odd_map(k, seed),
                                               c.precision),
        closed=lambda c, k, seed: zeta.lehmer_form(random_odd_map(k, seed),
                                                   c.precision)),
    IdentityEntry(
        "cor12", "S(f) = -(1/k) sum_{r=1}^{k-1} DFT[f](r) F(1, -r/k)",
        _SEEDED, "seeded random odd map", defaults={"seed": 1},
        exact=lambda c, k, seed: zeta.cot_form(random_odd_map(k, seed),
                                               c.precision),
        closed=lambda c, k, seed: zeta.zeta_form(random_odd_map(k, seed),
                                                 c.precision)),
    IdentityEntry(
        "gamma-dft", "DFT[r -> gamma(r,k)](n) = F(1, -n/k) off multiples of "
                     "k, Euler's constant at them",
        ("k",), "k >= 1",
        # the k^2 products are charged before the k digammas are made
        exact=lambda c, k: dft(zeta.gamma_map(periodic.charge_dft(
            k, c.work_limit), c.precision), c.precision, c.work_limit),
        closed=lambda c, k: zeta.gamma_dft_map(k, c.precision)),
]}


_KNOWN_ID = choice("id", REGISTRY)


def verify(identity_id: str, params: dict, config: RunConfig | None = None
           ) -> IdentityReport:
    """Validate parameters against the identity's preconditions and run it."""
    check((_KNOWN_ID,), id=identity_id)
    entry = REGISTRY[identity_id]
    config = config or RunConfig()
    config.validate()
    full = dict(entry.defaults)
    full.update({k: v for k, v in params.items() if v is not None})
    check((given(identity_id, entry.param_names), entry.validate), **full)
    t0 = time.perf_counter()
    rep = entry.check(full, config)
    rep.micros = int((time.perf_counter() - t0) * 1e6)
    return rep
