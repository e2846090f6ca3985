"""Run a command list in one process through ``cotsums.cli.main``.

    python perfbench/inproc.py plain|traced < commands.json

Reads a JSON list of argv lists on stdin and writes one JSON object to
stdout: the wall time of the whole list, each command's exit code and
reports, and, in ``traced`` mode, the per-layer self times and work counts.
The lru caches of the package are cleared before each command, so every
command starts as cold as a fresh CLI process.

Tracing wraps the public functions of each module from outside. Every
module attribute bound to a wrapped function is replaced, which covers the
names re-bound by ``from ... import`` (``sums.constrained_product_sum``,
``registry.dft``, ``zeta.dft``, ``cli.verify``, ...). A layer's self time is
its span time minus the time of the wrapped calls nested inside it. Work
counts are computed from the call arguments, and counted only on calls not
nested in a call of the same layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _width(a) -> int:
    """Factors per product term of a closed-form sum."""
    return len(a["hs"]) if "hs" in a else 2


# (layer, module, function or Class.method, work(counts, args, result))
SPECS = [
    ("exact", "sums", ["dedekind_sum", "hardy_sum", "homogeneous_pair_sum",
                       "bernoulli_pair_sum", "alt_pair_sum", "floor_pair_sum",
                       "alt_sign_pair_sum"],
     lambda c, a, r: c.update({"exact.terms": a["k"]})),
    # the zero-sum exact sides build one exact map per factor, then enumerate
    ("exact", "sums", ["zagier_sum", "bernoulli_dedekind_sum", "hardy_A",
                       "hardy_B"],
     lambda c, a, r: c.update({"exact.terms": a["k"] * len(a["hs"])})),
    ("periodic.enumerate", "periodic", ["constrained_product_sum"],
     lambda c, a, r: c.update({"periodic.enumerate.terms":
                               a["fs"][0].period ** (len(a["fs"]) - 1)})),
    ("periodic.dft", "periodic", ["dft"],
     lambda c, a, r: c.update({"periodic.dft.ops": a["f"].period ** 2})),
    ("periodic.maps", "periodic", ["spectral_product_sum", "closed_form_dft",
                                   "defining_map"], None),
    ("trig.table", "trig", ["cot_table", "tan_table"], None),
    ("trig.deriv", "trig", ["cot_deriv_at"], None),
    ("sums.closed", "sums", ["dedekind_cot", "zagier_cot",
                             "homogeneous_pair_cot", "bernoulli_dedekind_rhs",
                             "bernoulli_pair_rhs", "hardy_A_rhs", "hardy_B_rhs",
                             "alt_pair_rhs", "tan_cot_pair_rhs",
                             "tan_pair_mean", "tan_square_sum",
                             "s1_half_range"],
     lambda c, a, r: c.update({"sums.closed.products":
                               max(a["k"] - 1, 0) * _width(a)})),
    ("zeta.hurwitz", "zeta", ["hurwitz_zeta"], None),
    ("zeta.digamma", "zeta", ["digamma"], None),
    ("zeta.periodic", "zeta", ["periodic_zeta", "periodic_zeta_map",
                               "periodic_zeta_dft_map"], None),
    ("zeta.gamma_table", "zeta", ["euler_gamma_table"], None),
    ("zeta.forms", "zeta", ["mikolas_pair", "series_forms", "series_partial",
                            "gamma_map", "gamma_dft_map"], None),
    ("report", "report", ["build_report", "IdentityReport.to_json",
                          "IdentityReport.to_dict",
                          "IdentityReport.from_dict"], None),
    ("registry", "registry", ["verify"], None),
    ("cli", "cli", ["main"], None),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in SPECS))


class Tracer:
    """Spans kept in memory: self time and outermost calls per layer."""

    def __init__(self):
        self.stack: list[list] = []      # [layer, time of nested spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans_s: dict[str, list] = defaultdict(list)

    def wrap(self, layer: str, fn, work=None):
        sig = inspect.signature(fn) if work else None
        cached = hasattr(fn, "cache_info")
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            before = fn.cache_info() if cached else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if outer:
                counts[f"{layer}.calls"] += 1
                self.spans_s[layer].append(dt)
                if work:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work(counts, bound.arguments, result)
            if cached:
                after = fn.cache_info()
                counts[f"{layer}.hits"] += after.hits - before.hits
                missed = after.misses - before.misses
                counts[f"{layer}.misses"] += missed
                if missed:
                    counts[f"{layer}.entries"] += len(result)
            return result

        if cached:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "cotsums" or name.startswith("cotsums.")]


def install(tracer: Tracer) -> None:
    """Wrap every function in SPECS under every name that binds it; the
    package's __init__ has imported all of its modules."""
    modules = _package_modules()
    for layer, module, names, work in SPECS:
        mod = sys.modules[f"cotsums.{module}"]
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth,
                            classmethod(tracer.wrap(layer, raw.__func__, work)))
                else:
                    setattr(cls, meth, tracer.wrap(layer, raw, work))
                continue
            orig = getattr(mod, name)
            wrapped = tracer.wrap(layer, orig, work)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)


def _clear_caches() -> None:
    for m in _package_modules():
        for value in list(vars(m).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run(commands: list[list[str]], traced: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from cotsums import cli

    tracer = Tracer()
    if traced:
        install(tracer)
    results = []
    t0 = time.perf_counter()
    for argv in commands:
        _clear_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        results.append({"rc": rc, "stdout": out.getvalue()})
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "results": results,
            "self_s": dict(tracer.self_s), "counts": dict(tracer.counts),
            "verify_s": tracer.spans_s["registry"]}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("plain", "traced"):
        sys.exit("usage: inproc.py plain|traced < commands.json")
    out = run(json.load(sys.stdin), sys.argv[1] == "traced")
    sys.stdout.write(json.dumps(out))
