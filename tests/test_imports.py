"""Every name a module of the package imports is used in that module; no
slow module is imported; the lower layers import no upper one; one place
builds every report; each independent side builds its own roots of unity;
B_r has one source; each pair closed form is its theorem's; each Hardy sum
is its corollary's pair sum; and one rule raises every work-limit
refusal."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cotsums"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source (`from
    __future__` excepted) that no other part of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os, mpmath.libmp\n"
              "from math import gcd, lcm as least\nprint(mpmath, gcd)\n")
    assert unused_imports(source) == ["os", "least"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# ~11 ms of start-up per process: dataclasses imports inspect, which
# imports ast, dis and tokenize
SLOW_TO_IMPORT = {"dataclasses", "inspect"}


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that source imports."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_check_sees_a_slow_import():
    source = ("import inspect as i, os.path\nfrom dataclasses import field\n"
              "from . import report\n")
    assert imported_modules(source) == {"inspect", "os", "dataclasses"}


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_no_slow_imports(module):
    source = (PACKAGE / module).read_text()
    assert imported_modules(source) & SLOW_TO_IMPORT == set()


# the layers below zeta read no module above them: the transform maps of
# periodic take tables from trig, and F's pair is zeta's own
LOWER = ["errors.py", "exact.py", "hp.py", "trig.py", "periodic.py"]
UPPER = {"zeta", "sums", "registry", "report", "config", "cli"}


def package_imports(source: str) -> set[str]:
    """The modules of the package that source imports, relatively or as
    cotsums.name, at any depth of the tree (function bodies too)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("cotsums.")}
        elif isinstance(node, ast.ImportFrom):
            top, _, module = (node.module or "").partition(".")
            if node.level:                      # from . or from .name
                module = top
            elif top != "cotsums":
                continue
            names |= ({module} if module else {a.name for a in node.names})
    return names


def test_the_check_sees_a_package_import():
    source = ("import os, cotsums.sums\nfrom . import trig as t, hp\n"
              "from .exact import frac\nfrom cotsums import cli\n"
              "def f():\n    from .zeta import periodic_zeta_map\n"
              "    from cotsums.report import fmt\n")
    assert package_imports(source) == {"sums", "trig", "hp", "exact", "cli",
                                       "zeta", "report"}


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_no_upper_one(module):
    source = (PACKAGE / module).read_text()
    assert package_imports(source) & UPPER == set()


def callers(source: str, name: str) -> list[str]:
    """The dotted names of the functions of source that call name, as a
    bare name or an attribute, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_check_sees_a_caller():
    source = ("build_report(1)\nclass A:\n    def f(self):\n"
              "        return report.build_report(lambda: build_report())\n"
              "def g():\n    build = build_report\n")
    assert callers(source, "build_report") == ["<module>", "A.f", "A.f"]


def test_one_place_builds_every_report():
    # a row with its own report path would call build_report beside it
    found = [f"{module}:{caller}" for module in MODULES for caller in
             callers((PACKAGE / module).read_text(), "build_report")]
    assert found == ["registry.py:IdentityEntry.check"]


# the roots of unity each independent side builds for itself: the
# transform's, the trig tables' rotation and F's, which alone sums by fdot
ROOT_SOURCES = {
    "expjpi": ["periodic.py:dft", "trig.py:_half_turn",
               "zeta.py:_hurwitz_combination"],
    "fdot": ["zeta.py:_hurwitz_combination"],
}


def test_the_check_sees_a_root_source():
    source = ("def roots(k):\n"
              "    return [mpmath.expjpi(2 * j / k) for j in range(k)]\n"
              "class F:\n    def row(self, v, w):\n"
              "        return fdot(v, [expjpi(x) for x in w])\n"
              "ONE = expjpi(0)\n")
    assert callers(source, "expjpi") == ["roots", "F.row", "<module>"]
    assert callers(source, "fdot") == ["F.row"]


@pytest.mark.parametrize("name", sorted(ROOT_SOURCES))
def test_each_side_builds_its_own_roots(name):
    found = sorted(f"{module}:{caller}" for module in MODULES for caller in
                   callers((PACKAGE / module).read_text(), name))
    assert found == ROOT_SOURCES[name]


# B_r has one source, mpmath's exact bernfrac behind bernoulli_number; no
# module takes mpmath's rounded Bernoulli numbers or polynomials beside it
BERNOULLI_SOURCES = {
    "bernfrac": ["exact.py:bernoulli_number"],
    "bernoulli": [],
    "bernpoly": [],
}


@pytest.mark.parametrize("name", sorted(BERNOULLI_SOURCES))
def test_bernoulli_numbers_have_one_source(name):
    found = sorted(f"{module}:{caller}" for module in ["__init__.py", *MODULES]
                   for caller in callers((PACKAGE / module).read_text(), name))
    assert found == BERNOULLI_SOURCES[name]


# the functions that call the kernel themselves: each tuple form of a
# theorem and each sum that is no theorem's pair case. A pair form is its
# theorem's tuple form at (h1, -h2), and the registry's seeded pair rows
# read th1's two sides, so a factor list typed beside them shows here.
KERNEL_CALLERS = {
    "sums.py": ["bernoulli_dedekind_rhs", "hardy_A_rhs", "hardy_B_rhs",
                "s1_half_range", "tan_pair_mean", "tan_square_sum",
                "zagier_cot"],
    "registry.py": [],
}


def kernel_callers(source: str) -> list[str]:
    return sorted(set(callers(source, "trig_product_sum")))


def test_the_check_sees_a_kernel_call():
    source = ("def alt_pair_rhs(h1, h2, k):\n"
              "    return trig.trig_product_sum([(TAN, 0, h2)], k)\n"
              "def hardy_A_rhs(hs, k):\n"
              "    return trig_product_sum(f, k) + trig_product_sum(g, k)\n"
              "def tan_cot_pair_rhs(h1, h2, k):\n"
              "    return hardy_B_rhs((h1, -h2), k)\n"
              "ROW = lambda c: trig_product_sum(f, c.k)\n")
    assert kernel_callers(source) == ["<module>", "alt_pair_rhs",
                                      "hardy_A_rhs"]


@pytest.mark.parametrize("module", sorted(KERNEL_CALLERS))
def test_pair_closed_forms_call_their_theorems(module):
    assert (kernel_callers((PACKAGE / module).read_text())
            == KERNEL_CALLERS[module])


# each classical Hardy sum is its corollary's pair sum at fixed multipliers
# (cor7 is cor6's, cor9 and cor11 are cor8's and cor10's), so hardy_sum
# calls the pair sums and builds no sawtooth table beside them
HARDY_SUM_CALLS = {"alt_pair_sum": True, "floor_pair_sum": True,
                   "sawtooth_map": False}


@pytest.mark.parametrize("name,called", HARDY_SUM_CALLS.items(),
                         ids=HARDY_SUM_CALLS)
def test_each_hardy_sum_is_its_corollarys_pair_sum(name, called):
    found = callers((PACKAGE / "sums.py").read_text(), name)
    assert ("hardy_sum" in found) == called


def test_one_rule_raises_every_work_limit_refusal():
    found = sorted(f"{module}:{caller}" for module in ["__init__.py", *MODULES]
                   for caller in callers((PACKAGE / module).read_text(),
                                         "WorkLimitExceeded"))
    assert found == ["errors.py:charge"]
