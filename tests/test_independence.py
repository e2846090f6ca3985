"""The two sides of an identity stay separate computations.

No closed side may be the transform of its own defining map: with the
direct transform disabled, every identity whose closed side is a finite
trig sum or a product of closed-form transforms must still verify. A closed
side rebuilt as dft(defining map) would raise here instead.

No exact side may use the trig layer or a transform: with the closed-form
kernel, the cot/tan tables and dft disabled, every exact side must still
return its value.
"""

import pytest

from cotsums import periodic, registry, sums, trig, zeta
from cotsums.config import RunConfig
from cotsums.registry import REGISTRY, verify

INSTANCES = {
    "eq1": {"h": 5, "k": 17},
    "cor3": {"k": 13, "h1": 3, "h2": 5},
    "th2": {"k": 7, "hs": (1, 2, 3, 4)},
    "th4": {"k": 7, "rs": (1, 3), "hs": (2, 3)},
    "cor5": {"k": 7, "r1": 2, "r2": 4, "h1": 2, "h2": 3},
    "th5": {"k": 8, "hs": (3, 1, 5, 7)},
    "cor6": {"k": 12, "h1": 5, "h2": 7},
    "cor7": {"k": 14, "h": 3},
    "th7": {"k": 9, "hs": (2, 4, 5, 7)},
    "cor8": {"k": 11, "h1": 3, "h2": 4},
    "cor9-s3": {"k": 15, "h": 4},
    "cor9-s5": {"k": 13, "h": 5},
    "cor10": {"k": 9, "h1": 4, "h2": 5},
    "cor11": {"k": 11, "h": 4},
    "eq14": {"k": 9, "h1": 2, "h2": 5},
    "tan-sq": {"k": 21},
    "remark1": {"k": 13, "h": 6},
}


@pytest.fixture
def no_dft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed side called dft")

    monkeypatch.setattr(periodic, "dft", refuse)
    monkeypatch.setattr(registry, "dft", refuse)


@pytest.mark.parametrize("identity,params", INSTANCES.items(),
                         ids=list(INSTANCES))
def test_closed_side_needs_no_dft(no_dft, identity, params):
    assert verify(identity, params).passed


# exact parts of the identities whose report is built by a checker
CHECKER_EXACT = {
    "remark1": lambda: sums.hardy_sum("s1", 6, 13),
    "eq2": lambda: sums.dedekind_sum(3, 7),
}


def _exact_side(identity):
    if identity in CHECKER_EXACT:
        return CHECKER_EXACT[identity]()
    entry = REGISTRY[identity]
    return entry.exact(RunConfig(), **entry.defaults, **INSTANCES[identity])


@pytest.mark.parametrize("identity", [
    *(ident for ident in INSTANCES if REGISTRY[ident].exact is not None),
    *CHECKER_EXACT])
def test_exact_side_needs_no_trig(monkeypatch, identity):
    expected = _exact_side(identity)

    def refuse(*args, **kwargs):
        raise AssertionError("an exact side called the trig layer or dft")

    for module, name in [(trig, "trig_product_sum"), (sums, "trig_product_sum"),
                         (trig, "cot_table"), (trig, "tan_table"),
                         (periodic, "dft"), (registry, "dft")]:
        monkeypatch.setattr(module, name, refuse)
    assert _exact_side(identity) == expected


@pytest.mark.parametrize("identity,name", [
    ("cor12", "euler_gamma_table"), ("lemma3-a", "euler_gamma_table"),
    ("lemma3-b", "euler_gamma_table"), ("lehmer-th8", "dft"),
    ("lemma3-a", "dft")])
def test_series_form_builds_only_its_own_tables(monkeypatch, identity, name):
    # each S(f) check computes its two forms alone: cor12 and lemma3-* build
    # no Euler-gamma table, and the cot, Lehmer and series sides no transform
    def refuse(*args, **kwargs):
        raise AssertionError(f"{identity} called zeta.{name}")

    monkeypatch.setattr(zeta, name, refuse)
    assert verify(identity, {"k": 11, "seed": 3}).passed
