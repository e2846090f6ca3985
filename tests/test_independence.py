"""No closed side may be the transform of its own defining map.

With the direct transform disabled, every identity whose closed side is a
finite trig sum or a product of closed-form transforms must still verify.
A closed side rebuilt as dft(defining map) would raise here instead.
"""

import pytest

from cotsums import periodic, registry
from cotsums.registry import verify

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
