"""The residual a report states is |lhs - rhs| of the two sides it got."""

import mpmath
import pytest
from mpmath import mpc, workprec

from cotsums import registry
from cotsums.registry import verify


@pytest.mark.parametrize("identity,params,complex_rhs", [
    ("eq1", {"h": 3001, "k": 2000}, False),
    ("cor9-s3", {"h": 18, "k": 37}, False),
    ("th4", {"k": 7, "rs": (1, 3), "hs": (2, 3)}, True),
    ("th4", {"k": 101, "rs": (2, 2, 2, 2), "hs": (1, 2, 3, 4)}, True),
])
def test_residual_is_the_exact_gap(monkeypatch, identity, params,
                                   complex_rhs):
    sides = []
    build = registry.build_report

    def spy(identity_id, anchor, params, lhs, rhs, *rest, **kw):
        sides.append((lhs, rhs))
        return build(identity_id, anchor, params, lhs, rhs, *rest, **kw)

    monkeypatch.setattr(registry, "build_report", spy)
    report = verify(identity, params)
    (lhs, rhs), = sides
    assert isinstance(rhs, mpc) == complex_rhs
    # the rhs is a binary value, exact at any wider precision
    with workprec(4000):
        gap = abs(mpmath.mpmathify(lhs) - rhs)
    assert gap > 0
    assert report.residual == mpmath.nstr(gap, 10)
