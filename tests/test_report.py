"""The residual a report states is |lhs - rhs| of the two sides it got."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec
from mpmath.libmp import from_man_exp, to_rational

from cotsums import registry, report
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


def fraction_gap_residual(lhs, rhs):
    """The residual as a Fraction gap, the reference for the integer one."""
    re = rhs.real if isinstance(rhs, mpc) else rhs
    if isinstance(lhs, (int, Fraction)) and mpmath.isfinite(re):
        gap = mpmath.mpmathify(lhs - Fraction(*to_rational(re._mpf_)))
        return abs(mpc(gap, rhs.imag) if isinstance(rhs, mpc) else gap)
    return abs(mpmath.mpmathify(lhs) - mpmath.mpmathify(rhs))


# binary values man * 2^exp, exact at any precision, exponents of both signs
binary = st.builds(lambda man, exp: mpmath.mp.make_mpf(from_man_exp(man, exp)),
                   st.integers(-2 ** 1100, 2 ** 1100),
                   st.integers(-1200, 1200))
exact_side = st.one_of(st.integers(), st.fractions(), st.just(0),
                       st.integers(max_value=-1))


@pytest.mark.parametrize("bits", [64, 256, 1000])
@given(lhs=exact_side, rhs=st.one_of(binary, st.builds(mpc, binary, binary)),
       near=st.booleans(), shift=st.integers(-80, 80))
@settings(max_examples=300, deadline=None)
def test_integer_residual_is_the_fraction_residual(bits, lhs, rhs, near,
                                                   shift):
    with workprec(bits):
        if near:    # rhs = lhs rounded, off by a binary value: a close gap
            rhs = mpmath.mpmathify(lhs) + rhs * mpf(2) ** (-bits - shift)
        got, want = report._residual(lhs, rhs), fraction_gap_residual(lhs, rhs)
    assert type(got) is type(want)
    assert got == want
    assert got._mpf_ == want._mpf_
