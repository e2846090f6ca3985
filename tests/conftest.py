import mpmath
import pytest
from mpmath import mpf, mpmathify, workprec

TOL_DEFAULT = mpf(2) ** -128
TOL_100 = mpf(2) ** -100


def residual(a, b, bits: int = 256) -> mpf:
    with workprec(bits + 16):
        return abs(mpmathify(a) - mpmathify(b))


def assert_close(a, b, tol=TOL_DEFAULT, bits: int = 256):
    r = residual(a, b, bits)
    assert r < tol, f"residual {mpmath.nstr(r, 8)} >= {mpmath.nstr(mpf(tol), 8)}"


@pytest.fixture(scope="session")
def hp_pi():
    with workprec(300):
        return +mpmath.pi
