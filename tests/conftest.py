import numpy as np
import pytest

from unitalforge import gf, planar, unital as un
from unitalforge.plane import ShiftPlane


@pytest.fixture(scope="session")
def s9():
    return gf.split_new(gf.field_new(3, 2), 1)


@pytest.fixture(scope="session")
def s25():
    return gf.split_new(gf.field_new(5, 2), 1)


@pytest.fixture(scope="session")
def s81():
    return gf.split_new(gf.field_new(3, 4), 2)


@pytest.fixture(scope="session")
def s729():
    return gf.split_new(gf.field_new(3, 6), 3)


@pytest.fixture(scope="session")
def plane_q3(s9):
    return ShiftPlane(planar.square(s9))


@pytest.fixture(scope="session")
def plane_q5(s25):
    return ShiftPlane(planar.square(s25))


@pytest.fixture(scope="session")
def plane_cm81(s81):
    return ShiftPlane(planar.coulter_matthews(s81, 3))


@pytest.fixture(scope="session")
def unital_q3(plane_q3):
    return un.build_parabolic_unital(plane_q3, plane_q3.split.choose_theta())


@pytest.fixture(scope="session")
def unital_q5(plane_q5):
    return un.build_parabolic_unital(plane_q5, plane_q5.split.choose_theta())


@pytest.fixture(scope="session")
def unital_cm81(plane_cm81):
    return un.build_parabolic_unital(plane_cm81, plane_cm81.split.choose_theta())


@pytest.fixture(scope="session")
def classical_q3(s9):
    return un.build_classical_baseline(s9)


@pytest.fixture(scope="session")
def polarity_q3(plane_q3):
    return un.build_polarity_unital(plane_q3, un.InvolutionSpec("frobq"))


@pytest.fixture(scope="session")
def hermitian_slopes_q3(plane_q3):
    """The Hermitian curve X^4 + Y^4 + Z^4 = 0 of PG(2, 9) in the square-map
    plane, where x = X, y = Y + x^2 and the slope point (a) is the direction
    of slope 2a: 24 affine points and the 4 slope points with (2a)^4 = -1."""
    ctx, N = plane_q3.ctx, plane_q3.N

    def fourth(v):
        return ctx.mul(ctx.mul(v, v), ctx.mul(v, v))
    X, Y = np.divmod(np.arange(N * N), N)
    on = ctx.add(ctx.add(fourth(X), fourth(Y)), 1) == 0
    x, y = X[on], ctx.add(Y[on], ctx.mul(X[on], X[on]))
    a = np.arange(N)
    slopes = a[fourth(ctx.mul(2, a)) == ctx.neg(1)]
    return un.Unital(plane_q3, np.concatenate([x * N + y, N * N + slopes]), "hermitian")
