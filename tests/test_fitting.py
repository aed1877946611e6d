import math

import numpy as np
import pytest

from dressedspin import fitting
from dressedspin.errors import FitDiverged
from dressedspin.fitting import Lcg64, bisect_root, least_squares


def test_least_squares_linear_exact():
    t = np.linspace(0, 1, 50)
    y = 2.0 + 3.0 * t

    def res(p):
        return p[0] + p[1] * t - y

    def jac(p):
        return np.column_stack([np.ones_like(t), t])

    fit = least_squares(res, [0.0, 0.0], jac)
    assert fit.converged
    assert fit.params == pytest.approx([2.0, 3.0], abs=1e-9)
    assert fit.residual_norm < 1e-9


def test_least_squares_cosine_with_jacobian():
    # start inside the frequency basin (callers seed from a spectral peak)
    t = np.linspace(0, 0.005, 400)
    omega_true = 2 * math.pi * 2040.0
    y = 0.25 + 0.7 * np.cos(omega_true * t)

    def res(p):
        return p[0] + p[1] * np.cos(p[2] * t) - y

    def jac(p):
        return np.column_stack(
            [np.ones_like(t), np.cos(p[2] * t), -p[1] * t * np.sin(p[2] * t)]
        )

    fit = least_squares(res, [0.0, 1.0, omega_true * 1.02], jac)
    assert fit.converged
    assert fit.params[2] == pytest.approx(omega_true, rel=1e-10)


def test_least_squares_rejects_nan_start():
    with pytest.raises(FitDiverged):
        least_squares(lambda p: np.array([float("nan")]), [1.0], lambda p: np.zeros((1, 1)))


def test_least_squares_reports_nonconvergence(monkeypatch):
    # pathological residual with no descent direction from the start
    def res(p):
        return np.array([1.0, 1.0])  # constant, gradient zero

    def jac(p):
        return np.zeros((2, 1))

    monkeypatch.setattr(fitting, "_MAX_ITER", 5)
    fit = least_squares(res, [1.0], jac)
    # constant residuals: zero step accepted immediately, converged via _STEP_TOL
    assert fit.iterations <= 5

    # the iteration cap is read at call time: one iteration of a fit that needs several
    t = np.linspace(0, 1, 50)
    monkeypatch.setattr(fitting, "_MAX_ITER", 1)
    fit = least_squares(lambda p: np.exp(p[0] * t) - np.exp(0.7 * t), [0.0], lambda p: (t * np.exp(p[0] * t))[:, None])
    assert fit.iterations == 1 and not fit.converged


def test_bisect_root():
    assert bisect_root(math.cos, 0.0, 3.0, xtol=1e-13) == pytest.approx(math.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        bisect_root(math.cos, 0.0, 1.0)


def test_lcg64_deterministic():
    a, b = Lcg64(42), Lcg64(42)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    c = Lcg64(43)
    assert a.uniform() != c.uniform()


def test_lcg64_recurrence_documented():
    # the generator is exactly the documented 64-bit linear map
    g = Lcg64(7)
    state = (6364136223846793005 * 7 + 1442695040888963407) % (1 << 64)
    assert g.uniform() == (state >> 11) / float(1 << 53)


def test_lcg64_normal_moments():
    g = Lcg64(1)
    draws = np.array([g.normal() for _ in range(20000)])
    assert abs(np.mean(draws)) < 0.03
    assert np.std(draws) == pytest.approx(1.0, abs=0.03)
