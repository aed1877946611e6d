import math

import numpy as np
import pytest

from dressedspin import fitting
from dressedspin.errors import FitDiverged
from dressedspin.fitting import Lcg64, bisect_root, least_squares


def _normal(res, jac):
    """The normal(x) callback of a residual function and its Jacobian."""

    def normal(p):
        r = np.asarray(res(p), dtype=float)
        j = np.asarray(jac(p), dtype=float)
        return float(r @ r), j.T @ r, j.T @ j

    return normal


def test_least_squares_linear_exact():
    t = np.linspace(0, 1, 50)
    y = 2.0 + 3.0 * t

    def res(p):
        return p[0] + p[1] * t - y

    def jac(p):
        return np.column_stack([np.ones_like(t), t])

    fit = least_squares(_normal(res, jac), [0.0, 0.0], t.size)
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

    fit = least_squares(_normal(res, jac), [0.0, 1.0, omega_true * 1.02], t.size)
    assert fit.converged
    assert fit.params[2] == pytest.approx(omega_true, rel=1e-10)


def test_least_squares_rejects_nan_start():
    with pytest.raises(FitDiverged):
        least_squares(lambda p: (float("nan"), np.zeros(1), np.zeros((1, 1))), [1.0], 1)


def test_least_squares_reports_nonconvergence(monkeypatch):
    # pathological residual with no descent direction from the start
    def res(p):
        return np.array([1.0, 1.0])  # constant, gradient zero

    def jac(p):
        return np.zeros((2, 1))

    monkeypatch.setattr(fitting, "_MAX_ITER", 5)
    fit = least_squares(_normal(res, jac), [1.0], 2)
    # constant residuals: the first proposed step is zero, converged via _STEP_TOL
    assert fit.iterations <= 5

    # the iteration cap is read at call time: one iteration of a fit that needs several
    t = np.linspace(0, 1, 50)
    monkeypatch.setattr(fitting, "_MAX_ITER", 1)
    normal = _normal(lambda p: np.exp(p[0] * t) - np.exp(0.7 * t), lambda p: (t * np.exp(p[0] * t))[:, None])
    fit = least_squares(normal, [0.0], t.size)
    assert fit.iterations == 1 and not fit.converged


def _counted(normal, trials):
    """normal, recording each point it is called at."""

    def wrapped(p):
        trials.append(np.array(p))
        return normal(p)

    return wrapped


def test_least_squares_exact_start_stops_after_one_normal_call():
    t = np.linspace(0, 1, 50)
    y = 2.0 + 3.0 * t
    normal = _normal(lambda p: p[0] + p[1] * t - y, lambda p: np.column_stack([np.ones_like(t), t]))
    trials = []
    fit = least_squares(_counted(normal, trials), [2.0, 3.0], t.size)
    assert len(trials) == 1
    assert fit.converged and fit.iterations == 1
    assert fit.params.tolist() == [2.0, 3.0]
    assert fit.residual_norm == 0.0


def _linear_with_failed_trials(failures, trials):
    """normal of r(x) = x - 10 whose first `failures` trial steps give a non-finite r.r."""
    normal = _counted(_normal(lambda p: p - 10.0, lambda p: np.ones((1, 1))), trials)

    def flaky(p):
        rr, jtr, jtj = normal(p)
        return (float("nan") if 1 < len(trials) <= failures + 1 else rr), jtr, jtj

    return flaky


def test_least_squares_rejects_a_non_finite_trial_and_grows_lambda(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITER", 1)
    trials = []
    fit = least_squares(_linear_with_failed_trials(3, trials), [1.0], 1)
    # from x = 1 each trial is 1 + 9 / (1 + lambda); the three non-finite
    # ones are rejected, lambda grows tenfold after each, and the fourth is kept
    lams = [9.0 / (float(p[0]) - 1.0) - 1.0 for p in trials[1:]]
    assert lams == pytest.approx([1e-3, 1e-2, 1e-1, 1.0], rel=1e-9)
    assert fit.params[0] == trials[-1][0] == pytest.approx(5.5)
    assert fit.iterations == 1 and not fit.converged


def test_least_squares_does_not_stop_on_a_step_shrunk_by_rejections():
    # 14 rejected trials grow lambda to 1e11, so the accepted first step
    # (9e-11) is below _STEP_TOL relative to x = 1; the fit goes on from
    # there, and lambda falls again until the steps reach the minimum at 10
    trials = []
    fit = least_squares(_linear_with_failed_trials(14, trials), [1.0], 1)
    first_step = float(trials[15][0]) - 1.0
    assert 0.0 < first_step < fitting._STEP_TOL
    assert fit.converged and fit.iterations > 20
    assert fit.params[0] == pytest.approx(10.0, rel=10 * fitting._STEP_TOL)


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
