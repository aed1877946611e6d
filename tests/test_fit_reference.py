"""The one-callback fits against the two-callback route they replaced.

`_two_callback_least_squares` and the residual/Jacobian pairs below are the
solver and the models as they were when each fit called a residual function
and a Jacobian function separately, and stopped on an accepted relative step
below 1e-10.  They are kept as the reference: the one-callback route stops
on the first proposed step of an iteration instead, so the last digits of a
fit move, by far less than its error bars.
"""

import math

import numpy as np
import pytest

from dressedspin import analysis
from dressedspin.analysis import ScanSpec, run_scan, synthetic_calibration_data
from dressedspin.cli import _SYNTHETIC_TRUTH
from dressedspin.configfile import load_config
from dressedspin.errors import FitDiverged
from dressedspin.fitting import FitResult

from test_analysis import CAL_GRID, CONFIGS, W0Z

_MAX_ITER = 200
_STEP_TOL = 1e-10


def _two_callback_least_squares(residuals, x0, jacobian) -> FitResult:
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residuals(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FitDiverged("residuals not finite at the initial guess")
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        jac = np.asarray(jacobian(x))
        grad = jac.T @ r
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0

        accepted = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + delta
            r_new = np.asarray(residuals(x_new), dtype=float)
            cost_new = 0.5 * float(r_new @ r_new)
            if np.all(np.isfinite(r_new)) and cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        step = float(np.linalg.norm(delta)) / (float(np.linalg.norm(x)) + 1e-300)
        x, r, cost = x_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-14)
        if step < _STEP_TOL or cost == 0.0:
            converged = True
            break

    jac = np.asarray(jacobian(x))
    jtj = jac.T @ jac
    dof = max(r.size - x.size, 1)
    sigma2 = 2.0 * cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = sigma2 * np.linalg.pinv(jtj)
    return FitResult(
        params=x,
        covariance=cov,
        residual_norm=math.sqrt(2.0 * cost),
        iterations=it,
        converged=converged,
    )


def _two_callback_calibration(data, omega0z):
    """(scale, tilt, xi) and their 1-sigma errors by the two-callback route."""
    wx = np.array([w for w, _ in data])
    ratios = np.array([r for _, r in data])
    i0 = int(np.argmin(np.abs(wx)))
    xi0 = analysis._invert_j0(min(float(ratios[i0]), 1.0))

    def residuals(params):
        num, den = analysis._ratio_model(wx, omega0z, params)[:2]
        return num / den - ratios

    def jacobian(params):
        scale, tilt, xi = params
        num, den, wxs, wzs, j0, j1 = analysis._ratio_model(wx, omega0z, params)
        dnum_dscale = (wxs * wx + wzs * (tilt * wx) * j0 * j0) / num
        dden_dscale = (wxs * wx + wzs * (tilt * wx)) / den
        dnum_dtilt = wzs * wxs * j0 * j0 / num
        dden_dtilt = wzs * wxs / den
        dnum_dxi = -(wzs * wzs) * j0 * j1 / num
        col_scale = (dnum_dscale * den - num * dden_dscale) / (den * den)
        col_tilt = (dnum_dtilt * den - num * dden_dtilt) / (den * den)
        col_xi = dnum_dxi / den
        return np.column_stack([col_scale, col_tilt, col_xi])

    fit = _two_callback_least_squares(residuals, [1.0, 0.0, xi0], jacobian)
    assert fit.converged
    scale, tilt, xi = fit.params
    return (scale, tilt, abs(xi)), np.sqrt(np.clip(np.diag(fit.covariance), 0.0, None))


def _cli_synthetic_data(seed):
    """The data of `calibrate --omega0z 5.979 --synthetic --seed <seed>`."""
    return synthetic_calibration_data(CAL_GRID, omega0z=W0Z, seed=seed, **_SYNTHETIC_TRUTH)


def test_calibrate_lands_on_the_two_callback_route():
    # seen over seeds 0..199: 3.5e-7 sigma and 2.7e-9 relative at most
    for seed in range(200):
        data = _cli_synthetic_data(seed)
        fit = analysis.calibrate(data, omega0z=W0Z)
        params, errs = _two_callback_calibration(data, W0Z)
        for name, value, err in zip(("scale", "tilt", "xi"), params, errs):
            assert abs(getattr(fit, name) - value) <= 1e-6 * err
            assert getattr(fit, name + "_err") == pytest.approx(err, rel=1e-8)


def test_calibrate_makes_at_most_7_normal_calls_per_fit(monkeypatch):
    # the two-callback route evaluated the ratio model 15.52 times per fit
    # on these seeds (9.4 residual and 6.1 Jacobian calls); seen: 6.415
    calls, fits = [0], [0]
    solve = analysis.least_squares

    def counting(normal, x0, rows):
        def counted(x):
            calls[0] += 1
            return normal(x)

        fits[0] += 1
        return solve(counted, x0, rows)

    monkeypatch.setattr(analysis, "least_squares", counting)
    for seed in range(200):
        analysis.calibrate(_cli_synthetic_data(seed), omega0z=W0Z)
    assert fits[0] == 200
    assert calls[0] / fits[0] <= 7.0


def test_extract_frequency_lands_on_the_two_callback_route(monkeypatch):
    # the series of the odd-harmonic xi scan 0.6 -> 5, 20 points, all three
    # methods; seen: 6.5e-11 relative at most.  A stroboscopic series fits to
    # rounding, and its standard error is then rounding noise of order
    # 1e-12 rad/s on either route, hence the absolute part of that bound
    # (the scan's time-series column fits each series through
    # _fit_frequency, from the start that its batched spectral pass found)
    seen = []
    fit_frequency = analysis._fit_frequency

    def recording_fit(t, y, start):
        estimate = fit_frequency(t, y, start)
        seen.append((t, y, list(start), estimate))
        return estimate

    monkeypatch.setattr(analysis, "_fit_frequency", recording_fit)
    base = load_config(CONFIGS / "odd-harmonic.cfg")
    grid = [0.6 + i * (5.0 - 0.6) / 19 for i in range(20)]
    rows = run_scan(ScanSpec("xi", grid, base, analysis.METHODS)).rows
    assert len(seen) == 20 and not any(row.errors for row in rows)

    for t, y, x0, estimate in seen:

        def residuals(params):
            c, a, om = params
            return c + a * np.cos(om * t) - y

        def jacobian(params):
            _, a, om = params
            cos_t = np.cos(om * t)
            return np.column_stack([np.ones_like(t), cos_t, -a * t * np.sin(om * t)])

        fit = _two_callback_least_squares(residuals, x0, jacobian)
        assert fit.converged
        assert estimate.omega_L == pytest.approx(abs(fit.params[2]), rel=1e-9)
        stderr = math.sqrt(fit.covariance[2, 2])
        assert estimate.stderr == pytest.approx(stderr, rel=1e-6, abs=1e-9 * estimate.omega_L)
