"""Acceptance suite: one test per criterion, tolerances pinned as stated.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 2's ratio window is asserted exactly as specified;
the measured scaling ratio for these drive geometries is ~8 (third-order
residual), so that assertion records an honest failure -- see the printed
diagnostics.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

from dressedspin.analysis import (
    ScanSpec,
    calibrate,
    run_scan,
    synthetic_calibration_data,
)
from dressedspin.effective import bare_precession, larmor_frequency, rectified_field
from dressedspin.errors import DressedSpinError
from dressedspin.fitting import bisect_root
from dressedspin.propagate import (
    analytic_coherences,
    monodromy_quasienergy,
    propagate_bloch_spin1,
    propagate_spin_half,
)
from dressedspin.special import bessel_j, f_aux, g_func, phi

from conftest import KHZ, make_config

TWO_PI = 2.0 * math.pi


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))


def test_c1_collapse_of_precession():
    t0 = time.monotonic()
    root = bisect_root(lambda x: bessel_j(0, x), 2.0, 3.0, xtol=1e-12)
    root_ok = abs(root - 2.404826) <= 1e-4
    collapse_ok = bare_precession(0.0, 2.0 * KHZ, root) < 1e-10 * 2.0 * KHZ

    omega = 9.0 * KHZ
    cfg = make_config(9.0, xi=root, w0_khz=(0, 0, 0.09))  # omega0z/omega = 0.01
    qe = monodromy_quasienergy(cfg)
    mono_ok = qe.omega_L_numeric <= 2e-4 * omega
    elapsed = time.monotonic() - t0
    _report(
        "C1 collapse",
        root_ok and collapse_ok and mono_ok and elapsed < 5.0,
        f"root={root:.7f}, Omega_L/omega={qe.omega_L_numeric / omega:.2e}, {elapsed:.2f}s",
    )
    assert root_ok and collapse_ok and mono_ok
    assert elapsed < 5.0


def test_c2_first_order_accuracy_and_convergence_order():
    # Also covers the propagator-module "oracle agreement with convergence
    # order" property (same window).
    t0 = time.monotonic()
    abs_ok = True
    ratios = []
    worst_abs = 0.0
    omega_khz = 10.0
    omega = omega_khz * KHZ
    for xi in (1.0, 1.8, 3.0):
        for p in (1, 2, 3):
            for Phi in (0.0, math.pi / 2):
                diffs = []
                for s in (1.0, 0.5, 0.25):
                    cfg = make_config(
                        omega_khz,
                        xi=xi,
                        w0_khz=(0, 0, s * 0.08 * omega_khz),
                        tuning=(("y", s * 0.08 * omega_khz, p, Phi),),
                    )
                    diffs.append(abs(larmor_frequency(cfg) - monodromy_quasienergy(cfg).omega_L_numeric))
                worst_abs = max(worst_abs, diffs[2] / omega)
                if diffs[2] > 1e-3 * omega:
                    abs_ok = False
                ratios.append(diffs[0] / diffs[1])
                ratios.append(diffs[1] / diffs[2])
    elapsed = time.monotonic() - t0
    ratio_ok = all(2.5 <= r <= 6.0 for r in ratios)
    _report(
        "C2 first-order accuracy",
        abs_ok and ratio_ok and elapsed < 60.0,
        f"max|diff|/omega@s=1/4 = {worst_abs:.2e}, ratio range "
        f"[{min(ratios):.2f}, {max(ratios):.2f}], {elapsed:.1f}s",
    )
    assert abs_ok, f"absolute tolerance failed: {worst_abs:.3e} > 1e-3"
    assert elapsed < 60.0
    # The residual for these drive geometries is third order (the
    # second-order Floquet term points along the dressing axis, orthogonal
    # to the first-order field), so the halving ratio sits at ~8, outside
    # the stated window; asserted as specified.
    assert ratio_ok, (
        f"discrepancy halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}], "
        "outside the specified window [2.5, 6]; measured scaling is third order"
    )


# the three dressing-parameter scan configurations (p, Phi, omega/2pi, A/2pi)
SCAN_SETS = (
    (1, math.pi / 2, 9.0, 4.97),
    (2, 0.0, 10.0, 2.23),
    (3, math.pi / 2, 9.0, 4.25),
)


def _closed_form_khz(p, Phi, amp_khz, w0z_khz, xi):
    j0, jp = bessel_j(0, xi), bessel_j(p, xi)
    if p % 2:
        return abs(w0z_khz * j0 + amp_khz * jp * math.sin(Phi))
    return math.hypot(amp_khz * jp * math.cos(Phi), w0z_khz * j0)


def test_c3_dressing_parameter_scan_curves():
    pointwise_ok = True
    for p, Phi, omega_khz, amp in SCAN_SETS:
        base = make_config(omega_khz, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", amp, p, Phi),))
        grid = tuple(np.linspace(0.6, 5.0, 111))
        rows = run_scan(ScanSpec(swept="xi", grid=grid, base=base)).rows
        for xi, row in zip(grid, rows):
            expected = _closed_form_khz(p, Phi, amp, 2.040, xi)
            if not math.isclose(row.perturbative / KHZ, expected, rel_tol=1e-12, abs_tol=1e-15):
                pointwise_ok = False

    # p = 1 set: exactly one sign change of the signed z component in (0.6, 5)
    p, Phi, omega_khz, amp = SCAN_SETS[0]

    def signed_hz(xi):
        return 2.040 * bessel_j(0, xi) + amp * bessel_j(p, xi) * math.sin(Phi)

    fine = np.linspace(0.6, 5.0, 4001)
    signs = np.sign([signed_hz(x) for x in fine])
    crossings = np.nonzero(signs[1:] * signs[:-1] < 0)[0]
    one_crossing = len(crossings) == 1

    roots = []
    for n_pts in (45, 111, 401):
        grid = np.linspace(0.6, 5.0, n_pts)
        vals = [signed_hz(x) for x in grid]
        for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
            if fa * fb < 0:
                roots.append(bisect_root(signed_hz, a, b, xtol=1e-12))
                break
    stable = max(roots) - min(roots) < 1e-3
    _report(
        "C3 scan curves",
        pointwise_ok and one_crossing and stable,
        f"sign-change at xi = {roots[-1]:.6f}",
    )
    assert pointwise_ok
    assert one_crossing
    assert stable


PHASE_SETS = (
    (1, 1.38, 20.0, 1.49),
    (2, 3.83, 10.0, 2.23),
    (3, 1.54, 9.0, 1.23),
)


def test_c4_phase_laws():
    grid = tuple((i * math.pi / 16.0) for i in range(32))  # Phi and Phi+pi both on-grid
    sine_ok = True
    even_ok = True
    for p, xi, omega_khz, amp in PHASE_SETS:
        base = make_config(omega_khz, xi=xi, w0_khz=(0, 0, 2.040), tuning=(("y", amp, p, 0.0),))
        rows = run_scan(ScanSpec(swept="phi", grid=grid, base=base)).rows
        vals = np.array([r.perturbative for r in rows]) / KHZ
        if p % 2:
            # linear fit A + B sin(Phi); the law is exact for these sets
            basis = np.column_stack([np.ones(len(grid)), np.sin(grid)])
            coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
            resid = float(np.max(np.abs(basis @ coef - vals)))
            if resid >= 1e-12:
                sine_ok = False
        else:
            half = len(grid) // 2
            for i in range(half):
                # exact identity up to cos() rounding at shifted arguments
                if abs(vals[i] - vals[i + half]) > 1e-14 * max(vals[i], 1e-30):
                    even_ok = False
            basis = np.column_stack([np.cos(grid) ** 2, np.ones(len(grid))])
            coef, *_ = np.linalg.lstsq(basis, vals**2, rcond=None)
            resid = float(np.max(np.abs(np.sqrt(basis @ coef) - vals)))
            if resid >= 1e-12:
                even_ok = False
    _report("C4 phase laws", sine_ok and even_ok)
    assert sine_ok
    assert even_ok


def test_c5_anisotropy_law():
    omega_khz = 30.0
    base = make_config(
        omega_khz, xi=1.833, w0_khz=(0, 0, 5.979), tuning=(("y", 0.354, 1, math.pi / 2),)
    )
    grid = tuple(np.linspace(0.0, 15.0 * KHZ, 61))
    rows = run_scan(ScanSpec(swept="omega0x", grid=grid, base=base)).rows
    consts = np.array([row.perturbative**2 - v**2 for v, row in zip(grid, rows)])
    const_ok = float(np.max(np.abs(consts - consts[0]))) <= 1e-12 * consts[0]

    undressed_ok = True
    for xi in (0.0, 0.9, 1.833, 2.404825557695773, 4.2):
        cfg = make_config(omega_khz, xi=xi, w0_khz=(3.0, 0, 5.979), tuning=(("y", 0.354, 1, math.pi / 2),))
        if rectified_field(cfg).hx != cfg.static.omega0x:
            undressed_ok = False

    # monodromy agreement once scaled into the perturbative regime
    s = 1.0 / 8.0
    scaled = make_config(
        omega_khz, xi=1.833, w0_khz=(3.0 * s, 0, 5.979 * s), tuning=(("y", 0.354 * s, 1, math.pi / 2),)
    )
    qe = monodromy_quasienergy(scaled)
    mono_ok = abs(qe.omega_L_numeric - larmor_frequency(scaled)) <= 1e-3 * omega_khz * KHZ
    _report("C5 anisotropy law", const_ok and undressed_ok and mono_ok)
    assert const_ok
    assert undressed_ok
    assert mono_ok


def test_c6_coherence_formulas():
    rms_ok = True
    norm_ok = True
    cross_ok = True
    worst_rms = 0.0
    omega_khz = 10.0
    omega = omega_khz * KHZ
    for xi in (0.5, 1.8, 3.5):
        # eta = 0.01: inside the stated small-parameter window eta <= 0.05
        kw = dict(xi=xi, w0_khz=(0, 0, 0.1), tuning=(("y", 0.1, 1, math.pi / 2),))
        cfg = make_config(omega_khz, **kw)
        omega_l = larmor_frequency(cfg)
        t_end = 10.0 * TWO_PI / omega_l
        samples = max(2048, int(t_end * omega / TWO_PI * 8.0))
        num = propagate_spin_half(cfg, t_end, samples)
        ana = analytic_coherences(cfg, t_end, samples)
        for a, b in ((ana.sx, num.sx), (ana.sy, num.sy), (ana.sz, num.sz)):
            r = float(np.sqrt(np.mean((a - b) ** 2)))
            worst_rms = max(worst_rms, r)
            if r > 0.02:
                rms_ok = False

        cfg1 = make_config(omega_khz, spin="one", **kw)
        bloch = propagate_bloch_spin1(cfg1, t_end, min(samples, 4096))
        norm = np.sqrt(bloch.sx**2 + bloch.sy**2 + bloch.sz**2)
        if float(np.max(np.abs(norm - 1.0))) > 1e-9:
            norm_ok = False

        qe_half = monodromy_quasienergy(cfg)
        qe_one = monodromy_quasienergy(cfg1)
        if abs(qe_half.omega_L_numeric - qe_one.omega_L_numeric) > 4e-10 * omega:
            cross_ok = False
    _report("C6 coherence formulas", rms_ok and norm_ok and cross_ok, f"worst RMS {worst_rms:.4f}")
    assert rms_ok
    assert norm_ok
    assert cross_ok


def test_c7_integral_identities():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        xi = float(rng.uniform(0.0, 5.0))
        p = int(rng.integers(1, 4))
        Phi = float(rng.uniform(0.0, 2 * np.pi))
        tau = float(rng.uniform(0.0, 4 * np.pi))
        j0, jp = bessel_j(0, xi), bessel_j(p, xi)
        quads = (
            scipy.integrate.quad(lambda t: math.cos(phi(t, xi)), 0, tau, limit=400)[0],
            scipy.integrate.quad(lambda t: math.sin(phi(t, xi)), 0, tau, limit=400)[0],
            scipy.integrate.quad(lambda t: math.cos(phi(t, xi)) * math.cos(p * t + Phi), 0, tau, limit=400)[0],
            scipy.integrate.quad(lambda t: math.sin(phi(t, xi)) * math.cos(p * t + Phi), 0, tau, limit=400)[0],
        )
        closed = (
            j0 * tau + f_aux(1, tau, xi),
            f_aux(2, tau, xi),
            0.5 * (1 + (-1) ** p) * jp * math.cos(Phi) * tau + f_aux(3, tau, xi, p, Phi),
            0.5 * (-1 + (-1) ** p) * jp * math.sin(Phi) * tau + f_aux(4, tau, xi, p, Phi),
        )
        worst = max(worst, max(abs(q - c) for q, c in zip(quads, closed)))
    identities_ok = worst <= 1e-8

    periodicity_ok = True
    for tau in np.linspace(0.1, 2 * math.pi, 7):
        if abs(f_aux(1, tau + math.pi, 2.3) - f_aux(1, tau, 2.3)) > 1e-9:
            periodicity_ok = False
        if abs(f_aux(2, tau + 2 * math.pi, 2.3) - f_aux(2, tau, 2.3)) > 1e-9:
            periodicity_ok = False
        if abs(g_func(tau + 2 * math.pi, 2.3, 2, 0.4) - g_func(tau, 2.3, 2, 0.4)) > 1e-9:
            periodicity_ok = False
    g_zero_ok = abs(g_func(2 * math.pi, 1.7, 1, 0.9)) < 1e-12
    _report("C7 integral identities", identities_ok and periodicity_ok and g_zero_ok, f"worst {worst:.2e}")
    assert identities_ok
    assert periodicity_ok
    assert g_zero_ok


def test_c8_calibration_roundtrip():
    t0 = time.monotonic()
    grid = tuple(w * 1.5 * KHZ for w in range(11))
    w0z = 5.979 * KHZ

    data = synthetic_calibration_data(grid, omega0z=w0z, xi=1.833, scale=1.0, tilt=0.03)
    fit = calibrate(data, omega0z=w0z)
    noiseless_ok = (
        abs(fit.scale - 1.0) <= 1e-6 and abs(fit.tilt - 0.03) <= 1e-6 and abs(fit.xi - 1.833) <= 1e-6
    )

    hits = 0
    for seed in range(100):
        noisy = synthetic_calibration_data(
            grid, omega0z=w0z, xi=1.833, scale=1.0, tilt=0.03, noise=0.002, seed=seed
        )
        try:
            nf = calibrate(noisy, omega0z=w0z)
        except DressedSpinError:
            continue
        if abs(nf.scale - 1.0) <= 0.04:
            hits += 1
    elapsed = time.monotonic() - t0
    noise_ok = hits >= 95
    _report(
        "C8 calibration",
        noiseless_ok and noise_ok and elapsed < 30.0,
        f"noiseless err {abs(fit.scale - 1.0):.1e}, {hits}/100 within 4%, {elapsed:.1f}s",
    )
    assert noiseless_ok
    assert noise_ok
    assert elapsed < 30.0
