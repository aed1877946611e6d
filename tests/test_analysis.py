from dataclasses import replace
import math
import pathlib
import statistics

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from dressedspin import analysis, propagate, special
from dressedspin.analysis import (
    J0_FIRST_ROOT,
    ScanSpec,
    _invert_j0,
    _timeseries_omegas,
    calibrate,
    extract_frequency,
    run_scan,
    synthetic_calibration_data,
)
from dressedspin.cli import _SYNTHETIC_TRUTH
from dressedspin.config import validate
from dressedspin.configfile import apply_overrides, load_config
from dressedspin.effective import bare_precession, larmor_frequency
from dressedspin.errors import DegenerateData, FitDiverged, NoOscillation
from dressedspin.fitting import bisect_root
from dressedspin.propagate import CoherenceSeries, monodromy_quasienergy, propagate_spin_half
from dressedspin.special import bessel_j

from conftest import KHZ, fold, lab_frame, make_config

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _series(t_end, samples, f):
    t = np.linspace(0.0, t_end, samples)
    return CoherenceSeries(times=t, sx=f(t), sy=np.zeros_like(t), sz=np.zeros_like(t))


def test_extract_synthetic_cosine():
    omega = 2 * math.pi * 2040.0
    series = _series(0.05, 8192, lambda t: np.cos(omega * t))
    est = extract_frequency(series)
    assert est.omega_L == pytest.approx(omega, rel=1e-3)
    assert est.stderr >= 0.0


def test_extract_with_offset():
    omega = 2 * math.pi * 500.0
    series = _series(0.05, 4096, lambda t: 0.4 + 0.3 * np.cos(omega * t))
    est = extract_frequency(series)
    assert est.omega_L == pytest.approx(omega, rel=1e-6)


def test_extract_constant_raises():
    with pytest.raises(NoOscillation):
        extract_frequency(_series(0.05, 1024, lambda t: np.full_like(t, 0.7)))


def test_extract_precondition_errors():
    omega = 2 * math.pi * 2000.0
    # fewer than 3 periods: a property of the data, not a bad argument
    with pytest.raises(NoOscillation, match="fewer than 3 oscillation periods"):
        extract_frequency(_series(1.0 / 2000.0, 1024, lambda t: np.cos(omega * t)))
    # fewer than 16 samples per period
    with pytest.raises(NoOscillation, match="fewer than 16 samples per oscillation period"):
        extract_frequency(_series(0.05, 256, lambda t: np.cos(omega * t)))
    # fewer than 16 samples in all
    with pytest.raises(ValueError, match="at least 16 samples"):
        extract_frequency(_series(0.05, 15, lambda t: np.cos(omega * t)))
    # non-uniform sampling
    t = np.concatenate([np.linspace(0, 0.02, 512), np.linspace(0.021, 0.05, 512)])
    bad = CoherenceSeries(times=t, sx=np.cos(omega * t), sy=0 * t, sz=0 * t)
    with pytest.raises(ValueError):
        extract_frequency(bad)
    # constant, reversed or decreasing times, with a line at 0.5 rad per sample
    k = np.arange(64)
    for t in (np.zeros(64), np.linspace(0.0, 1.0, 64)[::-1], np.linspace(0.0, -1.0, 64)):
        bad = CoherenceSeries(times=t, sx=np.cos(0.5 * k), sy=0 * t, sz=0 * t)
        with pytest.raises(ValueError, match="must start at t = 0 with increasing times"):
            extract_frequency(bad)


def test_extract_agrees_with_monodromy():
    # odd-harmonic phase-law configuration
    cfg = make_config(20.0, xi=1.38, w0_khz=(0, 0, 2.040), tuning=(("y", 1.49, 1, math.pi / 2),))
    qe = monodromy_quasienergy(cfg)
    series = propagate_spin_half(cfg, 8 * 2 * math.pi / qe.omega_L_numeric, 512)
    est = extract_frequency(series)
    tol = 3.0 * est.stderr + 1e-6 * qe.omega_L_numeric
    assert abs(est.omega_L - qe.omega_L_numeric) <= tol


def test_scan_spec_validation():
    base = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    with pytest.raises(ValueError):
        ScanSpec(swept="nope", grid=(1.0,), base=base)
    with pytest.raises(ValueError):
        ScanSpec(swept="xi", grid=(), base=base)
    with pytest.raises(ValueError):
        ScanSpec(swept="xi", grid=(1.0, 0.5, 2.0), base=base)
    with pytest.raises(ValueError):
        ScanSpec(swept="phi", grid=(0.0, 1.0), base=make_config(9.0, xi=1.0))
    for methods in ((), ("perturbative", "perturbative")):
        with pytest.raises(ValueError, match="nonempty list without repeats"):
            ScanSpec(swept="xi", grid=(1.0,), base=base, methods=methods)


def test_scan_perturbative_pure_function():
    base = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    spec = ScanSpec(swept="xi", grid=tuple(np.linspace(0.6, 5.0, 45)), base=base)
    r1 = run_scan(spec)
    r2 = run_scan(spec)
    assert [row.perturbative for row in r1.rows] == [row.perturbative for row in r2.rows]
    assert all(row.perturbative >= 0.0 for row in r1.rows)


def test_scan_errors_recorded_per_point():
    base = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    spec = ScanSpec(swept="xi", grid=(-0.5, 1.0), base=base)
    result = run_scan(spec)
    assert result.rows[0].errors  # xi < 0 is not a valid drive
    assert result.rows[0].perturbative is None
    assert result.rows[1].perturbative is not None


def test_scan_xi_sign_change_location():
    # p = 1 scan: the signed h_z crosses zero once in (0.6, 5)
    base = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))

    def signed_hz(xi):
        return 2.040 * bessel_j(0, xi) + 4.97 * bessel_j(1, xi)

    root = bisect_root(signed_hz, 3.0, 4.0, xtol=1e-12)
    assert root == pytest.approx(3.4610555433605024, abs=1e-9)
    spec = ScanSpec(swept="xi", grid=tuple(np.linspace(0.6, 5.0, 89)), base=base)
    rows = run_scan(spec).rows
    # |Omega_L| has its slope-change dip at the crossing
    vals = np.array([r.perturbative for r in rows])
    dip = spec.grid[int(np.argmin(vals))]
    assert abs(dip - root) < 0.1


def test_scan_phase_law_odd_harmonic():
    # p = 3: Omega_L(Phi) = |w0z J0 + A J3 sin(Phi)|, maximal at Phi = pi/2
    base = make_config(9.0, xi=1.54, w0_khz=(0, 0, 2.040), tuning=(("y", 1.23, 3, 0.0),))
    grid = tuple(np.linspace(0.0, 2 * math.pi, 65))
    rows = run_scan(ScanSpec(swept="phi", grid=grid, base=base)).rows
    a = 2.040 * bessel_j(0, 1.54) * KHZ
    b = 1.23 * bessel_j(3, 1.54) * KHZ
    for phi_val, row in zip(grid, rows):
        assert row.perturbative == pytest.approx(abs(a + b * math.sin(phi_val)), rel=1e-12)
    vals = [r.perturbative for r in rows]
    assert grid[int(np.argmax(vals))] == pytest.approx(math.pi / 2, abs=0.1)


def test_scan_anisotropy_law():
    # Omega_L(w0x)^2 - w0x^2 is a constant: the undressed x axis in action
    base = make_config(
        30.0, xi=1.833, w0_khz=(0, 0, 5.979), tuning=(("y", 0.354, 1, math.pi / 2),)
    )
    grid = tuple(np.linspace(0.0, 15.0 * KHZ, 31))
    rows = run_scan(ScanSpec(swept="omega0x", grid=grid, base=base)).rows
    consts = [row.perturbative**2 - v**2 for v, row in zip(grid, rows)]
    ref = consts[0]
    assert all(abs(c - ref) <= 1e-12 * ref for c in consts)
    # monotone increasing, asymptotically ~ omega0x (hz^2/2w^2 ~ 1% at the
    # end of this grid)
    vals = [r.perturbative for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(grid[-1], rel=1.1e-2)
    assert vals[-1] > grid[-1]


def test_scan_flat_when_only_x_field():
    base = make_config(9.0, xi=0.5, w0_khz=(1.5, 0, 0))
    rows = run_scan(ScanSpec(swept="xi", grid=(0.5, 3.0), base=base)).rows
    assert rows[0].perturbative == rows[1].perturbative == pytest.approx(1.5 * KHZ, rel=1e-14)


def test_scan_monodromy_and_timeseries_methods():
    base = make_config(10.0, xi=1.0, w0_khz=(0, 0, 0.3), tuning=(("y", 0.3, 1, math.pi / 2),))
    spec = ScanSpec(
        swept="xi", grid=(0.8, 1.8), base=base, methods=("perturbative", "monodromy", "timeseries")
    )
    rows = run_scan(spec).rows
    for row in rows:
        assert row.monodromy == pytest.approx(row.perturbative, rel=5e-3)
        assert row.timeseries == pytest.approx(row.monodromy, rel=1e-3)
        assert row.alias_ambiguous is False
        assert row.p1_norm_max > 0.0


def test_scan_timeseries_window_sized_from_monodromy():
    # odd-harmonic between its numeric zero of Omega_L (xi = 3.414) and the
    # first-order zero (xi = 3.46): first order is 3-40x off here, and a
    # window sized from it was too short (3.39, 3.40: NoOscillation) or too
    # long (3.46, 3.48: NoConvergence).  Sized from the monodromy value, the
    # fit meets the bound of a well-sized window (seen: 1.2e-5 to 5.7e-5).
    base = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    spec = ScanSpec(
        swept="xi", grid=(3.39, 3.40, 3.46, 3.48), base=base, methods=("perturbative", "monodromy", "timeseries")
    )
    for row in run_scan(spec).rows:
        assert row.errors == ()
        ratio = row.monodromy / row.perturbative
        assert max(ratio, 1.0 / ratio) > 3.0
        assert row.timeseries == pytest.approx(row.monodromy, rel=2e-3)


def test_timeseries_window_has_no_floor():
    # odd-harmonic at its numeric zero of Omega_L: the monodromy value is
    # 3.4e-4 and 3.0e-4 of omega, and 8 of its periods make the window
    # (seen: 2.0e-5 and 1.0e-3 from the monodromy value).  A window floored
    # at 1e-3 omega was too short, and both rows failed with NoOscillation.
    config = validate(load_config(CONFIGS / "odd-harmonic.cfg"))
    spec = ScanSpec(swept="xi", grid=(3.4125, 3.415), base=config,
                    methods=("perturbative", "monodromy", "timeseries"))
    for row in run_scan(spec).rows:
        assert row.errors == ()
        assert row.monodromy < 1e-3 * config.dressing.omega
        assert row.timeseries == pytest.approx(row.monodromy, rel=2e-3)


@pytest.mark.parametrize("omega_ref", [0.0, -0.0, 1e-320, math.nan])
def test_timeseries_without_a_finite_window_raises_no_oscillation(omega_ref):
    # 8 periods of a zero, subnormal or NaN reference are no finite window:
    # a typed error, which a scan row records as timeseries:NoOscillation
    config = validate(load_config(CONFIGS / "odd-harmonic.cfg"))
    (got,) = _timeseries_omegas([config], [omega_ref])
    assert isinstance(got, NoOscillation)
    assert str(got).startswith("no finite 8-period window")


def test_readme_xi_grid_row_near_the_numeric_zero_converges():
    # Row 76 of the README odd-harmonic xi scan with all three methods
    # (0.6 to 5, 120 points).  Omega_L is 0.0086 kHz, so the window is 8
    # periods of it: about 8,000 drive periods.  RK4 on a per-gap step layout never settled there
    # (timeseries:NoConvergence, last change 4.7e-10 at 32,768 steps/period);
    # the Magnus grid settles and lands 1.2e-4 from the monodromy value.
    config = validate(load_config(CONFIGS / "odd-harmonic.cfg"))
    spec = ScanSpec(swept="xi", grid=(0.6 + 76 * ((5.0 - 0.6) / 119),), base=config,
                    methods=("perturbative", "monodromy", "timeseries"))
    (row,) = run_scan(spec).rows
    assert row.errors == ()
    assert row.timeseries == pytest.approx(row.monodromy, rel=2e-3)


def test_xi_scan_within_stated_bounds_of_lab_route():
    # The README odd-harmonic xi range, 24 points, all three methods, against
    # the lab-frame route (seen: monodromy 3.9e-13 and time series 1.2e-14 of
    # omega apart with windows sized alike, the lab route's value folded into
    # [0, omega]: its Floquet modes carry the dressing harmonics and may
    # unfold it onto another branch).  Closed-form cells are identical.
    # Every row has a time-series value, within 2e-3 of monodromy, or 5e-2
    # where monodromy is more than 10 % off first order.
    omega = 9.0 * KHZ
    base = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    spec = ScanSpec(swept="xi", grid=tuple(np.linspace(0.6, 5.0, 24)), base=base,
                    methods=("perturbative", "monodromy", "timeseries"))
    rows = run_scan(spec).rows
    sized = [abs(r.monodromy / r.perturbative - 1.0) <= 0.1 for r in rows]
    # every fifth row whose first-order window is sized right
    probe = [i for i in range(len(rows)) if sized[i]][::5]
    with lab_frame():
        lab = run_scan(replace(spec, methods=("perturbative", "monodromy"))).rows
        lab_ts = _timeseries_omegas([spec.config_at(spec.grid[i]) for i in probe], [rows[i].perturbative for i in probe])
    for row, ref, ok in zip(rows, lab, sized):
        assert row.errors == ()
        assert (row.perturbative, row.eta, row.p1_norm_max) == (ref.perturbative, ref.eta, ref.p1_norm_max)
        assert abs(row.monodromy - fold(ref.monodromy, omega)) <= 1e-10 * omega
        assert row.alias_ambiguous == ref.alias_ambiguous
        assert row.timeseries == pytest.approx(row.monodromy, rel=2e-3 if ok else 5e-2)
    # with the lab route's window (sized from first order) the fitted time
    # series moves by no more than the monodromy
    assert len(probe) >= 3
    got = _timeseries_omegas([spec.config_at(spec.grid[i]) for i in probe], [rows[i].perturbative for i in probe])
    for have, want in zip(got, lab_ts):
        assert abs(have - want) <= 1e-10 * omega


# xi = 0 and no tuning: U(tau) = exp(-i k tau n.sigma/2), so Omega_L is k omega
# exactly, also past the folds of the eigenphase at k = 1, 2, ...
@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("k", [0.3, 0.98, 1.02, 1.3, 2.7, 3.6, 6.2])
def test_static_field_larmor_is_exact_on_every_branch(k, spin):
    omega = 10.0 * KHZ
    base = make_config(10.0, w0_khz=(6.0 * k, 0.0, 8.0 * k), spin=spin)
    qe = monodromy_quasienergy(base)
    assert abs(qe.omega_L_numeric - k * omega) <= 1e-12 * omega
    (row,) = run_scan(ScanSpec(swept="xi", grid=(0.0,), base=base, methods=("monodromy",))).rows
    assert row.monodromy == qe.omega_L_numeric


# Strong static z fields, Omega_L > omega: the monodromy value against the sx
# line of a 400-period series (seen: 2.79423, 5.05612, 3.05417 and 5.17093
# omega, equal to 5 digits).
@pytest.mark.parametrize("z", [2.7, 5.0])
@pytest.mark.parametrize("name", ["odd-harmonic", "anisotropy"])
def test_strong_field_monodromy_matches_time_series(name, z):
    base = load_config(CONFIGS / f"{name}.cfg")
    cfg = validate(apply_overrides(base, [f"static.z={z * base.dressing.omega / KHZ}"]))
    omega = cfg.dressing.omega
    want = monodromy_quasienergy(cfg).omega_L_numeric
    assert want > 2.0 * omega
    est = extract_frequency(propagate_spin_half(cfg, 400 * 2.0 * math.pi / omega, 40000))
    assert abs(est.omega_L - want) <= 3.0 * est.stderr + 1e-6 * want


def test_scan_jobs_parallel_matches_serial():
    base = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    spec = ScanSpec(
        swept="xi", grid=tuple(np.linspace(0.6, 5.0, 9)), base=base, methods=("perturbative", "monodromy")
    )
    serial = run_scan(spec, jobs=1)
    parallel = run_scan(spec, jobs=2)
    assert [r.perturbative for r in serial.rows] == [r.perturbative for r in parallel.rows]
    assert [r.monodromy for r in serial.rows] == [r.monodromy for r in parallel.rows]
    assert [r.alias_ambiguous for r in serial.rows] == [r.alias_ambiguous for r in parallel.rows]
    assert all(r.monodromy is not None for r in serial.rows)
    assert serial.rows == parallel.rows


# A strong static z field (25 kHz against a 9 kHz drive): xi = -1 is no
# configuration, xi = 2.5 fits no line in its 8-period window, and from
# xi = 1.5 the monodromy needs 512 steps per period, so with one refinement
# it fails beside rows that converge.
STRONG_Z = make_config(9.0, xi=1.0, w0_khz=(0, 0, 25.0), tuning=(("y", 4.97, 1, math.pi / 2),))
ALL_METHODS = ("perturbative", "monodromy", "timeseries")


def _equivalence_spec(case):
    if case == "readme-xi":
        config = validate(load_config(CONFIGS / "odd-harmonic.cfg"))
        return ScanSpec(swept="xi", grid=tuple(np.linspace(0.6, 5.0, 24)), base=config, methods=ALL_METHODS)
    if case == "phi":
        config = validate(load_config(CONFIGS / "even-harmonic.cfg"))
        return ScanSpec(swept="phi", grid=tuple(np.radians(np.linspace(0.0, 360.0, 13))), base=config,
                        methods=("monodromy", "timeseries"))
    if case == "omega0x":
        config = validate(load_config(CONFIGS / "anisotropy.cfg"))
        return ScanSpec(swept="omega0x", grid=tuple(np.linspace(0.0, 15.0, 11) * KHZ), base=config,
                        methods=("monodromy", "timeseries"))
    if case == "spin-one":
        config = validate(apply_overrides(load_config(CONFIGS / "collapse.cfg"), ["spin=one"]))
        return ScanSpec(swept="xi", grid=tuple(np.linspace(0.6, 5.0, 8)), base=config, methods=ALL_METHODS)
    if case == "only-invalid":
        return ScanSpec(swept="xi", grid=(-2.0, -1.0), base=STRONG_Z, methods=ALL_METHODS)
    return ScanSpec(swept="xi", grid=(-1.0, 0.5, 1.25, 2.0, 2.5), base=STRONG_Z, methods=ALL_METHODS)


@pytest.mark.parametrize(
    "case, refinements",
    [("readme-xi", 6), ("phi", 6), ("omega0x", 6), ("spin-one", 6), ("only-invalid", 6), ("mixed", 6), ("mixed", 1)],
)
def test_batched_scan_rows_equal_one_point_scans(case, refinements, monkeypatch):
    # the batched passes give every row exactly the row of the scan of its
    # value alone: values compared with ==, error tokens in order
    monkeypatch.setattr(propagate, "_MAX_REFINEMENTS", refinements)
    spec = _equivalence_spec(case)
    rows = run_scan(spec).rows
    assert [row.value for row in rows] == list(spec.grid)
    for value, row in zip(spec.grid, rows):
        (alone,) = run_scan(replace(spec, grid=(value,))).rows
        assert row == alone
    errors = [row.errors for row in rows]
    if case == "mixed" and refinements == 6:
        assert errors == [("config:ValueError",), (), (), (), ("timeseries:NoOscillation",)]
    elif case == "mixed":
        assert errors[:3] == [("config:ValueError",), (), ("timeseries:NoConvergence",)]
        assert errors[3:] == [("monodromy:NoConvergence", "timeseries:NoConvergence")] * 2
    elif case == "only-invalid":
        assert errors == [("config:ValueError",)] * 2
    else:
        assert errors == [()] * len(rows)


def test_scan_integrates_the_grid_in_batched_passes(monkeypatch):
    # 20-point odd-harmonic xi scan, three methods: 83 point-levels (40 at
    # 128 steps, 40 at 256, 3 at 512), which point by point took 83 _grid
    # calls.  Batched, each level of each column takes one call per pass of
    # up to _PASS_NODES // steps points: 3 + 5 for the monodromy, 3 + 5 + 2
    # for the time series.
    calls = []
    grid = propagate._grid

    def counting(bundles, steps):
        calls.append((len(bundles), steps))
        return grid(bundles, steps)

    monkeypatch.setattr(propagate, "_grid", counting)
    config = validate(load_config(CONFIGS / "odd-harmonic.cfg"))
    run_scan(ScanSpec(swept="xi", grid=tuple(np.linspace(0.58, 4.98, 20)), base=config, methods=ALL_METHODS))
    assert sum(points for points, _ in calls) == 83
    assert len(calls) == 18
    assert all(points <= max(1, propagate._PASS_NODES // steps) for points, steps in calls)


CAL_GRID = tuple(w * KHZ for w in (0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 10.5, 12.0, 13.5, 15.0))
W0Z = 5.979 * KHZ


def test_calibrate_noiseless_roundtrip():
    data = synthetic_calibration_data(CAL_GRID, omega0z=W0Z, xi=1.833, scale=1.0, tilt=0.03)
    fit = calibrate(data, omega0z=W0Z)
    assert fit.scale == pytest.approx(1.0, abs=1e-6)
    assert fit.tilt == pytest.approx(0.03, abs=1e-6)
    assert fit.xi == pytest.approx(1.833, abs=1e-6)
    assert fit.residual_norm < 1e-9


def test_calibrate_seeded_noise_recovers_scale():
    hits = 0
    for seed in range(10):
        data = synthetic_calibration_data(
            CAL_GRID, omega0z=W0Z, xi=1.833, scale=1.0, tilt=0.03, noise=0.002, seed=seed
        )
        fit = calibrate(data, omega0z=W0Z)
        if abs(fit.scale - 1.0) <= 0.04:
            hits += 1
    assert hits == 10


def test_calibrate_degenerate_data():
    with pytest.raises(DegenerateData):
        calibrate([(0.0, bessel_j(0, 1.833))] * 6, omega0z=W0Z)
    with pytest.raises(DegenerateData):
        calibrate([(0.0, 0.32), (1.0 * KHZ, 0.5)], omega0z=W0Z)  # < 5 points


def test_calibrate_rejects_large_tilt():
    data = synthetic_calibration_data(CAL_GRID, omega0z=W0Z, xi=1.833, scale=1.0, tilt=0.35)
    with pytest.raises(FitDiverged):
        calibrate(data, omega0z=W0Z)


def test_calibrate_uncertainties_scale_with_noise():
    noisy = synthetic_calibration_data(
        CAL_GRID, omega0z=W0Z, xi=1.833, scale=1.0, tilt=0.03, noise=0.002, seed=5
    )
    fit = calibrate(noisy, omega0z=W0Z)
    assert fit.scale_err > 0.0
    assert fit.xi_err > 0.0
    assert abs(fit.scale - 1.0) <= 3.0 * fit.scale_err + 0.02


def test_calibrate_one_sigma_errors_are_honest():
    # seeds 0..199 of the CLI's synthetic data.  With 11 points and 3
    # parameters, Student's t with 8 degrees of freedom puts 0.653 of fits
    # within 1 sigma and 0.919 within 2; measured (scale / tilt / xi): 0.725 /
    # 0.65 / 0.925 within 1 sigma, the worst fits 4.15 / 3.73 / 2.52 sigma off
    off = {name: [] for name in ("scale", "tilt", "xi")}
    for seed in range(200):
        data = synthetic_calibration_data(CAL_GRID, omega0z=W0Z, seed=seed, **_SYNTHETIC_TRUTH)
        fit = calibrate(data, omega0z=W0Z)
        for name, devs in off.items():
            devs.append(abs(getattr(fit, name) - _SYNTHETIC_TRUTH[name]) / getattr(fit, name + "_err"))
    for name, devs in off.items():
        assert 0.55 <= np.mean(np.array(devs) <= 1.0) <= 0.97, name
        assert max(devs) <= 5.0, name


@settings(deadline=None, max_examples=200)
@given(
    xi=st.floats(min_value=0.0, max_value=5.0),
    scale=st.floats(min_value=0.8, max_value=1.2),
    tilt=st.floats(min_value=-0.2, max_value=0.2),
)
def test_synthetic_ratio_is_the_bare_precession_law(xi, scale, tilt):
    # the data come from the fit's ratio model (np.hypot); against the scalar
    # law (math.hypot) they differ by at most a few ulps: 3.5e-16 relative
    # over 2,000 random truths of the noiseless calibration domain
    for w, ratio in synthetic_calibration_data(CAL_GRID, omega0z=W0Z, xi=xi, scale=scale, tilt=tilt):
        wx = w * scale
        wz = W0Z + tilt * wx
        assert ratio == pytest.approx(bare_precession(wx, wz, xi) / math.hypot(wx, wz), rel=1e-15, abs=0.0)


def test_synthetic_data_deterministic():
    a = synthetic_calibration_data(CAL_GRID, omega0z=W0Z, xi=1.833, noise=0.002, seed=9)
    b = synthetic_calibration_data(CAL_GRID, omega0z=W0Z, xi=1.833, noise=0.002, seed=9)
    assert a == b


def test_j0_first_root_constant_consistent():
    root = bisect_root(lambda x: bessel_j(0, x), 2.0, 3.0, xtol=1e-13)
    assert J0_FIRST_ROOT == pytest.approx(root, abs=1e-10)


@settings(deadline=None, max_examples=300)
@given(r0=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(r0=5e-324)
@example(r0=1e-12)
@example(r0=1e-6)
@example(r0=0.999)
@example(r0=1.0 - 2.0**-53)
def test_j0_inverse_is_bracketed_exact_and_cheap(r0):
    special._bessel_table.cache_clear()
    x = _invert_j0(r0)
    recurrences = special._bessel_table.cache_info().misses
    assert 0.0 <= x <= J0_FIRST_ROOT
    assert abs(bessel_j(0, x) - r0) <= 1e-15
    assert recurrences <= (10 if 1e-6 <= r0 <= 0.999 else 30)
    if r0 <= 0.999:  # above, the root moves by 1/J1(x) >> 1 per unit of J0 rounding
        oracle = bisect_root(lambda y: bessel_j(0, y) - r0, 0.0, 2.5, xtol=1e-14)
        assert x == pytest.approx(oracle, abs=1e-10)


def _bisection_start(r0):
    """The calibration start value of the bisection route the J0 inverse replaced."""
    if r0 >= 1.0:
        return 0.0
    return bisect_root(lambda x: bessel_j(0, x) - r0, 0.0, J0_FIRST_ROOT - 1e-9, xtol=1e-12)


def _calibrate_counting(data):
    """(fit or the fit exception's type, Bessel recurrences the call ran)."""
    special._bessel_table.cache_clear()
    try:
        out = calibrate(data, omega0z=W0Z)
    except (FitDiverged, DegenerateData) as exc:
        out = type(exc)
    return out, special._bessel_table.cache_info().misses


def test_calibrate_matches_bisection_start_route(monkeypatch):
    # the CLI's `calibrate --synthetic` data, seeds 0..199
    newton, bisection, recurrences = [], [], []
    for seed in range(200):
        data = synthetic_calibration_data(CAL_GRID, omega0z=W0Z, seed=seed, **_SYNTHETIC_TRUTH)
        fit, count = _calibrate_counting(data)
        newton.append(fit)
        recurrences.append(count)
        with monkeypatch.context() as mp:
            mp.setattr(analysis, "_invert_j0", _bisection_start)
            bisection.append(_calibrate_counting(data)[0])
    for a, b in zip(newton, bisection):
        assert isinstance(a, type) == isinstance(b, type)
        if isinstance(b, type):
            assert a is b
            continue
        for name in ("scale", "tilt", "xi"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-6 * getattr(b, name + "_err")
        assert a.residual_norm == pytest.approx(b.residual_norm, rel=1e-10)
    assert statistics.median(recurrences) <= 25


@settings(deadline=None, max_examples=100)
@given(
    xi=st.floats(min_value=0.2, max_value=2.35),
    scale=st.floats(min_value=0.8, max_value=1.2),
    tilt=st.floats(min_value=-0.1, max_value=0.1),
)
def test_calibrate_noiseless_recovers_truth_over_domain(xi, scale, tilt):
    # the zero-field ratio J0(xi) runs from 0.99 down to 0.028 over this range
    data = synthetic_calibration_data(CAL_GRID, omega0z=W0Z, xi=xi, scale=scale, tilt=tilt)
    fit = calibrate(data, omega0z=W0Z)
    assert fit.xi == pytest.approx(xi, abs=1e-8)
    assert fit.scale == pytest.approx(scale, abs=1e-8)
    assert fit.tilt == pytest.approx(tilt, abs=1e-8)
