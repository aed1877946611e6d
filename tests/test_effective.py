from dataclasses import replace
import math
from pathlib import Path
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.fft
import scipy.integrate

from dressedspin.config import dimensionless
from dressedspin.effective import (
    L_X,
    L_Y,
    L_Z,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _dressing_frame_field,
    _p1_norm_maxes,
    _p1_vector,
    bare_precession,
    floquet_first_order,
    larmor_frequency,
    rectified_field,
)
from dressedspin import effective, special
from dressedspin.configfile import apply_overrides, load_config
from dressedspin.errors import SeriesNotConverged
from dressedspin.special import bessel_j, f_aux

from conftest import KHZ, make_config

J0_ROOT = 2.404825557695773


def test_pure_dressing_attenuates_yz_only():
    cfg = make_config(10.0, xi=1.7, w0_khz=(1.0, 0.8, 0.6))
    f = rectified_field(cfg)
    j0 = bessel_j(0, 1.7)
    assert f.hx == pytest.approx(1.0 * KHZ, rel=1e-14)
    assert f.hy == pytest.approx(j0 * 0.8 * KHZ, rel=1e-14)
    assert f.hz == pytest.approx(j0 * 0.6 * KHZ, rel=1e-14)


def test_even_harmonic_quarter_phase_kills_tuning_term():
    # p = 2, Phi = pi/2: cos(Phi) = 0, so only J0*omega0z survives
    cfg = make_config(10.0, xi=1.2, w0_khz=(0, 0, 2.040), tuning=(("y", 2.23, 2, math.pi / 2),))
    f = rectified_field(cfg)
    assert abs(f.hy) < 1e-12 * 2.23 * KHZ
    assert f.hz == pytest.approx(bessel_j(0, 1.2) * 2.040 * KHZ, rel=1e-14)


def test_collapse_point_leaves_pure_tuning_field():
    # at the first J0 zero the static response is gone; h_z = A*J_1(xi*)
    cfg = make_config(9.0, xi=J0_ROOT, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    f = rectified_field(cfg)
    assert f.hx == 0.0
    assert abs(f.hy) < 1e-12 * KHZ
    assert f.hz / KHZ == pytest.approx(4.97 * 0.5191474972894467, rel=1e-12)
    assert f.hz / KHZ == pytest.approx(2.5801630615, rel=1e-9)


def test_larmor_undressed_limit():
    cfg = make_config(10.0, xi=0.0, w0_khz=(1.0, 2.0, 2.0))
    assert larmor_frequency(cfg) == pytest.approx(3.0 * KHZ, rel=1e-14)


def test_larmor_even_harmonic_near_j0_extremum():
    # p = 2, xi = 3.83, Phi = pi/2: only the J0-attenuated static term is left
    cfg = make_config(10.0, xi=3.83, w0_khz=(0, 0, 2.040), tuning=(("y", 2.23, 2, math.pi / 2),))
    assert larmor_frequency(cfg) == pytest.approx(abs(bessel_j(0, 3.83)) * 2.040 * KHZ, rel=1e-12)


def test_larmor_exceeds_collapsed_value_at_j0_zero():
    cfg = make_config(9.0, xi=J0_ROOT, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    # the tuning field sustains precession where pure dressing collapses it
    assert larmor_frequency(cfg) == pytest.approx(4.97 * KHZ * bessel_j(1, J0_ROOT), rel=1e-12)
    assert larmor_frequency(cfg) > 0.5 * 4.97 * KHZ


def test_odd_even_special_cases(rng):
    for _ in range(25):
        xi = float(rng.uniform(0.2, 4.5))
        p = int(rng.integers(1, 4))
        Phi = float(rng.uniform(0, 2 * np.pi))
        w0z = float(rng.uniform(0.5, 3.0))
        amp = float(rng.uniform(0.5, 5.0))
        cfg = make_config(9.0, xi=xi, w0_khz=(0, 0, w0z), tuning=(("y", amp, p, Phi),))
        j0, jp = bessel_j(0, xi), bessel_j(p, xi)
        if p % 2:
            expected = abs(w0z * j0 + amp * jp * math.sin(Phi)) * KHZ
        else:
            expected = math.hypot(amp * jp * math.cos(Phi), w0z * j0) * KHZ
        assert larmor_frequency(cfg) == pytest.approx(expected, rel=1e-12)


def test_bare_precession():
    assert bare_precession(0.0, 2.0 * KHZ, 0.0) == pytest.approx(2.0 * KHZ, rel=1e-15)
    assert bare_precession(1.5 * KHZ, 0.0, 3.3) == pytest.approx(1.5 * KHZ, rel=1e-15)
    assert bare_precession(0.0, 2.0 * KHZ, J0_ROOT) < 2.0 * KHZ * 1e-12


def test_x_axis_never_attenuated(rng):
    for _ in range(20):
        cfg = make_config(
            10.0,
            xi=float(rng.uniform(0, 6)),
            w0_khz=(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))),
            tuning=(("y", float(rng.uniform(0, 4)), int(rng.integers(1, 4)), float(rng.uniform(0, 6))),),
        )
        assert rectified_field(cfg).hx == cfg.static.omega0x


def test_x_axis_tuning_contributes_nothing_first_order():
    base = make_config(10.0, xi=2.1, w0_khz=(0.5, 0.7, 1.1))
    with_x = make_config(
        10.0, xi=2.1, w0_khz=(0.5, 0.7, 1.1), tuning=(("x", 2.0, 3, 0.8),)
    )
    fb, fx = rectified_field(base), rectified_field(with_x)
    assert (fb.hx, fb.hy, fb.hz) == (fx.hx, fx.hy, fx.hz)
    # and the rotated x drive indeed has zero period average
    val, _ = scipy.integrate.quad(lambda t: math.cos(3 * t + 0.8), 0, 2 * math.pi)
    assert abs(val) < 1e-12


def test_cylindrical_symmetry_without_tuning(rng):
    # with all tuning off, Omega_L depends on (w0y, w0z) only through the modulus
    xi = 1.9
    r = 2.5
    base = larmor_frequency(make_config(10.0, xi=xi, w0_khz=(0.7, r, 0.0)))
    for _ in range(15):
        ang = float(rng.uniform(0, 2 * np.pi))
        cfg = make_config(10.0, xi=xi, w0_khz=(0.7, r * math.cos(ang), r * math.sin(ang)))
        assert larmor_frequency(cfg) == pytest.approx(base, rel=1e-12)


def test_phase_periodicity():
    for p in (1, 2):
        for Phi in (0.3, 1.7, 4.4):
            cfg = make_config(10.0, xi=1.3, w0_khz=(0, 0, 2.0), tuning=(("y", 1.5, p, Phi),))
            shifted = make_config(
                10.0, xi=1.3, w0_khz=(0, 0, 2.0), tuning=(("y", 1.5, p, Phi + 2 * math.pi),)
            )
            assert larmor_frequency(shifted) == pytest.approx(larmor_frequency(cfg), rel=1e-12)
        if p % 2 == 0:
            for Phi in (0.3, 1.7):
                a = larmor_frequency(
                    make_config(10.0, xi=1.3, w0_khz=(0, 0, 2.0), tuning=(("y", 1.5, p, Phi),))
                )
                b = larmor_frequency(
                    make_config(
                        10.0, xi=1.3, w0_khz=(0, 0, 2.0), tuning=(("y", 1.5, p, Phi + math.pi),)
                    )
                )
                # exact identity; allow only floating rounding of cos at shifted arguments
                assert b == pytest.approx(a, rel=1e-14)


def _interaction_field(bundle, tau):
    """Independent A(tau) field components: rotate the lab drive by the
    accumulated dressing angle about x (derived from first principles)."""
    ph = bundle.xi * math.sin(tau)
    cph, sph = math.cos(ph), math.sin(ph)
    fx, fy, fz = bundle.w0
    for t in bundle.tuning:
        drive = t.strength * math.cos(t.harmonic * tau + t.phase)
        if t.axis == "x":
            fx += drive
        elif t.axis == "y":
            fy += drive
        else:
            fz += drive
    return (fx, fy * cph + fz * sph, -fy * sph + fz * cph)


def test_parity_table_against_quadrature(rng):
    # all four (p parity, r parity) cells of the y/z tuning table
    for p, r in ((2, 2), (3, 3), (2, 3), (3, 2)):
        xi = float(rng.uniform(0.4, 3.5))
        phy = float(rng.uniform(0, 2 * np.pi))
        phz = float(rng.uniform(0, 2 * np.pi))
        w0 = tuple(float(v) for v in rng.uniform(-0.4, 0.4, 3))
        cfg = make_config(
            10.0,
            xi=xi,
            w0_khz=w0,
            tuning=(("y", 0.37, p, phy), ("z", 0.29, r, phz), ("x", 0.5, 4, 0.8)),
        )
        bundle = dimensionless(cfg)
        f = rectified_field(cfg)
        for i, expected in enumerate((f.hx, f.hy, f.hz)):
            val, _ = scipy.integrate.quad(
                lambda t, i=i: _interaction_field(bundle, t)[i], 0, 2 * math.pi, limit=400
            )
            assert val / (2 * math.pi) * 10.0 * KHZ == pytest.approx(expected, abs=1e-9 * KHZ)


@settings(deadline=None, max_examples=200)
@given(
    w0=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    axes=st.lists(st.sampled_from("xyz"), max_size=3, unique=True),
    amplitudes=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
    harmonics=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3),
    xi=st.floats(0.0, 6.0),
)
def test_rectified_field_is_the_period_mean_of_the_dressing_frame_field(w0, axes, amplitudes, harmonics, phases, xi):
    # h is the zeroth Fourier coefficient of the dressing-frame field.  That
    # field is a trigonometric polynomial whose coefficients beyond order
    # |xi| + p_max die off like Bessel tails, so the mean over N >= 4(xi +
    # p_max) + 64 uniform points is its period mean to rounding (worst seen:
    # 1.4e-16 of omega over 2,000 random draws).  Every parity cell, the x
    # axis and the static field are covered; a wrong sign or cell is off by
    # the size of a field component.
    tuning = tuple(zip(axes, amplitudes, harmonics, phases))
    cfg = make_config(10.0, xi=xi, w0_khz=w0, tuning=tuning)
    bundle = dimensionless(cfg)
    p_max = max((t.harmonic for t in bundle.tuning), default=0)
    n = 4 * math.ceil(bundle.xi + p_max) + 64
    mean = _dressing_frame_field([bundle], 2.0 * math.pi * np.arange(n) / n)[:, 0].mean(axis=1)
    f = rectified_field(cfg)
    assert np.max(np.abs(mean - np.array([f.hx, f.hy, f.hz]) / cfg.dressing.omega)) <= 1e-15


def test_floquet_zero_config():
    cfg = make_config(10.0)
    flo = floquet_first_order(cfg)
    assert np.all(flo.lambda1 == 0)
    assert flo.p1_norm_max == 0.0


def test_floquet_eigenvalues_spin_half():
    cfg = make_config(9.0, xi=1.0, w0_khz=(0, 0, 2.040), tuning=(("y", 4.25, 3, math.pi / 2),))
    flo = floquet_first_order(cfg)
    eig = np.sort(np.linalg.eigvalsh(flo.lambda1))
    omega_l = larmor_frequency(cfg)
    assert eig[1] == pytest.approx(omega_l / (2 * 9.0 * KHZ), rel=1e-12)
    assert eig[0] == pytest.approx(-eig[1], rel=1e-12)


def test_floquet_spin_one_matches_spin_half():
    for spin in ("half", "one"):
        cfg = make_config(
            9.0, xi=1.0, w0_khz=(0.5, 0, 2.040), tuning=(("y", 4.25, 3, math.pi / 2),), spin=spin
        )
        # largest |eigenvalue|: Omega_L/(2 omega) for spin half, Omega_L/omega for spin one
        top = float(np.max(np.abs(np.linalg.eigvals(floquet_first_order(cfg).lambda1))))
        per_omega = 2.0 * top if spin == "half" else top
        assert per_omega * 9.0 * KHZ == pytest.approx(larmor_frequency(cfg), rel=1e-12)
    # spin-one spectrum is {0, +-i Omega_L/omega}
    cfg = make_config(9.0, xi=1.0, w0_khz=(0.5, 0, 2.040), spin="one")
    eig = np.linalg.eigvals(floquet_first_order(cfg).lambda1)
    imag = np.sort(eig.imag)
    assert imag[1] == pytest.approx(0.0, abs=1e-15)
    assert imag[2] == pytest.approx(-imag[0], rel=1e-12)


def test_p1_norm_reported():
    cfg = make_config(10.0, xi=1.8, w0_khz=(0, 0, 0.5), tuning=(("y", 0.5, 1, math.pi / 2),))
    flo = floquet_first_order(cfg)
    assert 0.0 < flo.p1_norm_max < 1.0


@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("name", ["anisotropy", "collapse", "even-harmonic", "odd-harmonic"])
def test_p1_diagnostic_runs_few_bessel_recurrences(name, spin):
    # With the memo caches cleared, one 129-point P1 diagnostic runs three
    # recurrences at most: J_0 and the tuning harmonic's J_m for h, and one
    # table shared by f1, f2 and g.  g's coefficients are built once per
    # y or z tuning component.
    cfg = apply_overrides(load_config(Path(__file__).parent.parent / "configs" / f"{name}.cfg"), [f"spin={spin}"])
    special._bessel_table.cache_clear()
    special._g_coefficients.cache_clear()
    floquet_first_order(cfg)
    assert special._bessel_table.cache_info().misses <= 3
    assert special._g_coefficients.cache_info().misses == sum(t.axis != "x" for t in cfg.tuning)


def _reference_p1_norm_max(config, taus):
    """P1 = v.sigma/2 or v.L with v from f1..f4 one by one, and its spectral
    norm by SVD at every tau."""
    b = dimensionless(config)
    _, w0y, w0z = b.w0
    worst = 0.0
    for tau in taus:
        f1, f2 = f_aux(1, tau, b.xi), f_aux(2, tau, b.xi)
        vx, vy, vz = 0.0, w0y * f1 + w0z * f2, -w0y * f2 + w0z * f1
        for t in b.tuning:
            m, ph = t.harmonic, t.phase
            if t.axis == "x":
                vx += t.strength * (math.sin(m * tau + ph) - math.sin(ph)) / m
            elif t.axis == "y":
                vy += t.strength * f_aux(3, tau, b.xi, m, ph)
                vz -= t.strength * f_aux(4, tau, b.xi, m, ph)
            else:  # on z the roles of f3 and f4 swap
                vy += t.strength * f_aux(4, tau, b.xi, m, ph)
                vz += t.strength * f_aux(3, tau, b.xi, m, ph)
        if config.spin == "half":
            mat = 0.5 * (vx * PAULI_X + vy * PAULI_Y + vz * PAULI_Z)
        else:
            mat = vx * L_X + vy * L_Y + vz * L_Z
        worst = max(worst, float(np.linalg.norm(mat, 2)))
    return worst


@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize(
    "tuning",
    [
        (("x", 1.1, 2, 0.3), ("y", 0.7, 1, 1.2), ("z", 0.9, 3, 0.4)),
        (("z", 1.3, 2, 2.1),),
        (("x", 0.8, 1, 0.0), ("z", 0.6, 1, -0.7)),
    ],
)
def test_p1_norm_matches_matrix_svd_reference(tuning, spin):
    cfg = make_config(9.0, xi=1.7, w0_khz=(0.4, 0.3, 2.040), tuning=tuning, spin=spin)
    taus = np.linspace(0.0, 2.0 * math.pi, 33)
    got = floquet_first_order(cfg, tau_grid=taus).p1_norm_max
    assert got == pytest.approx(_reference_p1_norm_max(cfg, taus), rel=1e-14, abs=0.0)


def _spectral_p1_vectors(bundle, taus, n=1024):
    """P1 vectors at taus from the Fourier coefficients C_k of the interaction
    field on n uniform points (scipy.fft): the periodic part of its integral,
    sum over k != 0 of C_k (exp(i k tau) - 1)/(i k).  No Bessel function or
    series truncation enters; n = 1024 resolves every harmonic of the field
    for |xi| + p up to about 400."""
    grid = 2.0 * math.pi * np.arange(n) / n
    coef = scipy.fft.fft(np.array([_interaction_field(bundle, t) for t in grid]).T, axis=1) / n
    k = scipy.fft.fftfreq(n, 1.0 / n)[1:]
    return ((coef[:, 1:] / (1j * k)) @ (np.exp(1j * np.outer(k, taus)) - 1.0)).real


@pytest.mark.parametrize("xi", [0.0, 1.833, 10.0])
@pytest.mark.parametrize("p", [65, 100, 171])
def test_p1_at_harmonics_past_64_matches_spectral_reference(p, xi):
    # g's series may stop only past level p - 1, beyond the default cap of 64
    # levels here.  The tuning terms are as large as the static ones (worst
    # seen: 1.0e-13 of the largest |v|).
    cfg = make_config(
        9.0, xi=xi, w0_khz=(0.4, 0.3, 2.040), tuning=(("y", 40.0, p, 0.7), ("z", 25.0, p, 2.1), ("x", 5.0, p, 0.3))
    )
    bundle = dimensionless(cfg)
    taus = np.linspace(0.0, 2.0 * math.pi, 129)
    want = _spectral_p1_vectors(bundle, taus)
    scale = float(np.max(np.linalg.norm(want, axis=0)))
    got = np.array([_p1_vector(bundle, float(t)) for t in taus]).T
    assert np.max(np.abs(got - want)) <= 1e-10 * scale
    assert floquet_first_order(cfg).p1_norm_max == pytest.approx(0.5 * scale, rel=1e-10)


# The batched P1 table against the series route of floquet_first_order.  Over
# xi 0..60 in steps of 0.25 on every shipped config the worst gap was
# 3.6e-12 relative (even-harmonic, xi = 50.75); the table moved by at most
# 8.8e-15 when its samples were raised eightfold, so the gap is the series'
# truncation envelope, not the table's.
P1_TABLE_RTOL = 1e-11
CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _xi_configs(name, spin, xis):
    base = apply_overrides(load_config(CONFIG_DIR / f"{name}.cfg"), [f"spin={spin}"])
    return [replace(base, dressing=replace(base.dressing, omega_d=xi * base.dressing.omega)) for xi in xis]


@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("name", ["anisotropy", "collapse", "even-harmonic", "odd-harmonic"])
def test_p1_table_matches_series_to_xi_60(name, spin):
    configs = _xi_configs(name, spin, [0.0, 0.7, 1.833, 2.405, 5.0, 12.3, 25.0, 37.8, 49.0, 50.75, 57.0, 60.0])
    got = _p1_norm_maxes([dimensionless(c) for c in configs], [spin] * len(configs))
    for config, value in zip(configs, got):
        want = floquet_first_order(config).p1_norm_max
        assert value == pytest.approx(want, rel=P1_TABLE_RTOL, abs=1e-300)


def test_p1_table_is_converged_in_its_samples(monkeypatch):
    configs = [c for name in ("even-harmonic", "odd-harmonic") for c in _xi_configs(name, "half", [1.833, 50.75, 60.0])]
    bundles = [dimensionless(c) for c in configs]
    got = _p1_norm_maxes(bundles, ["half"] * len(bundles))
    samples = effective._p1_samples
    monkeypatch.setattr(effective, "_p1_samples", lambda bundle: 8 * samples(bundle))
    finer = _p1_norm_maxes(bundles, ["half"] * len(bundles))
    np.testing.assert_allclose(got, finer, rtol=5e-14, atol=0.0)


@pytest.mark.parametrize("xi", [0.0, 1.833, 10.0])
@pytest.mark.parametrize("p", [65, 100, 171])
def test_p1_table_at_harmonics_past_64(p, xi):
    # the configs of the series' spectral-reference test above (worst seen
    # against the series: 1.4e-13 relative)
    cfg = make_config(
        9.0, xi=xi, w0_khz=(0.4, 0.3, 2.040), tuning=(("y", 40.0, p, 0.7), ("z", 25.0, p, 2.1), ("x", 5.0, p, 0.3))
    )
    bundle = dimensionless(cfg)
    want = _spectral_p1_vectors(bundle, 2.0 * math.pi * np.arange(128) / 128)
    got = effective._p1_vectors([bundle], effective._p1_samples(bundle))[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    half, one = _p1_norm_maxes([bundle, bundle], ["half", "one"])
    assert half == pytest.approx(floquet_first_order(cfg).p1_norm_max, rel=P1_TABLE_RTOL)
    assert one == 2.0 * half


def test_p1_table_past_its_sample_cap_gives_series_not_converged():
    # 4 (xi + p) + 64 > 65536 samples per period from xi + p = 16368 on
    below, beyond = (dimensionless(c) for c in _xi_configs("odd-harmonic", "half", [16366.0, 16368.0]))
    ok, err = _p1_norm_maxes([below, beyond], ["half", "half"])
    assert isinstance(ok, float) and ok > 0.0
    assert isinstance(err, SeriesNotConverged)
    assert "65536" in str(err)


def test_p1_table_memory_does_not_grow_with_the_batch():
    # the table runs in passes of _P1_PASS_SAMPLES samples: ten times the
    # points leave the peak of the traced allocations nearly where it was
    # (1.24 MB at 120 points, 1.48 MB at 1,200; in one pass 2.2 and 22 MB)
    peaks = []
    for n in (120, 1200):
        bundles = [dimensionless(c) for c in _xi_configs("odd-harmonic", "half", np.linspace(0.6, 5.0, n))]
        tracemalloc.start()
        _p1_norm_maxes(bundles, ["half"] * n)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_eta_diagnostic():
    cfg = make_config(30.0, xi=1.833, w0_khz=(3.0, 0, 5.979), tuning=(("y", 0.354, 1, math.pi / 2),))
    assert rectified_field(cfg).eta == pytest.approx(5.979 / 30.0, rel=1e-12)
