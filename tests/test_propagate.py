import contextlib
from functools import partial
import math
import pathlib

import numpy as np
import pytest
from scipy.linalg import expm

from dressedspin import propagate
from dressedspin.config import dimensionless, validate
from dressedspin.configfile import apply_overrides, load_config
from dressedspin.effective import (
    L_X,
    L_Y,
    L_Z,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _dressing_frame_field,
    larmor_frequency,
    rectified_field,
)
from dressedspin.special import bessel_j
from dressedspin.errors import NoConvergence, UnitarityLost
from dressedspin.propagate import (
    QuasiEnergy,
    analytic_coherences,
    monodromy_quasienergy,
    propagate_bloch_spin1,
    propagate_spin_half,
)

from conftest import KHZ, fold, lab_bundle, lab_frame, make_config

J0_ROOT = 2.404825557695773
TWO_PI = 2 * math.pi
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("anisotropy", "collapse", "even-harmonic", "odd-harmonic")


def test_zero_drive_freezes_state():
    cfg = make_config(10.0)
    series = propagate_spin_half(cfg, 1e-3, 64)
    assert np.allclose(series.sx, 1.0, atol=1e-12)
    assert np.allclose(series.sy, 0.0, atol=1e-12)
    assert np.allclose(series.sz, 0.0, atol=1e-12)


def test_bare_larmor_precession():
    cfg = make_config(10.0, w0_khz=(0, 0, 2.0))
    t_end = 3.0 / 2000.0  # six precession periods
    series = propagate_spin_half(cfg, t_end, 300)
    expected = np.cos(2.0 * KHZ * series.times)
    assert np.max(np.abs(series.sx - expected)) < 1e-8


def test_pure_state_norm_invariant():
    cfg = make_config(9.0, xi=2.0, w0_khz=(0.3, 0, 2.040), tuning=(("y", 1.0, 1, 0.4),))
    series = propagate_spin_half(cfg, 2e-3, 200)
    r2 = series.sx**2 + series.sy**2 + series.sz**2
    assert np.max(np.abs(r2 - 1.0)) < propagate._DRIFT_TOL


def test_monodromy_zero_drive():
    qe = monodromy_quasienergy(make_config(10.0))
    assert qe.omega_L_numeric == pytest.approx(0.0, abs=1e-12)
    assert qe.alias_ambiguous  # eigenphase sits exactly on the branch edge


def test_monodromy_static_field_exact():
    cfg = make_config(10.0, w0_khz=(0, 0, 0.2))  # omega0z/omega = 0.02
    qe = monodromy_quasienergy(cfg)
    assert qe.omega_L_numeric == pytest.approx(0.2 * KHZ, rel=1e-9)
    assert not qe.alias_ambiguous
    assert qe.monodromy_unitarity_error < 1e-9


def test_monodromy_matches_first_order_in_perturbative_regime():
    cfg = make_config(10.0, xi=1.8, w0_khz=(0, 0, 0.1), tuning=(("y", 0.1, 1, math.pi / 2),))
    qe = monodromy_quasienergy(cfg)
    assert qe.omega_L_numeric == pytest.approx(larmor_frequency(cfg), rel=2e-4)


def test_monodromy_deviates_below_validity():
    # strong tuning at small xi: the first-order formula is off by percent
    cfg = make_config(9.0, xi=0.3, w0_khz=(0, 0, 2.040), tuning=(("y", 4.97, 1, math.pi / 2),))
    qe = monodromy_quasienergy(cfg)
    pert = larmor_frequency(cfg)
    rel_dev = abs(qe.omega_L_numeric - pert) / pert
    assert rel_dev > 0.02


def test_even_harmonic_quasienergy_residual_small():
    # xi = 3.83 even-harmonic working point: monodromy vs the closed form;
    # the gap is the higher-order residual, recorded here at ~0.4%
    cfg = make_config(10.0, xi=3.83, w0_khz=(0, 0, 2.040), tuning=(("y", 2.23, 2, 0.0),))
    qe = monodromy_quasienergy(cfg)
    closed = math.hypot(2.23 * bessel_j(2, 3.83), 2.040 * bessel_j(0, 3.83)) * KHZ
    rel = abs(qe.omega_L_numeric - closed) / closed
    assert rel < 0.01
    assert rel == pytest.approx(4.15e-3, abs=1.5e-3)


def test_period_consistency():
    # U(k T + s) = U(s) M^k against RK4 straight through three periods,
    # including whole periods, where tau - 2 pi k may round below zero
    cfg = make_config(9.0, xi=1.8, w0_khz=(0.2, 0.1, 2.040), tuning=(("y", 1.0, 2, 0.9),))
    bundle = dimensionless(cfg)
    taus = np.array([1.0, TWO_PI, TWO_PI + 1.0, 2 * TWO_PI, 2 * TWO_PI + 1.0, 3 * TWO_PI])
    psi0 = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
    got = _series_states(bundle, taus, psi0, 512)
    want = _reference_su2_targets(bundle, taus, 4096) @ psi0
    assert np.max(np.abs(got - want)) <= 1e-12


def test_pure_dressing_is_the_frame_rotation():
    # without static or tuning fields the dressing-frame field vanishes, so
    # the propagator is exp(-i xi sin(tau) sigma_x/2) alone: exactly the
    # identity at whole periods
    cfg = make_config(9.0, xi=2.4)
    bundle = dimensionless(cfg)
    xi = bundle.xi
    grid = propagate._grid([bundle], propagate._STEPS_PER_PERIOD)
    frame = propagate._integrate_targets([bundle], np.array([[1.0, TWO_PI]]), grid)
    assert np.array_equal(frame, np.broadcast_to(np.eye(2)[:, :, None, None], frame.shape))
    psi0 = np.array([0.6, 0.8j])
    state = _series_states(bundle, [1.0], psi0, propagate._STEPS_PER_PERIOD)[0]
    assert np.max(np.abs(state - expm(-0.5j * xi * math.sin(1.0) * PAULI_X) @ psi0)) <= 1e-15
    assert np.array_equal(_series_states(bundle, [2 * TWO_PI], psi0, 64), psi0[None])


def test_collapse_quasienergy_tiny():
    cfg = make_config(9.0, xi=J0_ROOT, w0_khz=(0, 0, 0.09))
    qe = monodromy_quasienergy(cfg)
    assert qe.omega_L_numeric <= 2e-4 * 9.0 * KHZ
    assert qe.alias_ambiguous


def test_unitarity_lost_raised(monkeypatch):
    cfg = make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040))
    monkeypatch.setattr(propagate, "_DRIFT_TOL", 1e-16)
    with pytest.raises(UnitarityLost):
        propagate_spin_half(cfg, 2e-3, 100)


def test_bloch_unitarity_lost_raised(monkeypatch):
    cfg = make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040), spin="one")
    monkeypatch.setattr(propagate, "_DRIFT_TOL", 1e-16)
    with pytest.raises(UnitarityLost):
        propagate_bloch_spin1(cfg, 2e-3, 100)


def test_drift_is_one_measure_for_both_spins(monkeypatch):
    # |psi| = 1 + 6e-10 is within 1e-9 of 1, but |<sigma>| = |psi|^2, which
    # is |M| for spin one, is not
    assert propagate._DRIFT_TOL == 1e-9
    sampled = propagate._sampled_series
    monkeypatch.setattr(propagate, "_sampled_series", lambda *plan: lambda *level: sampled(*plan)(*level) * (1.0 + 6e-10))
    for spin, run in (("half", propagate_spin_half), ("one", propagate_bloch_spin1)):
        with pytest.raises(UnitarityLost, match=r"series unitarity error 1\.2"):
            run(make_config(10.0, w0_khz=(0, 0, 2.0), spin=spin), 1e-3, 50)


def test_no_convergence_raised(monkeypatch):
    cfg = make_config(9.0, xi=3.0, w0_khz=(0, 0, 2.040))
    # generous drift allowance so only the (unreachable) series tolerance fails
    monkeypatch.setattr(propagate, "_STEPS_PER_PERIOD", 64)
    monkeypatch.setattr(propagate, "_REL_TOL", 1e-15)
    monkeypatch.setattr(propagate, "_MAX_REFINEMENTS", 1)
    monkeypatch.setattr(propagate, "_DRIFT_TOL", 1e-2)
    with pytest.raises(NoConvergence):
        propagate_spin_half(cfg, 2e-3, 100)


def test_monodromy_no_convergence_raised(monkeypatch):
    monkeypatch.setattr(propagate, "_REL_TOL", 1e-15)
    monkeypatch.setattr(propagate, "_MAX_REFINEMENTS", 1)
    with pytest.raises(NoConvergence, match="after 1 refinements"):
        monodromy_quasienergy(make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040)))


def test_batch_gives_each_point_its_own_result_or_error(monkeypatch):
    # with one refinement, xi = 2 needs more steps than it gets and xi = 0.5
    # does not: in one batch each gets what it gets alone, the error with
    # its type and message
    monkeypatch.setattr(propagate, "_MAX_REFINEMENTS", 1)
    configs = [make_config(9.0, xi=xi, w0_khz=(0, 0, 25.0), tuning=(("y", 4.97, 1, math.pi / 2),)) for xi in (0.5, 2.0)]
    bundles, omegas = [dimensionless(c) for c in configs], [c.dressing.omega for c in configs]
    for batch, single in (
        (lambda: propagate._quasienergies(bundles, omegas), monodromy_quasienergy),
        (lambda: propagate._series(bundles, omegas, [3e-4] * 2, 300), lambda c: propagate_spin_half(c, 3e-4, 300)),
    ):
        ok, failed = batch()
        alone = single(configs[0])
        assert type(ok) is type(alone)
        for name in alone.__dataclass_fields__:
            assert np.array_equal(getattr(ok, name), getattr(alone, name))
        with pytest.raises(NoConvergence) as raised:
            single(configs[1])
        assert type(failed) is NoConvergence
        assert str(failed) == str(raised.value)


@pytest.mark.parametrize("single, splitting", [(1, 0.0), (-1, 4.0)])
def test_floquet_splitting_breaks_ties_at_the_lowest_fft_index(single, splitting):
    # A synthetic 8-step grid whose entries are 0, +-1 and +-i, so every FFT
    # weight is exact.  M = I, so eps = 0 and the modes are the columns.
    # Column 0, (cos 2tau, i sin 2tau), weighs the same at harmonic +2 (FFT
    # index 2) and -2 (index 6), and the rule shifts its eps to -2.  Column 1,
    # (0, exp(+-2i tau)), sits at +-2 alone, so the other tie choice would
    # swap the two splittings.  In a batch beside a grid with no tie, whose
    # columns (exp(2i tau), 0) and (0, 1) sit at +2 and 0 alone, each point
    # keeps its own splitting.
    steps = 8
    u = np.array([1, 1j, -1, -1j] * 2 + [1])  # exp(2i tau_n), tau_n = 2 pi n/8
    grid = np.zeros((2, 2, 2, steps + 1), dtype=complex)
    grid[0, 0, 0] = (u + u.conj()) / 2
    grid[1, 0, 0] = (u - u.conj()) / 2
    grid[1, 1, 0] = u if single == 1 else u.conj()
    grid[0, 0, 1] = u
    grid[1, 1, 1] = 1.0
    weight = np.sum(np.abs(np.fft.fft(grid[..., :-1])) ** 2, axis=0)
    assert weight[0, 0, 2] == weight[0, 0, 6] == weight[0, 0].max()
    assert np.sum(weight[:, 1] == weight[:, 1].max(axis=-1, keepdims=True)) == 2
    assert propagate._floquet_splitting(grid[:, :, :1]).tolist() == [splitting]
    assert propagate._floquet_splitting(grid).tolist() == [splitting, 2.0]
    assert propagate._floquet_splitting(grid[:, :, ::-1]).tolist() == [2.0, splitting]


def test_monodromy_unitarity_lost_raised(monkeypatch):
    # the frequency settles after one doubling, but an unreachable unitarity
    # bound keeps the step-halving going to its last refinement
    cfg = make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040))
    steps = []
    grid = propagate._grid

    def counting(bundle, n):
        steps.append(n)
        return grid(bundle, n)

    monkeypatch.setattr(propagate, "_grid", counting)
    monodromy_quasienergy(cfg)
    assert steps == [128, 256]
    steps.clear()
    monkeypatch.setattr(propagate, "_DRIFT_TOL", 1e-18)
    with pytest.raises(UnitarityLost, match=r"monodromy unitarity error .* after 6 refinements \(8192 steps/period\)"):
        monodromy_quasienergy(cfg)
    assert steps == [128 * 2**k for k in range(7)]


def test_propagate_argument_validation():
    cfg = make_config(10.0)
    with pytest.raises(ValueError):
        propagate_spin_half(cfg, -1.0, 100)
    with pytest.raises(ValueError):
        propagate_spin_half(cfg, 1e-3, 1)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("series", [analytic_coherences, propagate_spin_half])
def test_series_require_a_finite_positive_t_end(series, t_end):
    with pytest.raises(ValueError, match="t_end must be finite and > 0"):
        series(make_config(10.0, w0_khz=(0, 0, 2.0)), t_end, 4)


def test_bloch_requires_spin_one():
    with pytest.raises(ValueError):
        propagate_bloch_spin1(make_config(10.0), 1e-3, 10)


def test_bloch_zero_drive():
    cfg = make_config(10.0, spin="one")
    series = propagate_bloch_spin1(cfg, 1e-3, 50)
    assert np.allclose(series.sx, 1.0, atol=1e-12)


def test_bloch_bare_larmor():
    cfg = make_config(10.0, w0_khz=(0, 0, 2.0), spin="one")
    series = propagate_bloch_spin1(cfg, 2e-3, 400)
    expected_x = np.cos(2.0 * KHZ * series.times)
    assert np.max(np.abs(series.sx - expected_x)) < 1e-8
    assert np.max(np.abs(series.sz)) < 1e-10  # Mz stays put
    norm = np.sqrt(series.sx**2 + series.sy**2 + series.sz**2)
    assert np.max(np.abs(norm - 1.0)) < 1e-9


def test_spin_one_matches_spin_half_quasienergy():
    # both spins read one 2x2 monodromy: every field is equal, not just close
    for name in SHIPPED:
        assert monodromy_quasienergy(_shipped(name, "one")) == monodromy_quasienergy(_shipped(name, "half"))


@pytest.mark.parametrize("multiple", [0.5, 1.5])
def test_alias_flag_at_half_odd_multiples_of_omega(multiple):
    # a static z field at Omega_L = omega/2 or 3 omega/2 puts the eigenphases
    # at +-pi/2 (mod 2 pi), far from a branch edge: no alias, for either spin
    cfg = make_config(10.0, w0_khz=(0, 0, 10.0 * multiple))
    qe = monodromy_quasienergy(cfg)
    assert qe.omega_L_numeric == pytest.approx(multiple * 10.0 * KHZ, rel=1e-12)
    assert not qe.alias_ambiguous
    assert monodromy_quasienergy(make_config(10.0, w0_khz=(0, 0, 10.0 * multiple), spin="one")) == qe


def test_analytic_pure_cosine_when_hx_zero():
    cfg = make_config(10.0, xi=1.5, w0_khz=(0, 0, 1.0), tuning=(("y", 1.0, 1, 0.7),))
    omega_l = larmor_frequency(cfg)
    series = analytic_coherences(cfg, 3.0 * TWO_PI / omega_l, 256)
    assert np.allclose(series.sx, np.cos(omega_l * series.times), atol=1e-12)
    assert not series.degenerate_field


def test_analytic_field_along_x_freezes_sx():
    cfg = make_config(10.0, xi=1.5, w0_khz=(1.0, 0, 0))
    series = analytic_coherences(cfg, 1e-3, 128)
    assert np.allclose(series.sx, 1.0, atol=1e-12)


def test_analytic_degenerate_field_flag():
    series = analytic_coherences(make_config(10.0), 1e-3, 64)
    assert series.degenerate_field
    assert np.all(series.sx == 1.0)
    assert np.all(series.sy == 0.0)


def test_analytic_offset_and_contrast_follow_field_components():
    cfg = make_config(
        30.0, xi=1.833, w0_khz=(3.0 / 16, 0, 5.979 / 16), tuning=(("y", 0.354 / 16, 1, math.pi / 2),)
    )
    f = rectified_field(cfg)
    offset = (f.hx / f.omega_L) ** 2
    series = analytic_coherences(cfg, 10 * TWO_PI / f.omega_L, 4096)
    # offset + contrast*cos form: extrema are offset +- contrast
    assert np.max(series.sx) == pytest.approx(1.0, abs=1e-6)
    assert np.min(series.sx) == pytest.approx(2.0 * offset - 1.0, abs=1e-3)


def test_analytic_vs_numeric_small_parameters():
    cfg = make_config(10.0, xi=1.8, w0_khz=(0, 0, 0.1), tuning=(("y", 0.1, 1, math.pi / 2),))
    omega_l = larmor_frequency(cfg)
    t_end = 10 * TWO_PI / omega_l
    samples = 4096
    num = propagate_spin_half(cfg, t_end, samples)
    ana = analytic_coherences(cfg, t_end, samples)
    for a, b in ((ana.sx, num.sx), (ana.sy, num.sy), (ana.sz, num.sz)):
        assert float(np.sqrt(np.mean((a - b) ** 2))) <= 0.02


def test_scaled_anisotropy_config_agrees_with_numerics():
    # tilted static field scaled into the perturbative regime (eta ~ 0.0125)
    s = 1.0 / 16.0
    cfg = make_config(
        30.0, xi=1.833, w0_khz=(3.0 * s, 0, 5.979 * s), tuning=(("y", 0.354 * s, 1, math.pi / 2),)
    )
    omega_l = larmor_frequency(cfg)
    qe = monodromy_quasienergy(cfg)
    assert abs(qe.omega_L_numeric - omega_l) <= 1e-3 * 30.0 * KHZ
    t_end = 10 * TWO_PI / omega_l
    num = propagate_spin_half(cfg, t_end, 4096)
    ana = analytic_coherences(cfg, t_end, 4096)
    assert float(np.sqrt(np.mean((ana.sx - num.sx) ** 2))) <= 0.02


def _shipped(name, spin):
    return validate(apply_overrides(load_config(CONFIGS / f"{name}.cfg"), [f"spin={spin}"]))


# Spin one is derived from the SU(2) propagator; the real 3x3 RK4 route of
# dM/dtau = b x M is kept here as an independent oracle.  The two routes
# truncate differently, so they agree to these tolerances, not bit for bit.
SERIES_ATOL = 1e-8  # per series cell, |M(0)| <= 2
PROPAGATOR_ATOL = 1e-10  # per rotation-matrix entry at 4096 steps/period
UNITARITY_ATOL = 1e-11  # monodromy unitarity error

# The SU(2) oracle below is classical RK4 in the dressing frame over each gap
# between targets, its steps multiplied in order as step matrices, with the
# frame generator derived here from the lab generator.  Against it, at 4096
# steps/period for both routes, the Magnus propagators differ by at most
# 4.8e-14 per entry and a sampled series over about 50 periods by 1.9e-12
# per state entry (largest seen on the shipped configs).
SU2_PROPAGATOR_ATOL = 1e-13  # per propagator entry at 4096 steps/period
SU2_STATE_ATOL = 1e-11  # per state entry of a sampled series over about 50 periods

# The oracles' own step-halving schedule, fixed here so that they do not
# move with the package's settings.
ORACLE_STEPS = 512
ORACLE_REFINEMENTS = 6

L_GEN = np.stack((L_X, L_Y, L_Z))
PAULI = np.stack((PAULI_X, PAULI_Y, PAULI_Z))


def _so3(u):
    """The rotation R_ij = tr(sigma_i U sigma_j U^dagger)/2 that a 2x2
    propagator U applies to <sigma>: the spin-one propagator of the same drive."""
    return 0.5 * np.einsum("iab,jba->ij", PAULI, u @ PAULI @ u.conj().T).real


def _lab_field(bundle, taus):
    """Lab-frame field b(tau), dressing term included, as a (len(taus), 3) array."""
    b = np.tile(np.asarray(bundle.w0, dtype=float), (len(taus), 1))
    b[:, 0] += bundle.xi * np.cos(taus)
    for t in bundle.tuning:
        b[:, "xyz".index(t.axis)] += t.strength * np.cos(t.harmonic * taus + t.phase)
    return b


def _bloch_generator_stack(bundle, taus):
    """b(tau).L at each tau, with the lab field b(tau) built here from the bundle."""
    return np.einsum("ni,ijk->njk", _lab_field(bundle, taus), L_GEN)


def _lab_generator_stack(bundle, taus):
    """Lab-frame -i b(tau).sigma/2 at each tau, with b(tau) built here from the bundle."""
    return np.einsum("ni,ijk->njk", _lab_field(bundle, taus), -0.5j * PAULI)


def _frame_generator_stack(bundle, taus):
    """Generator of U~ = W U, W = exp(+i phi sigma_x/2), phi = xi sin(tau):
    W A W^dagger + (dW/dtau) W^dagger with A the lab generator, one 2x2 matrix
    per tau along the first axis."""
    taus = np.asarray(taus, dtype=float)
    half = 0.5 * bundle.xi * np.sin(taus)[:, None, None]
    w = np.cos(half) * np.eye(2) + 1j * np.sin(half) * PAULI_X
    dphi = bundle.xi * np.cos(taus)[:, None, None]
    return w @ _lab_generator_stack(bundle, taus) @ w.conj().transpose(0, 2, 1) + 0.5j * dphi * PAULI_X


def _ordered_product(d):
    """D with I + D = (I + d[-1]) @ ... @ (I + d[0]) for an (m, n, n) stack,
    by pairwise products, (I + b)(I + a) = I + a + b + ba: each factor is
    kept as its difference from I, whose rounding does not pile up."""
    while len(d) > 1:
        a, b = d[:-1:2], d[1::2]
        pairs = a + b + b @ a
        d = np.concatenate((pairs, d[-1:])) if len(d) % 2 else pairs
    return d[0]


def _reference_integrate_targets(generator, targets, steps):
    """Per-gap RK4 through ascending targets at up to `steps` steps per
    period: each gap gets the fewest equal steps no longer than 2 pi/steps.
    The ODE is linear, so each RK4 step is a matrix, I + h/6 (K1 + 2 K2 +
    2 K3 + K4) with K1 = A(t), K2 = A(t + h/2)(I + h/2 K1), K3 = A(t + h/2)
    (I + h/2 K2) and K4 = A(t + h)(I + h K3).  The step matrices of every
    gap are built at once, as their differences from I, and each gap
    multiplies its own in order.

    With _lab_generator_stack or _bloch_generator_stack it is the lab-frame
    2x2 or real 3x3 route; _reference_su2_targets runs it in the dressing frame.
    """
    base_step = TWO_PI / steps
    targets = np.asarray(targets, dtype=float)
    prev = np.concatenate(([0.0], targets[:-1]))
    gaps = targets - prev
    counts = np.array([max(1, int(math.ceil(gap / base_step - 1e-12))) if gap > 0.0 else 0 for gap in gaps])
    hs = np.repeat(gaps / np.maximum(counts, 1), counts)
    t0 = np.repeat(prev, counts) + hs * (np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts))
    h = hs[:, None, None]
    ah = generator(t0 + 0.5 * hs)
    eye = np.eye(ah.shape[-1], dtype=ah.dtype)
    k1 = generator(t0)
    k2 = ah @ (eye + (0.5 * h) * k1)
    k3 = ah @ (eye + (0.5 * h) * k2)
    k4 = generator(t0 + hs) @ (eye + h * k3)
    increments = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # step matrix minus I
    U = eye
    out = []
    for end, m in zip(np.cumsum(counts), counts):
        if m:
            U = U + _ordered_product(increments[end - m : end]) @ U
        out.append(U.copy())
    return out


def _reference_su2_targets(bundle, targets, steps):
    """RK4 in the dressing frame, then the rotation exp(-i phi sigma_x/2) back
    to the lab frame, at ascending targets, also past 2 pi, as an (n, 2, 2)
    array: the one-bundle lab-frame propagators of _lab_targets."""
    mats = np.stack(_reference_integrate_targets(partial(_frame_generator_stack, bundle), targets, steps))
    angles = bundle.xi * np.sin(np.fmod(np.asarray(targets, dtype=float), TWO_PI))
    return expm(-0.5j * angles[:, None, None] * PAULI_X) @ mats


def _reference_frame_grid(bundles, steps):
    """RK4 in the dressing frame to every grid node, one step per gap: same
    signature and (2, 2, len(bundles), steps + 1) layout as propagate._grid."""
    nodes = TWO_PI / steps * np.arange(steps + 1)
    return np.stack(
        [np.stack(_reference_integrate_targets(partial(_frame_generator_stack, b), nodes, steps), axis=-1) for b in bundles],
        axis=2,
    )


def _reference_frame_targets(bundles, targets, grid):
    """RK4 in the dressing frame to each bundle's row of targets, taken in
    ascending order at the grid's steps per period: same signature and
    (2, 2, len(bundles), n) layout as propagate._integrate_targets."""
    steps = grid.shape[-1] - 1
    out = []
    for bundle, row in zip(bundles, targets):
        ascending, inverse = np.unique(row, return_inverse=True)
        mats = _reference_integrate_targets(partial(_frame_generator_stack, bundle), ascending, steps)
        out.append(np.stack(mats, axis=-1)[:, :, inverse])
    return np.stack(out, axis=2)


def _lab_targets(bundle, targets, steps):
    """propagate's dressing-frame propagators of one bundle at targets in
    [0, 2 pi], rotated here to the lab frame, as an (n, 2, 2) array."""
    targets = np.asarray(targets, dtype=float)
    frame = propagate._integrate_targets([bundle], targets[None], propagate._grid([bundle], steps))[:, :, 0]
    angles = bundle.xi * np.sin(np.fmod(targets, TWO_PI))
    return expm(-0.5j * angles[:, None, None] * PAULI_X) @ np.moveaxis(frame, -1, 0)


def _series_states(bundle, taus, psi0, steps):
    """propagate's sampled states of one bundle at taus and one step count, as an (n, 2) array."""
    at = propagate._sampled_series([bundle], np.asarray(taus, dtype=float)[None], psi0)
    return at(propagate._grid([bundle], steps), np.arange(1))[0]


def _reference_sampled_series(integrate, taus, psi0, steps):
    """Sample-by-sample assembly of U(s) M^k psi0, M^k one period at a time,
    with the propagators from integrate(targets, steps)."""
    ks = np.floor(taus / TWO_PI).astype(np.int64)
    ss = taus - TWO_PI * ks
    wrap = ss >= TWO_PI
    ks[wrap] += 1
    ss[wrap] -= TWO_PI
    unique_s = np.unique(ss)
    targets = list(unique_s)
    if targets[-1] < TWO_PI:
        targets.append(TWO_PI)
    mats = integrate(targets, steps)
    monodromy = mats[-1]
    lookup = {s: mats[i] for i, s in enumerate(unique_s)}
    states = np.empty((len(taus), psi0.shape[0]), dtype=monodromy.dtype)
    power = np.eye(monodromy.shape[0], dtype=monodromy.dtype)
    k_cur = 0
    for idx in np.argsort(ks, kind="stable"):
        while k_cur < ks[idx]:
            power = monodromy @ power
            k_cur += 1
        states[idx] = lookup[ss[idx]] @ (power @ psi0)
    return states


def _reference_bloch_series(cfg, t_end, samples):
    """propagate_bloch_spin1 along the real 3x3 route: same start M(0) = x_hat,
    sampling and |M| drift criterion, the oracle's own step-halving; returns M
    as (samples, 3)."""
    m0 = np.array([1.0, 0.0, 0.0])
    integrate = partial(_reference_integrate_targets, partial(_bloch_generator_stack, dimensionless(cfg)))
    taus = np.linspace(0.0, t_end, samples) * cfg.dressing.omega
    steps = ORACLE_STEPS
    prev = _reference_sampled_series(integrate, taus, m0, steps)
    for _ in range(ORACLE_REFINEMENTS):
        steps *= 2
        cur = _reference_sampled_series(integrate, taus, m0, steps)
        err = float(np.max(np.abs(cur - prev)))
        drift = float(np.max(np.abs(np.linalg.norm(cur, axis=1) - 1.0)))
        if err <= propagate._REL_TOL * max(1.0, float(np.max(np.abs(cur)))) and drift <= propagate._DRIFT_TOL:
            return cur
        prev = cur
    raise NoConvergence("reference series not converged")


def _reference_quasienergy_one(cfg):
    """monodromy_quasienergy for spin one along the real 3x3 route, with the
    oracle's own step-halving.  The rotation's spectrum {1, exp(+-i theta)}
    holds theta = 2 theta_2 (mod 2 pi, folded into [0, pi]) of the 2x2
    eigenphases +-theta_2, so theta_2 within 1e-3 of 0 or pi, the alias
    rule, is theta within 2e-3 of 0."""
    generator = partial(_bloch_generator_stack, dimensionless(cfg))
    omega = cfg.dressing.omega

    def once(steps):
        mono = _reference_integrate_targets(generator, [TWO_PI], steps)[0]
        unit_err = float(np.linalg.norm(mono.T @ mono - np.eye(3), 2))
        theta = float(np.max(np.abs(np.angle(np.linalg.eigvals(mono)))))
        return theta, theta * omega / TWO_PI, unit_err

    steps = ORACLE_STEPS
    _, om_prev, _ = once(steps)
    for _ in range(ORACLE_REFINEMENTS):
        steps *= 2
        theta, om_cur, unit_err = once(steps)
        if abs(om_cur - om_prev) <= propagate._REL_TOL * omega:
            return QuasiEnergy(om_cur, theta < 2e-3, unit_err)
        om_prev = om_cur
    raise NoConvergence("reference quasienergy not converged")


@contextlib.contextmanager
def _rk4_route():
    """Within the block, every propagate entry point runs the RK4 oracle in
    place of the Magnus grid, under step-halving from 512 steps per period."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_integrate_targets", _reference_frame_targets)
        mp.setattr(propagate, "_grid", _reference_frame_grid)
        mp.setattr(propagate, "_STEPS_PER_PERIOD", ORACLE_STEPS)
        yield


@pytest.mark.parametrize("spin", ["half", "one"])
def test_integrate_targets_matches_per_gap_reference(spin):
    cfg = _shipped("odd-harmonic", spin)
    bundle = dimensionless(cfg)
    # tau = 0, a repeated target, targets inside the first step, on a grid
    # node (pi) and just past it, and 2 pi
    targets = [0.0, 0.0, 1e-5, 1e-5, math.pi, math.pi + 1e-4, 4.0, TWO_PI]
    got = _lab_targets(bundle, targets, 4096)
    if spin == "half":
        want = _reference_su2_targets(bundle, targets, 4096)
    else:
        got = [_so3(u) for u in got]
        want = _reference_integrate_targets(partial(_bloch_generator_stack, bundle), targets, 4096)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= (SU2_PROPAGATOR_ATOL if spin == "half" else PROPAGATOR_ATOL)


@pytest.mark.parametrize("name", ["even-harmonic", "odd-harmonic"])
def test_sampled_series_no_farther_from_fine_reference(name):
    # error against a lab-frame per-gap run at 16384 steps/period: the
    # package's dressing-frame route must be as close as the lab-frame route
    # at the same step count, up to the rounding of either
    cfg = _shipped(name, "half")
    bundle = dimensionless(cfg)
    lab = partial(_reference_integrate_targets, partial(_lab_generator_stack, bundle))
    taus = np.linspace(0.0, 5e-3, 257) * cfg.dressing.omega
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    fine = _reference_sampled_series(lab, taus, psi0, 16384)
    for steps in (512, 2048):
        new = np.max(np.abs(_series_states(bundle, taus, psi0, steps) - fine))
        old = np.max(np.abs(_reference_sampled_series(lab, taus, psi0, steps) - fine))
        assert new <= old + 1e-11


@pytest.mark.parametrize("spin", ["half", "one"])
def test_sampled_series_matches_per_sample_reference(spin):
    cfg = _shipped("even-harmonic", spin)
    bundle = dimensionless(cfg)
    taus = np.linspace(0.0, 5e-3, 301) * cfg.dressing.omega  # about 50 periods
    if spin == "half":
        psi0 = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
        got = _series_states(bundle, taus, psi0, 4096)
        want = _reference_sampled_series(partial(_reference_su2_targets, bundle), taus, psi0, 4096)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= SU2_STATE_ATOL
    else:
        # <sigma> of (sqrt(0.9), sqrt(0.1)) is M(0) = (0.6, 0, 0.8)
        psi0 = np.array([math.sqrt(0.9), math.sqrt(0.1)], dtype=complex)
        states = _series_states(bundle, taus, psi0, 4096)
        got = np.column_stack(propagate._coherences_from_states(states))
        bloch = partial(_reference_integrate_targets, partial(_bloch_generator_stack, bundle))
        want = _reference_sampled_series(bloch, taus, np.array([0.6, 0.0, 0.8]), 4096)
        assert np.max(np.abs(got - want)) <= SERIES_ATOL


@pytest.mark.parametrize("name", SHIPPED)
def test_step_doubling_changes_dense_series(name):
    # 2048 samples over 5 ms are denser than the grid: every doubling of the
    # steps must still move every partial step, so a change of 0 means
    # convergence rather than an unchanged step layout
    cfg = _shipped(name, "half")
    bundle = dimensionless(cfg)
    taus = np.linspace(0.0, 5e-3, 2048) * cfg.dressing.omega
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    steps = propagate._STEPS_PER_PERIOD
    coarse = _series_states(bundle, taus, psi0, steps)
    fine = _series_states(bundle, taus, psi0, 2 * steps)
    assert np.max(np.abs(coarse - fine)) > 0.0


@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("name", SHIPPED)
def test_monodromy_matches_per_gap_reference(name, spin, monkeypatch):
    cfg = _shipped(name, spin)
    got = monodromy_quasienergy(cfg)
    if spin == "one":
        # the lab-frame 3x3 route is the less accurate of the two (its error
        # is 4.6e-13 to 3.8e-12 of omega at the shipped configs, the package's
        # below 1e-13), so both are held to the 3x3 route converged to 1e-14
        want = _reference_quasienergy_one(cfg)
        assert got.alias_ambiguous == want.alias_ambiguous
        assert abs(got.monodromy_unitarity_error - want.monodromy_unitarity_error) <= UNITARITY_ATOL
        bound = 2.0 * propagate._REL_TOL * cfg.dressing.omega
        monkeypatch.setattr(propagate, "_REL_TOL", 1e-14)
        tight = _reference_quasienergy_one(cfg).omega_L_numeric
        assert abs(want.omega_L_numeric - tight) <= bound
        assert abs(got.omega_L_numeric - tight) <= abs(want.omega_L_numeric - tight)
        return

    with _rk4_route():
        want = monodromy_quasienergy(cfg)
    assert abs(got.omega_L_numeric - want.omega_L_numeric) <= 1e-10 * cfg.dressing.omega
    assert got.alias_ambiguous == want.alias_ambiguous
    assert abs(got.monodromy_unitarity_error - want.monodromy_unitarity_error) <= UNITARITY_ATOL


@pytest.mark.parametrize("name", SHIPPED, ids=[f"{name}-x" for name in SHIPPED])  # M(0) = x_hat
def test_bloch_series_matches_real_rk4_reference(name):
    cfg = _shipped(name, "one")
    series = propagate_bloch_spin1(cfg, 2e-3, 257)
    want = _reference_bloch_series(cfg, 2e-3, 257)
    got = np.column_stack((series.sx, series.sy, series.sz))
    assert np.max(np.abs(got - want)) <= SERIES_ATOL


def test_lab_bundle_generator_is_the_lab_generator():
    # the package's dressing-frame field is the lab field for lab_bundle, and
    # the test-side frame generator matches the package's field
    bundle = dimensionless(_shipped("odd-harmonic", "half"))
    taus = np.linspace(0.0, TWO_PI, 97)
    lab = lab_bundle(bundle)
    assert np.max(np.abs(_dressing_frame_field([lab], taus)[:, 0].T - _lab_field(bundle, taus))) <= 1e-15
    frame = np.einsum("ni,ijk->njk", _dressing_frame_field([bundle], taus)[:, 0].T, -0.5j * PAULI)
    assert np.max(np.abs(frame - _frame_generator_stack(bundle, taus))) <= 1e-14


# Large xi: 2048 samples over 5 ms against the RK4 oracle in the dressing
# frame at 16,384 steps per period (it moves by at most 1.5e-13 from 32,768
# steps).  RK4 on a per-gap step layout under step-halving from 512 steps
# landed 1.7e-10 to 2.3e-9 away here while reporting convergence; the Magnus
# grid lands within 1.3e-12, and its monodromy within 1.4e-12 of omega.
@pytest.mark.parametrize(
    "name, amplitude",
    [("odd-harmonic", 90.0), ("odd-harmonic", 180.0), ("collapse", 270.0), ("collapse", 360.0)],
    ids=["odd-harmonic-xi10", "odd-harmonic-xi20", "collapse-xi30", "collapse-xi40"],
)
def test_large_xi_matches_fine_lab_reference(name, amplitude):
    cfg = validate(apply_overrides(load_config(CONFIGS / f"{name}.cfg"), [f"dressing.amplitude={amplitude}"]))
    omega = cfg.dressing.omega
    bundle = dimensionless(cfg)
    series = propagate_spin_half(cfg, 5e-3, 2048)
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    integrate = partial(_reference_su2_targets, bundle)
    states = _reference_sampled_series(integrate, series.times * omega, psi0, 16384)
    want = np.column_stack(propagate._coherences_from_states(states))
    assert np.max(np.abs(np.column_stack((series.sx, series.sy, series.sz)) - want)) <= 1e-10

    mono = integrate([TWO_PI], 16384)[0]
    omega_ref = float(np.mean(np.abs(np.angle(np.linalg.eigvals(mono))))) * omega / math.pi
    assert abs(monodromy_quasienergy(cfg).omega_L_numeric - omega_ref) <= 1e-10 * omega


# Against the lab-frame route under the same step-halving: on the shipped
# configs simulate's 2048 samples over 5 ms moved by at most 1.3e-12 and the
# monodromy by at most 2.3e-13 of omega.  The lab-frame Floquet modes carry
# the dressing harmonics and may unfold the monodromy onto another branch,
# so its value is compared folded into [0, alias step/2].  Against RK4 under
# step-halving from 512 steps per period (the integrator before the Magnus
# grid) the stated bounds are 1e-10 per series cell and 1e-10 of omega
# (seen: 1.7e-12 and 1.1e-13 of omega), unfolded.
@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("name", SHIPPED)
def test_dressing_frame_stays_within_stated_bounds_of_lab_route(name, spin):
    cfg = _shipped(name, spin)
    omega = cfg.dressing.omega
    run = propagate_spin_half if spin == "half" else propagate_bloch_spin1
    series, qe = run(cfg, 5e-3, 2048), monodromy_quasienergy(cfg)
    got = np.column_stack((series.sx, series.sy, series.sz))
    with lab_frame():
        lab_series, lab_qe = run(cfg, 5e-3, 2048), monodromy_quasienergy(cfg)
    want = np.column_stack((lab_series.sx, lab_series.sy, lab_series.sz))
    assert np.max(np.abs(got - want)) <= 1e-9
    assert abs(qe.omega_L_numeric - fold(lab_qe.omega_L_numeric, omega)) <= 1e-10 * omega
    assert qe.alias_ambiguous == lab_qe.alias_ambiguous
    with _rk4_route():
        rk4_series, rk4_qe = run(cfg, 5e-3, 2048), monodromy_quasienergy(cfg)
    want = np.column_stack((rk4_series.sx, rk4_series.sy, rk4_series.sz))
    assert np.max(np.abs(got - want)) <= 1e-10
    assert abs(qe.omega_L_numeric - rk4_qe.omega_L_numeric) <= 1e-10 * omega
    assert qe.alias_ambiguous == rk4_qe.alias_ambiguous


def _shirley_splitting(bundle):
    """Omega_L/omega from Shirley's Floquet matrix (Phys. Rev. 138, B979
    (1965)), with no time stepping.

    H_F[m, n] = C_{m-n}.sigma/2 + m delta_mn over the blocks |m|, |n| <= K,
    with C_n the Fourier coefficients of the dressing-frame field on 512
    points.  Its two eigenvectors with the largest weight in block 0 carry
    the quasienergies of the two Floquet modes, each on the branch where
    its strongest harmonic is the zeroth; their splitting is Omega_L/omega.
    """
    n = 512
    c = np.fft.fft(_dressing_frame_field([bundle], TWO_PI / n * np.arange(n))[:, 0], axis=-1) / n
    p_max = max((t.harmonic for t in bundle.tuning), default=0)
    field_sum = sum(abs(w) for w in bundle.w0) + sum(abs(t.strength) for t in bundle.tuning)
    k = math.ceil(2.0 * abs(bundle.xi) + p_max + 4.0 * field_sum + 30.0)
    m = np.arange(-k, k + 1)
    blocks = np.einsum("imn,iab->manb", c[:, (m[:, None] - m[None, :]) % n], 0.5 * PAULI)
    size = 2 * m.size
    eps, vec = np.linalg.eigh(blocks.reshape(size, size) + np.diag(np.repeat(m, 2).astype(float)))
    a, b = np.argsort(np.sum(np.abs(vec[2 * k : 2 * k + 2]) ** 2, axis=0))[-2:]
    return abs(eps[a] - eps[b])


# The shipped configs, then with a strong static z field (Omega_L > omega,
# where the eigenphases alone fold the value) and at xi = 10.  Seen: within
# 1.02e-12 of omega.
@pytest.mark.parametrize("variant", ["shipped", "z-2.7-omega", "xi-10"])
@pytest.mark.parametrize("name", SHIPPED)
def test_monodromy_matches_shirley_floquet_matrix(name, variant):
    base = load_config(CONFIGS / f"{name}.cfg")
    khz = base.dressing.omega / (TWO_PI * 1e3)
    overrides = {
        "shipped": [],
        "z-2.7-omega": [f"static.z={2.7 * khz}"],
        "xi-10": [f"dressing.amplitude={10.0 * khz}"],
    }[variant]
    cfg = validate(apply_overrides(base, overrides))
    got = monodromy_quasienergy(cfg).omega_L_numeric / cfg.dressing.omega
    assert abs(got - _shirley_splitting(dimensionless(cfg))) <= 3e-12
