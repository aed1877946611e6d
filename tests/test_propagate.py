from functools import partial
import math
import pathlib

import numpy as np
import pytest
from scipy.linalg import expm

from dressedspin import propagate
from dressedspin.config import dimensionless, validate
from dressedspin.configfile import apply_overrides, load_config
from dressedspin.effective import L_X, L_Y, L_Z, PAULI_X, PAULI_Y, PAULI_Z, larmor_frequency, rectified_field
from dressedspin.special import bessel_j
from dressedspin.errors import NoConvergence, UnitarityLost
from dressedspin.propagate import (
    QuasiEnergy,
    analytic_coherences,
    monodromy_quasienergy,
    propagate_bloch_spin1,
    propagate_spin_half,
    quasienergy_candidates,
)

from conftest import KHZ, lab_bundle, lab_frame, make_config

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
    assert np.max(np.abs(r2 - 1.0)) < propagate._UNITARITY_DRIFT_LIMIT


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
    cfg = make_config(9.0, xi=1.8, w0_khz=(0.2, 0.1, 2.040), tuning=(("y", 1.0, 2, 0.9),))
    u_one, u_two = propagate._integrate_targets(dimensionless(cfg), [TWO_PI, 2 * TWO_PI], TWO_PI / 4096)
    assert np.linalg.norm(u_two - u_one @ u_one, 2) < 1e-9


def test_pure_dressing_is_the_frame_rotation():
    # without static or tuning fields the dressing-frame field vanishes, so
    # the propagator is exp(-i xi sin(tau) sigma_x/2) alone: exactly the
    # identity at whole periods
    cfg = make_config(9.0, xi=2.4)
    bundle = dimensionless(cfg)
    xi = bundle.xi
    u1, u2, u3 = propagate._integrate_targets(
        bundle, [1.0, TWO_PI, 2 * TWO_PI], TWO_PI / propagate._STEPS_PER_PERIOD
    )
    assert np.max(np.abs(u1 - expm(-0.5j * xi * math.sin(1.0) * PAULI_X))) <= 1e-15
    assert np.array_equal(u2, np.eye(2))
    assert np.array_equal(u3, np.eye(2))


def test_collapse_quasienergy_tiny():
    cfg = make_config(9.0, xi=J0_ROOT, w0_khz=(0, 0, 0.09))
    qe = monodromy_quasienergy(cfg)
    assert qe.omega_L_numeric <= 2e-4 * 9.0 * KHZ
    assert qe.alias_ambiguous


def test_quasienergy_candidates():
    qe = monodromy_quasienergy(make_config(10.0, w0_khz=(0, 0, 0.2)))
    cands = quasienergy_candidates(qe.omega_L_numeric, 10.0 * KHZ, "half")
    assert any(abs(c - 0.2 * KHZ) < 1.0 for c in cands)
    assert any(abs(c - (20.0 - 0.2) * KHZ) < 1.0 for c in cands)


def test_unitarity_lost_raised(monkeypatch):
    cfg = make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040))
    monkeypatch.setattr(propagate, "_UNITARITY_DRIFT_LIMIT", 1e-16)
    with pytest.raises(UnitarityLost):
        propagate_spin_half(cfg, 2e-3, 100)


def test_bloch_unitarity_lost_raised(monkeypatch):
    cfg = make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040), spin="one")
    monkeypatch.setattr(propagate, "_BLOCH_NORM_TOL", 1e-16)
    with pytest.raises(UnitarityLost):
        propagate_bloch_spin1(cfg, 2e-3, 100)


def test_bloch_drift_is_measured_on_magnetisation(monkeypatch):
    # |psi| = 1 + 6e-10 passes a 1e-9 bound, but |M|/|M(0)| = |psi|^2 does not
    sampled = propagate._sampled_series
    monkeypatch.setattr(propagate, "_sampled_series", lambda *args: sampled(*args) * (1.0 + 6e-10))
    monkeypatch.setattr(propagate, "_UNITARITY_DRIFT_LIMIT", 1e-9)
    assert propagate._BLOCH_NORM_TOL == 1e-9
    propagate_spin_half(make_config(10.0, w0_khz=(0, 0, 2.0)), 1e-3, 50)
    with pytest.raises(UnitarityLost):
        propagate_bloch_spin1(make_config(10.0, w0_khz=(0, 0, 2.0), spin="one"), 1e-3, 50)


def test_no_convergence_raised(monkeypatch):
    cfg = make_config(9.0, xi=3.0, w0_khz=(0, 0, 2.040))
    # generous drift allowance so only the (unreachable) series tolerance fails
    monkeypatch.setattr(propagate, "_STEPS_PER_PERIOD", 64)
    monkeypatch.setattr(propagate, "_REL_TOL", 1e-15)
    monkeypatch.setattr(propagate, "_MAX_REFINEMENTS", 1)
    monkeypatch.setattr(propagate, "_UNITARITY_DRIFT_LIMIT", 1e-2)
    with pytest.raises(NoConvergence):
        propagate_spin_half(cfg, 2e-3, 100)


def test_monodromy_no_convergence_raised(monkeypatch):
    monkeypatch.setattr(propagate, "_REL_TOL", 1e-15)
    monkeypatch.setattr(propagate, "_MAX_REFINEMENTS", 1)
    with pytest.raises(NoConvergence, match="after 1 refinements"):
        monodromy_quasienergy(make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040)))


def test_monodromy_unitarity_lost_raised(monkeypatch):
    # the frequency settles after one doubling, but an unreachable unitarity
    # bound keeps the step-halving going to its last refinement
    cfg = make_config(9.0, xi=2.0, w0_khz=(0, 0, 2.040))
    steps = []
    integrate = propagate._integrate_targets

    def counting(bundle, targets, base_step):
        steps.append(round(TWO_PI / base_step))
        return integrate(bundle, targets, base_step)

    monkeypatch.setattr(propagate, "_integrate_targets", counting)
    monodromy_quasienergy(cfg)
    assert steps == [512, 1024]
    steps.clear()
    monkeypatch.setattr(propagate, "_UNITARITY_DRIFT_LIMIT", 1e-18)
    with pytest.raises(UnitarityLost, match=r"monodromy unitarity error .* after 6 refinements \(32768 steps/period\)"):
        monodromy_quasienergy(cfg)
    assert steps == [512 * 2**k for k in range(7)]


def test_propagate_argument_validation():
    cfg = make_config(10.0)
    with pytest.raises(ValueError):
        propagate_spin_half(cfg, -1.0, 100)
    with pytest.raises(ValueError):
        propagate_spin_half(cfg, 1e-3, 1)
    with pytest.raises(ValueError):
        propagate_spin_half(cfg, 1e-3, 100, initial=[1.0, 1.0])  # not normalised


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
    # odd-harmonic phase-law configuration
    kw = dict(xi=1.54, w0_khz=(0, 0, 2.040), tuning=(("y", 1.23, 3, math.pi / 2),))
    qe_half = monodromy_quasienergy(make_config(9.0, **kw))
    qe_one = monodromy_quasienergy(make_config(9.0, spin="one", **kw))
    assert qe_one.omega_L_numeric == pytest.approx(qe_half.omega_L_numeric, rel=1e-8)


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

# The package multiplies the RK4 step matrices S_j in a prefix product; the
# per-gap loop below applies the same steps one at a time, and rotates back to
# the lab frame with its own exponential.  Only the order of the
# floating-point operations differs, so the SU(2) routes agree to these
# tolerances (largest differences seen: 2.3e-15, 1.8e-13, 4.7e-14, 5.5e-15).
SU2_PROPAGATOR_ATOL = 1e-13  # per propagator entry at 4096 steps/period
SU2_STATE_ATOL = 1e-11  # per state entry of a sampled series over about 50 periods
SU2_OMEGA_RTOL = 1e-12  # monodromy Larmor frequency
SU2_UNITARITY_ATOL = 1e-13  # monodromy unitarity error

L_GEN = np.stack((L_X, L_Y, L_Z))
PAULI = np.stack((PAULI_X, PAULI_Y, PAULI_Z))


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


def _su2_generator_stack(bundle, taus):
    """The package's dressing-frame -i b~(tau).sigma/2, one 2x2 matrix per tau
    along the first axis."""
    return np.moveaxis(propagate._generator_stack(bundle, taus), -1, 0)


def _reference_integrate_targets(generator, targets, base_step):
    """Per-gap RK4 loop that builds the generator stacks for every gap.

    With _lab_generator_stack or _bloch_generator_stack it is the lab-frame
    2x2 or real 3x3 route; _reference_su2_targets uses it for the package's
    dressing-frame steps.
    """
    a = generator(np.zeros(1))[0]
    U = np.eye(a.shape[0], dtype=a.dtype)
    out = []
    prev = 0.0
    for target in targets:
        gap = target - prev
        if gap > 0.0:
            m = max(1, int(math.ceil(gap / base_step - 1e-12)))
            hs = gap / m
            t0 = prev + hs * np.arange(m)
            a0 = generator(t0)
            ah = generator(t0 + 0.5 * hs)
            a1 = generator(t0 + hs)
            for j in range(m):
                k1 = a0[j] @ U
                k2 = ah[j] @ (U + (0.5 * hs) * k1)
                k3 = ah[j] @ (U + (0.5 * hs) * k2)
                k4 = a1[j] @ (U + hs * k3)
                U = U + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(U.copy())
        prev = target
    return out


def _reference_su2_targets(bundle, targets, base_step):
    """The package's steps one at a time (it multiplies their step matrices in
    a blocked prefix product), then the rotation exp(-i phi sigma_x/2),
    phi = xi sin(tau), back to the lab frame.  Same signature as
    propagate._integrate_targets."""
    mats = _reference_integrate_targets(partial(_su2_generator_stack, bundle), targets, base_step)
    return [expm(-0.5j * bundle.xi * math.sin(math.fmod(t, TWO_PI)) * PAULI_X) @ u for t, u in zip(targets, mats)]


def _reference_sampled_series(integrate, taus, psi0, steps_per_period):
    """Sample-by-sample assembly of U(s) M^k psi0, with the propagators from
    integrate(targets, base_step)."""
    ks = np.floor(taus / TWO_PI).astype(np.int64)
    ss = taus - TWO_PI * ks
    wrap = ss >= TWO_PI
    ks[wrap] += 1
    ss[wrap] -= TWO_PI
    unique_s = np.unique(ss)
    targets = list(unique_s)
    if targets[-1] < TWO_PI:
        targets.append(TWO_PI)
    mats = integrate(targets, TWO_PI / steps_per_period)
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


def _reference_bloch_series(cfg, t_end, samples, m0):
    """propagate_bloch_spin1 along the real 3x3 route: same sampling,
    step-halving and |M| drift criterion, returns M as (samples, 3)."""
    integrate = partial(_reference_integrate_targets, partial(_bloch_generator_stack, dimensionless(cfg)))
    taus = np.linspace(0.0, t_end, samples) * cfg.dressing.omega
    steps = propagate._STEPS_PER_PERIOD
    prev = _reference_sampled_series(integrate, taus, m0, steps)
    for _ in range(propagate._MAX_REFINEMENTS):
        steps *= 2
        cur = _reference_sampled_series(integrate, taus, m0, steps)
        err = float(np.max(np.abs(cur - prev)))
        drift = float(np.max(np.abs(np.linalg.norm(cur, axis=1) / np.linalg.norm(m0) - 1.0)))
        if err <= propagate._REL_TOL * max(1.0, float(np.max(np.abs(cur)))) and drift <= propagate._BLOCH_NORM_TOL:
            return cur
        prev = cur
    raise NoConvergence("reference series not converged")


def _reference_quasienergy_one(cfg):
    """monodromy_quasienergy for spin one along the real 3x3 route."""
    generator = partial(_bloch_generator_stack, dimensionless(cfg))
    omega = cfg.dressing.omega

    def once(steps):
        mono = _reference_integrate_targets(generator, [TWO_PI], TWO_PI / steps)[0]
        unit_err = float(np.linalg.norm(mono.T @ mono - np.eye(3), 2))
        theta = float(np.max(np.abs(np.angle(np.linalg.eigvals(mono)))))
        return theta, theta * omega / TWO_PI, unit_err

    steps = propagate._STEPS_PER_PERIOD
    _, om_prev, _ = once(steps)
    for _ in range(propagate._MAX_REFINEMENTS):
        steps *= 2
        theta, om_cur, unit_err = once(steps)
        if abs(om_cur - om_prev) <= propagate._REL_TOL * omega:
            return QuasiEnergy(om_cur, theta < 1e-3 or math.pi - theta < 1e-3, unit_err)
        om_prev = om_cur
    raise NoConvergence("reference quasienergy not converged")


@pytest.mark.parametrize("spin", ["half", "one"])
def test_integrate_targets_matches_per_gap_reference(spin):
    cfg = _shipped("odd-harmonic", spin)
    bundle = dimensionless(cfg)
    base_step = TWO_PI / 4096
    # tau = 0, a repeated target, a gap shorter than one step, a gap of more
    # than one block of steps (a block boundary falls inside it), and 2 pi
    targets = [0.0, 0.0, 1e-5, 1e-5, 4.0, 4.0 + 1e-4, TWO_PI]
    assert (4.0 - 1e-5) / base_step > propagate._BLOCK_STEPS
    got = propagate._integrate_targets(bundle, targets, base_step)
    if spin == "half":
        want = _reference_su2_targets(bundle, targets, base_step)
    else:
        got = [propagate._rotation(u) for u in got]
        want = _reference_integrate_targets(partial(_bloch_generator_stack, bundle), targets, base_step)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= (SU2_PROPAGATOR_ATOL if spin == "half" else PROPAGATOR_ATOL)


@pytest.mark.parametrize(
    "targets",
    [
        # the last steps of pi and 2 pi close blocks 0 and 1; the next target
        # opens block 2 with a single step
        [math.pi, TWO_PI, TWO_PI + 1e-4, 7.0],
        # every target's last step falls in a block after the first
        [1.0 + TWO_PI / 2, 1.0 + TWO_PI / 2, 5.0, TWO_PI],
    ],
    ids=["block-boundaries", "later-blocks"],
)
def test_integrate_targets_across_blocks(targets):
    bundle = dimensionless(_shipped("anisotropy", "half"))
    base_step = TWO_PI / 4096
    steps = np.cumsum([math.ceil((b - a) / base_step - 1e-12) for a, b in zip([0.0] + targets, targets)])
    if targets[0] == math.pi:
        assert list(steps[:3] % propagate._BLOCK_STEPS) == [0, 0, 1]
    else:
        assert steps[0] > propagate._BLOCK_STEPS
    got = propagate._integrate_targets(bundle, targets, base_step)
    want = _reference_su2_targets(bundle, targets, base_step)
    assert np.max(np.abs(got - np.stack(want))) <= SU2_PROPAGATOR_ATOL


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
        new = np.max(np.abs(propagate._sampled_series(bundle, taus, psi0, steps) - fine))
        old = np.max(np.abs(_reference_sampled_series(lab, taus, psi0, steps) - fine))
        assert new <= old + 1e-11


@pytest.mark.parametrize("spin", ["half", "one"])
def test_sampled_series_matches_per_sample_reference(spin):
    cfg = _shipped("even-harmonic", spin)
    bundle = dimensionless(cfg)
    taus = np.linspace(0.0, 5e-3, 301) * cfg.dressing.omega  # about 50 periods
    if spin == "half":
        psi0 = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
        got = propagate._sampled_series(bundle, taus, psi0, 512)
        want = _reference_sampled_series(partial(_reference_su2_targets, bundle), taus, psi0, 512)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= SU2_STATE_ATOL
    else:
        # <sigma> of (sqrt(0.9), sqrt(0.1)) is M(0) = (0.6, 0, 0.8)
        psi0 = np.array([math.sqrt(0.9), math.sqrt(0.1)], dtype=complex)
        states = propagate._sampled_series(bundle, taus, psi0, 4096)
        got = np.column_stack(propagate._coherences_from_states(states)[:3])
        bloch = partial(_reference_integrate_targets, partial(_bloch_generator_stack, bundle))
        want = _reference_sampled_series(bloch, taus, np.array([0.6, 0.0, 0.8]), 4096)
        assert np.max(np.abs(got - want)) <= SERIES_ATOL


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

    monkeypatch.setattr(propagate, "_integrate_targets", _reference_su2_targets)
    want = monodromy_quasienergy(cfg)
    assert got.omega_L_numeric == pytest.approx(want.omega_L_numeric, rel=SU2_OMEGA_RTOL, abs=0.0)
    assert got.alias_ambiguous == want.alias_ambiguous
    assert abs(got.monodromy_unitarity_error - want.monodromy_unitarity_error) <= SU2_UNITARITY_ATOL


@pytest.mark.parametrize("m0", [None, (0.0, 0.0, -1.0), (0.3, -1.2, 0.5)], ids=["x", "minus-z", "tilted"])
@pytest.mark.parametrize("name", SHIPPED)
def test_bloch_series_matches_real_rk4_reference(name, m0):
    cfg = _shipped(name, "one")
    series = propagate_bloch_spin1(cfg, 2e-3, 257, initial=m0)
    want = _reference_bloch_series(cfg, 2e-3, 257, np.array((1.0, 0.0, 0.0) if m0 is None else m0))
    got = np.column_stack((series.sx, series.sy, series.sz))
    assert np.max(np.abs(got - want)) <= SERIES_ATOL


def test_lab_bundle_generator_is_the_lab_generator():
    bundle = dimensionless(_shipped("odd-harmonic", "half"))
    taus = np.linspace(0.0, TWO_PI, 97)
    lab = lab_bundle(bundle)
    assert np.max(np.abs(_su2_generator_stack(lab, taus) - _lab_generator_stack(bundle, taus))) <= 1e-15


# Large xi: 2048 samples over 5 ms against a lab-frame run at 65,536 steps per
# period (it moves by at most 2e-10 from 32,768 steps).  Integrating in the
# lab frame, the package landed 9.8e-8 away at xi = 10 without noticing, and
# raised NoConvergence at xi = 30 and 40.
@pytest.mark.parametrize(
    "name, amplitude, atol",
    [("odd-harmonic", 90.0, 1e-9), ("collapse", 270.0, 5e-9), ("collapse", 360.0, 5e-9)],
    ids=["odd-harmonic-xi10", "collapse-xi30", "collapse-xi40"],
)
def test_large_xi_matches_fine_lab_reference(name, amplitude, atol):
    cfg = validate(apply_overrides(load_config(CONFIGS / f"{name}.cfg"), [f"dressing.amplitude={amplitude}"]))
    omega = cfg.dressing.omega
    lab = lab_bundle(dimensionless(cfg))
    series = propagate_spin_half(cfg, 5e-3, 2048)
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    states = propagate._sampled_series(lab, series.times * omega, psi0, 65536)
    want = np.column_stack(propagate._coherences_from_states(states)[:3])
    assert np.max(np.abs(np.column_stack((series.sx, series.sy, series.sz)) - want)) <= atol

    mono = propagate._integrate_targets(lab, [TWO_PI], TWO_PI / 65536)[0]
    omega_lab = float(np.mean(np.abs(np.angle(np.linalg.eigvals(mono))))) * omega / math.pi
    assert abs(monodromy_quasienergy(cfg).omega_L_numeric - omega_lab) <= 1e-9 * omega


# Against the lab-frame route under the same step-halving, which is what the
# package computed before it integrated in the dressing frame: on the shipped
# configs simulate's 2048 samples over 5 ms moved by at most 1.6e-10 (the lab
# route's own error there) and the monodromy by at most 3.9e-12 of omega.
@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("name", SHIPPED)
def test_dressing_frame_stays_within_stated_bounds_of_lab_route(name, spin):
    cfg = _shipped(name, spin)
    run = propagate_spin_half if spin == "half" else propagate_bloch_spin1
    series, qe = run(cfg, 5e-3, 2048), monodromy_quasienergy(cfg)
    with lab_frame():
        lab_series, lab_qe = run(cfg, 5e-3, 2048), monodromy_quasienergy(cfg)
    got = np.column_stack((series.sx, series.sy, series.sz))
    want = np.column_stack((lab_series.sx, lab_series.sy, lab_series.sz))
    assert np.max(np.abs(got - want)) <= 1e-9
    assert abs(qe.omega_L_numeric - lab_qe.omega_L_numeric) <= 1e-10 * cfg.dressing.omega
    assert qe.alias_ambiguous == lab_qe.alias_ambiguous
