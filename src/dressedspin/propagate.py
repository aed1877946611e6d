"""Exact time-dependent propagation, quasienergies, and analytic coherences.

The full bichromatic drive is integrated with a classical fixed-step RK4
scheme under global step-halving control: starting from ``_STEPS_PER_PERIOD``
steps per drive period, the whole calculation is repeated with doubled step
count, at most ``_MAX_REFINEMENTS`` times, until the result moves by less
than ``_REL_TOL``.
No renormalisation is applied during integration -- norm drift is the error
diagnostic, not something to hide.  Step sizes and node times of a whole
integration are laid out up front.  The ODE is linear, so one RK4 step is
U <- S_j U with a step matrix S_j built from the generator A(tau) at the
step's nodes.  Per block of at most 2048 steps the S_j are built at once and
combined in an inclusive prefix product of log2(2048) = 11 rounds (Hillis &
Steele 1986), so there is no per-step Python loop, and memory stays flat
however many steps an integration takes.

Only the spin-half (SU(2)) propagator U is integrated.  The spin-one
dynamics dM/dt = B x M is its rotation image R_ij = tr(sigma_i U sigma_j
U^dagger)/2, so every spin-one result is derived from U.

All drive terms share the dressing period, so the propagator over one period
(the monodromy matrix) determines the evolution at any later time exactly:
U(k*T + s) = U(s) * M^k.  Long coherence series therefore cost one period of
integration regardless of duration.
"""

from dataclasses import dataclass
import math

import numpy as np

from .config import DriveConfiguration, dimensionless
from .effective import PAULI_X, PAULI_Y, PAULI_Z, rectified_field
from .errors import NoConvergence, UnitarityLost

__all__ = [
    "CoherenceSeries",
    "QuasiEnergy",
    "propagate_spin_half",
    "propagate_bloch_spin1",
    "monodromy_quasienergy",
    "analytic_coherences",
    "propagator_at",
]

TWO_PI = 2.0 * math.pi

# Eigenphase closer than this to a branch edge (0 or pi) cannot be told
# apart from its alias.
_ALIAS_TOL = 1e-3

# Step-halving: starting steps per drive period, relative tolerance between
# successive refinements, and the most step doublings tried.
_STEPS_PER_PERIOD = 512
_REL_TOL = 1e-10
_MAX_REFINEMENTS = 6

# Largest spin-half norm drift and monodromy unitarity error accepted.
_UNITARITY_DRIFT_LIMIT = 1e-6

# Spin-1 propagation is norm-conserving physics; drift beyond this is a bug.
_BLOCH_NORM_TOL = 1e-9

# Steps per block of step matrices (see the module docstring).
_BLOCK_STEPS = 2048

_PAULI = np.stack((PAULI_X, PAULI_Y, PAULI_Z))


@dataclass(frozen=True)
class CoherenceSeries:
    """Sampled spin expectation values (spin half) or magnetisation (spin one)."""

    times: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    source: str  # "analytic" | "numeric"
    degenerate_field: bool = False


@dataclass(frozen=True)
class QuasiEnergy:
    """Larmor frequency from the one-period monodromy eigenphases.

    The eigenphase determines the frequency only modulo the drive frequency
    and up to sign; alias_ambiguous marks eigenphases within 1e-3 of a
    branch edge, where the candidates merge.
    """

    omega_L_numeric: float
    alias_ambiguous: bool
    monodromy_unitarity_error: float


def _generator_stack(bundle, taus):
    """dU/dtau generator A(tau) = -i b(tau).sigma/2 as a (2, 2, len(taus)) stack."""
    taus = np.asarray(taus, dtype=float)
    b = np.empty((3, taus.size))
    b[:] = np.asarray(bundle.w0, dtype=float)[:, None]
    b[0] += bundle.xi * np.cos(taus)
    for t in bundle.tuning:
        b["xyz".index(t.axis)] += t.strength * np.cos(t.harmonic * taus + t.phase)
    return np.tensordot(-0.5j * _PAULI, b, axes=(0, 0))


def _mul(a, b):
    """Matrix products a[:, :, j] @ b[:, :, j] of (2, 2, n) stacks (n may broadcast)."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _rotation(u):
    """SO(3) image R_ij = tr(sigma_i U sigma_j U^dagger)/2 of a 2x2 propagator."""
    return 0.5 * np.einsum("iab,jba->ij", _PAULI, u @ _PAULI @ u.conj().T).real


def _integrate_targets(bundle, targets, base_step):
    """RK4-propagate dU/dtau = A(tau) U from tau = 0 through ascending targets.

    Within each gap the step divides the gap evenly and never exceeds
    base_step, so every target is hit exactly.  Returns the propagators at
    the targets as a (len(targets), 2, 2) array.
    """
    targets = np.asarray(targets, dtype=float)
    prevs = np.concatenate(([0.0], targets))[:-1]
    gaps = targets - prevs
    ms = np.where(gaps > 0.0, np.maximum(1, np.ceil(gaps / base_step - 1e-12)), 0).astype(np.int64)
    h_gap = gaps / np.maximum(ms, 1)
    # node time of every step, gap by gap: prev + hs * (step index in its gap)
    local = np.arange(int(ms.sum())) - np.repeat(np.cumsum(ms) - ms, ms)
    h_step = np.repeat(h_gap, ms)
    t0 = np.repeat(prevs, ms) + h_step * local
    last = np.cumsum(ms) - 1  # each target's last step; -1 before the first step

    eye = np.eye(2)[:, :, None]
    out = np.empty((2, 2, targets.size), dtype=complex)
    out[:, :, last < 0] = eye
    U = eye
    for g in range(0, t0.size, _BLOCK_STEPS):
        t, h = t0[g : g + _BLOCK_STEPS], h_step[g : g + _BLOCK_STEPS]
        a0 = _generator_stack(bundle, t)
        ah = _generator_stack(bundle, t + 0.5 * h)
        a1 = _generator_stack(bundle, t + h)
        # RK4 step U <- S U of this linear ODE, one step matrix S per step
        k2 = _mul(ah, eye + (0.5 * h) * a0)
        k3 = _mul(ah, eye + (0.5 * h) * k2)
        k4 = _mul(a1, eye + h * k3)
        s = eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
        s[:, :, :1] = _mul(s[:, :, :1], U)
        # inclusive prefix product, later steps on the left, in log2(len(h)) rounds
        d = 1
        while d < h.size:
            s[:, :, d:] = _mul(s[:, :, d:], s[:, :, :-d])
            d *= 2
        hit = (last >= g) & (last < g + h.size)
        out[:, :, hit] = s[:, :, last[hit] - g]
        U = s[:, :, -1:]
    return np.moveaxis(out, -1, 0)


def propagator_at(config: DriveConfiguration, tau_points, steps_per_period: int = _STEPS_PER_PERIOD):
    """Propagator of the full drive at the given ascending tau points.

    Spin model chosen by config.spin: the 2x2 U for spin half, its 3x3
    rotation image for spin one.  Utility for consistency checks; the
    high-level entry points below add step-halving convergence control.
    """
    bundle = dimensionless(config)
    pts = [float(t) for t in tau_points]
    if any(b < a for a, b in zip(pts, pts[1:])) or (pts and pts[0] < 0.0):
        raise ValueError("tau_points must be ascending and >= 0")
    mats = _integrate_targets(bundle, pts, TWO_PI / steps_per_period)
    return list(mats) if bundle.spin == "half" else [_rotation(u) for u in mats]


def _sampled_series(bundle, taus, psi0, steps_per_period):
    """Evaluate the state at each tau via the one-period factorisation."""
    ks = np.floor(taus / TWO_PI).astype(np.int64)
    ss = taus - TWO_PI * ks
    # guard against s == 2*pi from floating roundoff
    wrap = ss >= TWO_PI
    ks[wrap] += 1
    ss[wrap] -= TWO_PI

    unique_s, s_idx = np.unique(ss, return_inverse=True)
    targets = list(unique_s)
    if not targets or targets[-1] < TWO_PI:
        targets.append(TWO_PI)
    mats = _integrate_targets(bundle, targets, TWO_PI / steps_per_period)
    monodromy = mats[-1]

    # M^k psi0 once per period index k, then every state in one stacked matmul
    unique_k, k_idx = np.unique(ks, return_inverse=True)
    power = np.eye(2, dtype=complex)
    k_cur = 0
    mk_psi0 = []
    for k in unique_k.tolist():
        while k_cur < k:
            power = monodromy @ power
            k_cur += 1
        mk_psi0.append(power @ psi0)
    return np.matmul(mats[s_idx], np.stack(mk_psi0)[k_idx][:, :, None])[:, :, 0]


def _coherences_from_states(states):
    a, b = states[:, 0], states[:, 1]
    cross = np.conj(a) * b
    sx = 2.0 * cross.real
    sy = 2.0 * cross.imag
    sz = (np.abs(a) ** 2 - np.abs(b) ** 2).real
    norms = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return sx, sy, sz, norms


def _propagate(config, t_end, samples, psi0, m_norm=None):
    """Step-halve until the sampled series settles AND the norm drift is
    within _UNITARITY_DRIFT_LIMIT (relative to the initial norm); long runs
    accumulate drift through the monodromy powers, so conservation is part
    of the convergence criterion rather than an afterthought.  Given m_norm,
    the series is a spin-one M = <sigma> with |M(0)| = m_norm, and the drift
    is measured on |M| rather than on |psi|, against _BLOCH_NORM_TOL."""
    if not t_end > 0.0:
        raise ValueError("t_end must be > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    bundle = dimensionless(config)
    omega = config.dressing.omega
    times = np.linspace(0.0, t_end, samples)
    taus = times * omega
    norm0 = float(np.linalg.norm(psi0)) if m_norm is None else m_norm
    norm_tol = _UNITARITY_DRIFT_LIMIT if m_norm is None else _BLOCH_NORM_TOL

    steps = _STEPS_PER_PERIOD
    states = _sampled_series(bundle, taus, psi0, steps)
    prev = np.column_stack(_coherences_from_states(states)[:3])
    err = math.inf
    drift = math.inf
    for _ in range(_MAX_REFINEMENTS):
        steps *= 2
        states = _sampled_series(bundle, taus, psi0, steps)
        sx, sy, sz, norms = _coherences_from_states(states)
        if m_norm is not None:
            norms = np.sqrt(sx * sx + sy * sy + sz * sz)
        cur = np.column_stack((sx, sy, sz))
        err = float(np.max(np.abs(cur - prev)))
        scale = max(1.0, float(np.max(np.abs(cur))))
        drift = float(np.max(np.abs(norms / norm0 - 1.0)))
        if err <= _REL_TOL * scale and drift <= norm_tol:
            return times, sx, sy, sz
        prev = cur
    if drift > norm_tol:
        raise UnitarityLost(
            f"norm drift {drift:.3e} exceeds {norm_tol:g} after "
            f"{_MAX_REFINEMENTS} refinements ({steps} steps/period)"
        )
    raise NoConvergence(
        f"series not converged after {_MAX_REFINEMENTS} refinements "
        f"({steps} steps/period, last change {err:.3e})"
    )


def propagate_spin_half(
    config: DriveConfiguration,
    t_end: float,
    samples: int,
    initial=None,
) -> CoherenceSeries:
    """Integrate the two-level dynamics of the full drive and sample <sigma_j>(t).

    initial defaults to the +1 sigma_x eigenstate; any unit 2-spinor is
    accepted.  The state norm is monitored over the whole run and drift past
    _UNITARITY_DRIFT_LIMIT raises UnitarityLost.
    """
    if initial is None:
        psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    else:
        psi0 = np.asarray(initial, dtype=complex).reshape(2)
        if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
            raise ValueError("initial state must be a unit vector")
    times, sx, sy, sz = _propagate(config, t_end, samples, psi0)
    return CoherenceSeries(times=times, sx=sx, sy=sy, sz=sz, source="numeric")


def propagate_bloch_spin1(
    config: DriveConfiguration,
    t_end: float,
    samples: int,
    initial=None,
) -> CoherenceSeries:
    """Sample the spin-one magnetisation M(t) of dM/dt = (drive field) x M.

    Requires config.spin == "one".  M(t) = R(t) M(0), R the rotation image of
    the spin-half propagator, is <sigma> of the spinor that starts as
    sqrt(|M(0)|) times the +1 eigenstate of M(0).sigma.  |M(t)| must stay
    within _BLOCH_NORM_TOL (1e-9) relative of |M(0)|; larger drift raises
    UnitarityLost.
    """
    if config.spin != "one":
        raise ValueError("propagate_bloch_spin1 requires a spin='one' configuration")
    if initial is None:
        m0 = np.array([1.0, 0.0, 0.0])
    else:
        m0 = np.asarray(initial, dtype=float).reshape(3)
    m_norm = float(np.linalg.norm(m0))
    if not m_norm > 0.0:
        raise ValueError("initial magnetisation must be nonzero")
    psi0 = math.sqrt(m_norm) * np.linalg.eigh(np.tensordot(m0, _PAULI, 1))[1][:, 1]
    times, mx, my, mz = _propagate(config, t_end, samples, psi0, m_norm)
    return CoherenceSeries(times=times, sx=mx, sy=my, sz=mz, source="numeric")


def _quasienergy_once(bundle, omega, steps):
    u = _integrate_targets(bundle, [TWO_PI], TWO_PI / steps)[0]
    mono = u if bundle.spin == "half" else _rotation(u)
    gram = mono.conj().T @ mono
    unit_err = float(np.linalg.norm(gram - np.eye(gram.shape[0]), 2))
    angles = np.angle(np.linalg.eigvals(mono))
    if bundle.spin == "half":
        theta = float(np.mean(np.abs(angles)))  # phases come as ~(+t, -t)
        return theta, theta * omega / math.pi, unit_err
    theta = float(np.max(np.abs(angles)))  # spectrum {1, exp(+-i theta)}
    return theta, theta * omega / TWO_PI, unit_err


def monodromy_quasienergy(config: DriveConfiguration) -> QuasiEnergy:
    """Larmor frequency from the propagator over exactly one drive period.

    The dressing phase closes after one period, so the monodromy eigenphases
    +-theta give Omega_L = theta*omega/pi for spin half (half-angle rotation)
    and theta*omega/(2 pi) for spin one.  Step-halving refines until the
    extracted frequency moves by less than _REL_TOL * omega; a monodromy
    unitarity error past _UNITARITY_DRIFT_LIMIT then raises UnitarityLost.
    """
    bundle = dimensionless(config)
    omega = config.dressing.omega
    steps = _STEPS_PER_PERIOD
    theta, om_prev, unit_err = _quasienergy_once(bundle, omega, steps)
    for _ in range(_MAX_REFINEMENTS):
        steps *= 2
        theta, om_cur, unit_err = _quasienergy_once(bundle, omega, steps)
        if abs(om_cur - om_prev) <= _REL_TOL * omega:
            if unit_err > _UNITARITY_DRIFT_LIMIT:
                raise UnitarityLost(f"monodromy unitarity error {unit_err:.3e}")
            return QuasiEnergy(
                omega_L_numeric=om_cur,
                alias_ambiguous=(theta < _ALIAS_TOL or math.pi - theta < _ALIAS_TOL),
                monodromy_unitarity_error=unit_err,
            )
        om_prev = om_cur
    raise NoConvergence(
        f"quasienergy not converged after {_MAX_REFINEMENTS} refinements "
        f"({steps} steps/period)"
    )


def quasienergy_candidates(x: float, omega: float, spin: str = "half"):
    """All frequencies consistent with the measured eigenphase (aliasing).

    For spin half the pair {+-theta} fixes the monodromy value x only up
    to {x, 2*omega*k +- x}; for spin one up to {x, omega*k +- x}; k runs
    over 0..3.
    """
    step = 2.0 * omega if spin == "half" else omega
    cands = []
    for k in range(4):
        for cand in (k * step + x, (k + 1) * step - x):
            if cand >= 0.0:
                cands.append(cand)
    return sorted(set(cands))


def analytic_coherences(
    config: DriveConfiguration,
    t_end: float,
    samples: int,
) -> CoherenceSeries:
    """First-order closed-form coherences for an initial +x state.

    sx carries a single precession line at Omega_L; sy and sz are modulated
    by the dressing phase phi(t) = xi*sin(omega t) and therefore carry
    harmonics of the drive as well.  The same expressions describe the
    spin-one magnetisation components for M(0) = x_hat.

    A vanishing rectified field has no precession axis: the series is
    returned frozen (sx = 1, sy = sz = 0) with degenerate_field set.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    field = rectified_field(config)
    xi = config.xi()
    omega = config.dressing.omega
    times = np.linspace(0.0, t_end, samples)
    if field.omega_L == 0.0:
        ones = np.ones_like(times)
        zeros = np.zeros_like(times)
        return CoherenceSeries(
            times=times, sx=ones, sy=zeros, sz=zeros, source="analytic", degenerate_field=True
        )
    ux = field.hx / field.omega_L
    uy = field.hy / field.omega_L
    uz = field.hz / field.omega_L
    phit = xi * np.sin(omega * times)
    cphi, sphi = np.cos(phit), np.sin(phit)
    cl, sl = np.cos(field.omega_L * times), np.sin(field.omega_L * times)
    one_m_cl = 1.0 - cl
    sx = (1.0 - ux * ux) * cl + ux * ux
    sy = (uy * sphi + uz * cphi) * sl + ux * (uy * cphi - uz * sphi) * one_m_cl
    sz = (uz * sphi - uy * cphi) * sl + ux * (uz * cphi + uy * sphi) * one_m_cl
    return CoherenceSeries(times=times, sx=sx, sy=sy, sz=sz, source="analytic")
