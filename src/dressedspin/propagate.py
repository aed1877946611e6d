"""Exact time-dependent propagation, quasienergies, and analytic coherences.

The full bichromatic drive is integrated in the frame that follows the
dressing rotation phi(tau) = xi sin(tau): with U(tau) the lab propagator,
U~(tau) = exp(+i phi sigma_x/2) U(tau) obeys dU~/dtau = -i b~(tau).sigma/2,
where b~ is the lab field without the strong xi cos(tau) term, rotated about
x by phi (effective._dressing_frame_field).  The frame change is exact, and
the integrator no longer has to resolve the dressing term.  Each result is
rotated back to the lab frame in closed form,
U = (cos(phi/2) - i sin(phi/2) sigma_x) U~; at whole periods the rotation is
the identity, so the monodromy is U~(2 pi).

Every result comes from one integrator, the sixth-order Magnus step on the
three Gauss nodes (Blanes, Casas & Ros, BIT 40, 434 (2000)).  With
A(a) = -i a.sigma/2, [A(a), A(b)] = A(a x b), so the Magnus exponent is a
cross-product formula and its exponential is closed form, unitary to
rounding.  One period is a uniform grid of N steps, combined in a prefix
product of log2(N) rounds (Hillis & Steele 1986); each sample phase is
reached by one batched partial step from the grid node below it.  N starts
at ``_STEPS_PER_PERIOD`` and doubles at most ``_MAX_REFINEMENTS`` times
(``_refine``, the one step-halving loop) until the result moves by at most
``_REL_TOL`` of its scale with its norm drift in bounds; every doubling
changes every step.  No renormalisation is applied -- norm drift is the
error diagnostic, not something to hide.

Only the spin-half (SU(2)) propagator U is integrated.  The spin-one
dynamics dM/dt = B x M is its rotation image R_ij = tr(sigma_i U sigma_j
U^dagger)/2, so every spin-one result is derived from U.

All drive terms share the dressing period, so the propagator over one period
(the monodromy matrix M) determines the evolution at any later time exactly:
U(k*T + s) = U(s) * M^k.  Long coherence series therefore cost one period of
integration regardless of duration, plus about log2(k) binary powers of M.
"""

from dataclasses import dataclass
import math

import numpy as np

from .config import TWO_PI, DriveConfiguration, dimensionless
from .effective import PAULI_X, PAULI_Y, PAULI_Z, _dressing_frame_field, rectified_field
from .errors import NoConvergence, UnitarityLost

__all__ = [
    "CoherenceSeries",
    "QuasiEnergy",
    "propagate_spin_half",
    "propagate_bloch_spin1",
    "monodromy_quasienergy",
    "analytic_coherences",
]

# Eigenphase closer than this to a branch edge (0 or pi) cannot be told
# apart from its alias.
_ALIAS_TOL = 1e-3

# Step-halving: starting steps per drive period, relative tolerance between
# successive refinements, and the most step doublings tried.
_STEPS_PER_PERIOD = 128
_REL_TOL = 1e-10
_MAX_REFINEMENTS = 6

# Largest spin-half norm drift and monodromy unitarity error accepted.
_UNITARITY_DRIFT_LIMIT = 1e-6

# Spin-1 propagation is norm-conserving physics; drift beyond this is a bug.
_BLOCH_NORM_TOL = 1e-9

# Gauss-Legendre nodes of the Magnus step, as fractions of the step.
_GAUSS_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])

_PAULI = np.stack((PAULI_X, PAULI_Y, PAULI_Z))

# Start state of every series: the +1 sigma_x eigenstate, <sigma>(0) = x_hat.
_PSI0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class CoherenceSeries:
    """Sampled spin expectation values (spin half) or magnetisation (spin one)."""

    times: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    degenerate_field: bool = False


@dataclass(frozen=True)
class QuasiEnergy:
    """Larmor frequency from the one-period monodromy and its Floquet modes.

    The monodromy eigenphases fix the frequency only modulo 2 omega and up
    to sign.  omega_L_numeric is |eps_1 - eps_2| omega, with each quasienergy
    eps_a taken where the strongest Fourier harmonic of its dressing-frame
    Floquet mode is the zeroth: a function of the configuration alone, the
    same for both spins, and exactly |B| in a static field B.  It need not
    be the strongest line of sx: at static z = 2.7 omega the collapse config
    gives 1.246 omega against an sx line at 3.246 omega, and even-harmonic at
    5 omega gives 3.693 against 5.693 omega; Shirley's Floquet matrix (Phys.
    Rev. 138, B979 (1965)) agrees with omega_L_numeric in both.
    alias_ambiguous marks eigenphases within 1e-3 of a branch edge (0 or pi),
    where the folded values of neighbouring branches merge.
    """

    omega_L_numeric: float
    alias_ambiguous: bool
    monodromy_unitarity_error: float


def _mul(a, b):
    """Matrix products a[:, :, j] @ b[:, :, j] of (2, 2, n) stacks (n may broadcast)."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _rotation(u):
    """SO(3) image R_ij = tr(sigma_i U sigma_j U^dagger)/2 of a 2x2 propagator."""
    return 0.5 * np.einsum("iab,jba->ij", _PAULI, u @ _PAULI @ u.conj().T).real


def _cross(a, b):
    """Cross products of (3, n) stacks: the commutator of su(2) in R^3."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _magnus_steps(bundle, t0, h):
    """Sixth-order Magnus steps of dU~/dtau = -i b~.sigma/2 from each t0 over h.

    t0 has shape (n,), h is a scalar or of shape (n,); returns the step
    propagators exp(-i v.sigma/2) as a (2, 2, n) stack.
    """
    nodes = (t0 + _GAUSS_NODES[:, None] * h).ravel()
    b1, b2, b3 = _dressing_frame_field(bundle, nodes).reshape(3, 3, -1).swapaxes(0, 1)
    a1 = h * b2
    a2 = (math.sqrt(15.0) / 3.0) * h * (b3 - b1)
    a3 = (10.0 / 3.0) * h * (b3 - 2.0 * b2 + b1)
    c1 = _cross(a1, a2)
    c2 = _cross(a1, 2.0 * a3 + c1) / -60.0
    v = a1 + a3 / 12.0 + _cross(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    # exp(-i v.sigma/2) = cos(|v|/2) - i sin(|v|/2) v.sigma/|v|; sinc guards |v| = 0
    half = 0.5 * np.sqrt(np.sum(v * v, axis=0))
    x, y, z = (0.5 * np.sinc(half / math.pi)) * v
    c = np.cos(half)
    return np.array([[c - 1j * z, -y - 1j * x], [y - 1j * x, c + 1j * z]])


def _grid(bundle, steps):
    """Dressing-frame propagators U~(2 pi j/steps), j = 0..steps, as a (2, 2, steps + 1) stack.

    Magnus steps on a uniform grid of `steps` per period, combined in an
    inclusive prefix product (later steps on the left) in log2(steps) rounds.
    Node `steps` is the monodromy.
    """
    h = TWO_PI / steps
    grid = np.empty((2, 2, steps + 1), dtype=complex)
    grid[:, :, 0] = np.eye(2)
    grid[:, :, 1:] = _magnus_steps(bundle, h * np.arange(steps), h)
    d = 1
    while d < steps:
        grid[:, :, d + 1 :] = _mul(grid[:, :, d + 1 :], grid[:, :, 1 : steps + 1 - d])
        d *= 2
    return grid


def _integrate_targets(bundle, targets, steps):
    """Propagate dU~/dtau from tau = 0 to each target in [0, 2 pi] (up to rounding).

    One partial Magnus step from the node of _grid below each target.
    Returns the lab-frame propagators U at the targets as a
    (len(targets), 2, 2) array.
    """
    targets = np.asarray(targets, dtype=float)
    h = TWO_PI / steps
    grid = _grid(bundle, steps)
    # the node below each target; the clip keeps a rounding of -1e-14 at
    # tau = 0 from reading node -1, the whole-period propagator
    node = np.clip(np.floor(targets / h), 0, steps).astype(np.int64)
    out = _mul(_magnus_steps(bundle, h * node, targets - h * node), grid[:, :, node])
    # back to the lab frame; tau mod 2 pi makes the rotation exactly the
    # identity at whole periods instead of carrying the rounding of sin(2 pi)
    half = 0.5 * bundle.xi * np.sin(np.mod(targets, TWO_PI))
    eye = np.eye(2)[:, :, None]
    rot = np.cos(half) * eye - 1j * np.sin(half) * PAULI_X[:, :, None]
    return np.moveaxis(_mul(rot, out), -1, 0)


def _refine(run, scale, drift_limit, name):
    """The step-halving loop of every result of this module.

    run(steps) integrates at that many steps per period and returns (value,
    drift, result).  The steps double from _STEPS_PER_PERIOD at most
    _MAX_REFINEMENTS times; the first result whose value moved by at most
    _REL_TOL * scale(value), with drift <= drift_limit, is returned.  Else a
    last drift out of bounds raises UnitarityLost, and NoConvergence if not.
    """
    steps = _STEPS_PER_PERIOD
    prev, drift, _ = run(steps)
    err = math.inf
    for _ in range(_MAX_REFINEMENTS):
        steps *= 2
        value, drift, result = run(steps)
        err = float(np.max(np.abs(value - prev)))
        if err <= _REL_TOL * scale(value) and drift <= drift_limit:
            return result
        prev = value
    if drift > drift_limit:
        raise UnitarityLost(
            f"{name} unitarity error {drift:.3e} exceeds {drift_limit:g} after "
            f"{_MAX_REFINEMENTS} refinements ({steps} steps/period)"
        )
    raise NoConvergence(
        f"{name} not converged after {_MAX_REFINEMENTS} refinements "
        f"({steps} steps/period, last change {err:.3e})"
    )


def _sample_times(t_end, samples):
    """samples evenly spaced times from 0 to t_end (0 < t_end < inf, samples >= 2)."""
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be finite and > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    return np.linspace(0.0, t_end, samples)


def _sampled_series(bundle, taus, psi0, steps):
    """Evaluate the state at each tau via the one-period factorisation."""
    # s may round to just below 0 or just past 2 pi; the partial Magnus step
    # from the nearest grid node covers either
    ks = np.floor(taus / TWO_PI).astype(np.int64)
    ss = taus - TWO_PI * ks
    unique_s, s_idx = np.unique(ss, return_inverse=True)
    mats = _integrate_targets(bundle, np.append(unique_s, TWO_PI), steps)

    # M^k psi0 for every period index k from binary powers of M (powers of
    # M commute, so the bits of k may be applied in any order)
    unique_k, k_idx = np.unique(ks, return_inverse=True)
    mk_psi0 = np.tile(np.asarray(psi0, dtype=complex), (unique_k.size, 1))
    power = mats[-1]
    for bit in range(int(unique_k[-1]).bit_length()):
        on = (unique_k >> bit) & 1 == 1
        mk_psi0[on] = mk_psi0[on] @ power.T
        power = power @ power
    return np.einsum("nij,nj->ni", mats[s_idx], mk_psi0[k_idx])


def _coherences_from_states(states):
    a, b = states[:, 0], states[:, 1]
    cross = np.conj(a) * b
    sx = 2.0 * cross.real
    sy = 2.0 * cross.imag
    sz = (np.abs(a) ** 2 - np.abs(b) ** 2).real
    norms = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return sx, sy, sz, norms


def _propagate(config, t_end, samples, bloch):
    """Step-halve until the sampled series from _PSI0 settles AND the norm
    drift is within _UNITARITY_DRIFT_LIMIT; long runs accumulate drift through
    the monodromy powers, so conservation is part of the convergence
    criterion rather than an afterthought.  With bloch, the series is a
    spin-one M = <sigma>, and the drift is measured on |M| rather than on
    |psi|, against _BLOCH_NORM_TOL.  |psi(0)| = |M(0)| = 1, so drift is the
    distance of the norm from 1."""
    times = _sample_times(t_end, samples)
    bundle = dimensionless(config)
    taus = times * config.dressing.omega

    def run(steps):
        sx, sy, sz, norms = _coherences_from_states(_sampled_series(bundle, taus, _PSI0, steps))
        if bloch:
            norms = np.sqrt(sx * sx + sy * sy + sz * sz)
        drift = float(np.max(np.abs(norms - 1.0)))
        return np.column_stack((sx, sy, sz)), drift, (times, sx, sy, sz)

    drift_limit = _BLOCH_NORM_TOL if bloch else _UNITARITY_DRIFT_LIMIT
    return _refine(run, lambda cur: max(1.0, float(np.max(np.abs(cur)))), drift_limit, "series")


def propagate_spin_half(config: DriveConfiguration, t_end: float, samples: int) -> CoherenceSeries:
    """Integrate the two-level dynamics of the full drive and sample <sigma_j>(t).

    The spin starts in the +1 sigma_x eigenstate (1, 1)/sqrt(2), as in
    analytic_coherences.  The state norm is monitored over the whole run and
    drift past _UNITARITY_DRIFT_LIMIT raises UnitarityLost.
    """
    times, sx, sy, sz = _propagate(config, t_end, samples, bloch=False)
    return CoherenceSeries(times=times, sx=sx, sy=sy, sz=sz)


def propagate_bloch_spin1(config: DriveConfiguration, t_end: float, samples: int) -> CoherenceSeries:
    """Sample the spin-one magnetisation M(t) of dM/dt = (drive field) x M.

    Requires config.spin == "one".  M starts along +x, M(0) = x_hat, as in
    analytic_coherences.  M(t) = R(t) M(0), R the rotation image of the
    spin-half propagator, is <sigma> of the spinor that starts as the +1
    sigma_x eigenstate.  |M(t)| must stay within _BLOCH_NORM_TOL (1e-9) of 1;
    larger drift raises UnitarityLost.
    """
    if config.spin != "one":
        raise ValueError("propagate_bloch_spin1 requires a spin='one' configuration")
    times, mx, my, mz = _propagate(config, t_end, samples, bloch=True)
    return CoherenceSeries(times=times, sx=mx, sy=my, sz=mz)


def _floquet_splitting(grid):
    """|eps_1 - eps_2| of the Floquet modes of one period of grid propagators.

    With M v_a = exp(-2 pi i eps_a) v_a, the mode Phi_a(tau_j) = U~(tau_j) v_a
    exp(i eps_a tau_j) is periodic; each eps_a is shifted by the harmonic that
    carries the largest Fourier weight of its mode (the lowest index on a tie).
    """
    steps = grid.shape[-1] - 1
    lam, vec = np.linalg.eig(grid[:, :, -1])
    eps = -np.angle(lam) / TWO_PI
    modes = np.einsum("ijn,ja->ian", grid[:, :, :-1], vec)
    modes *= np.exp(1j * np.outer(eps, TWO_PI / steps * np.arange(steps)))
    weight = np.sum(np.abs(np.fft.fft(modes)) ** 2, axis=0)
    eps -= np.fft.fftfreq(steps, 1.0 / steps)[np.argmax(weight, axis=1)]
    return float(abs(eps[0] - eps[1]))


def monodromy_quasienergy(config: DriveConfiguration) -> QuasiEnergy:
    """Larmor frequency from the propagator over exactly one drive period.

    The dressing phase closes after one period, so the monodromy M is the
    dressing-frame U~(2 pi).  Its eigenphases +-theta fix Omega_L only as
    theta*omega/pi modulo 2 omega and up to sign (spin one: modulo omega);
    step-halving refines until that folded value moves by at most
    _REL_TOL * omega with a monodromy unitarity error within
    _UNITARITY_DRIFT_LIMIT, and an error still past it after the last
    refinement raises UnitarityLost.  The accepted grid then unfolds the
    value by the Floquet modes (see QuasiEnergy), the same for both spins.
    """
    bundle = dimensionless(config)
    omega = config.dressing.omega

    def run(steps):
        grid = _grid(bundle, steps)
        mono = grid[:, :, -1] if bundle.spin == "half" else _rotation(grid[:, :, -1])
        gram = mono.conj().T @ mono
        unit_err = float(np.linalg.norm(gram - np.eye(gram.shape[0]), 2))
        angles = np.abs(np.angle(np.linalg.eigvals(mono)))
        if bundle.spin == "half":
            theta = float(np.mean(angles))  # phases come as ~(+t, -t)
            om = theta * omega / math.pi
        else:
            theta = float(np.max(angles))  # spectrum {1, exp(+-i theta)}
            om = theta * omega / TWO_PI
        alias = theta < _ALIAS_TOL or math.pi - theta < _ALIAS_TOL
        return om, unit_err, (grid, alias, unit_err)

    grid, alias, unit_err = _refine(run, lambda om: omega, _UNITARITY_DRIFT_LIMIT, "monodromy")
    return QuasiEnergy(_floquet_splitting(grid) * omega, alias, unit_err)


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
    times = _sample_times(t_end, samples)
    field = rectified_field(config)
    xi = config.xi()
    omega = config.dressing.omega
    if field.omega_L == 0.0:
        ones = np.ones_like(times)
        zeros = np.zeros_like(times)
        return CoherenceSeries(times=times, sx=ones, sy=zeros, sz=zeros, degenerate_field=True)
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
    return CoherenceSeries(times=times, sx=sx, sy=sy, sz=sz)
