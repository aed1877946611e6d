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
product of log2(N) rounds (Hillis & Steele 1986); its last node is the
monodromy, and each sample phase is reached by one batched partial step
from the grid node below it.  N starts at ``_STEPS_PER_PERIOD`` and doubles
at most ``_MAX_REFINEMENTS`` times (``_refine``, the one step-halving loop
and the one caller of ``_grid``) until the result moves by at most
``_REL_TOL`` of its scale with its drift within ``_DRIFT_TOL``; every doubling
changes every step.  No renormalisation is applied -- norm drift is the
error diagnostic, not something to hide.

Only the spin-half (SU(2)) propagator U is integrated, and spin one is a
view of it.  The spin-one magnetisation of dM/dt = B x M from M(0) = x_hat
is M = <sigma> of the spinor U psi0 with <sigma>(0) = x_hat, and the Larmor
frequency, its alias flag and the unitarity error are read from the same
2x2 monodromy for both spins.  Every series has one drift measure,
| |<sigma>| - 1 |, which is |psi|^2 - 1 and |M| - 1, and every result one
bound on drift and unitarity error, ``_DRIFT_TOL``.

All drive terms share the dressing period, so the propagator over one period
(the monodromy matrix M) determines the evolution at any later time exactly:
U(k*T + s) = U(s) * M^k.  Long coherence series therefore cost one period of
integration regardless of duration, plus about log2(k) binary powers of M.

Every layer carries a batch axis over points, one configuration each: the
field, the Magnus steps and the grid are (..., points, n) stacks, and
_refine keeps a per-point mask, so each point stops at its own refinement
level and a point that fails gets its own typed error.
monodromy_quasienergies and propagate_series integrate a whole batch, which
is how scans run their monodromy and time-series columns;
monodromy_quasienergy, propagate_spin_half and propagate_bloch_spin1 are
their batches of one.  A level runs in passes of at most _PASS_NODES // N
points, so the working memory does not grow with the batch, and every value
of a point is the value of its batch of one, to the last bit.
"""

from dataclasses import dataclass
import math

import numpy as np

from .config import TWO_PI, DriveConfiguration, dimensionless
from .effective import PAULI_X, _dressing_frame_field, rectified_field
from .errors import DressedSpinError, NoConvergence, UnitarityLost

__all__ = [
    "CoherenceSeries",
    "QuasiEnergy",
    "propagate_series",
    "propagate_spin_half",
    "propagate_bloch_spin1",
    "monodromy_quasienergies",
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

# Grid nodes per integration pass: a pass at N steps per period takes at
# most _PASS_NODES // N points of a batch (at least one).
_PASS_NODES = 1024

# Largest series drift | |<sigma>| - 1 | and monodromy unitarity error
# accepted, for both spins.
_DRIFT_TOL = 1e-9

# Gauss-Legendre nodes of the Magnus step, as fractions of the step.
_GAUSS_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])

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
    where the folded values of neighbouring branches merge, and
    monodromy_unitarity_error is ||M^dagger M - I||_2 of the 2x2 monodromy
    M.  All three fields are the same for both spins.
    """

    omega_L_numeric: float
    alias_ambiguous: bool
    monodromy_unitarity_error: float


def _mul(a, b):
    """Matrix products over the leading 2x2 axes of (2, 2, ...) stacks; the other axes broadcast.

    out[i, k] = a[i, 0] b[0, k] + a[i, 1] b[1, k], built from the two outer
    products of a's columns with b's rows.
    """
    out = a[:, 0, None] * b[None, 0]
    out += a[:, 1, None] * b[None, 1]
    return out


def _cross(a, b):
    """Cross products of (3, ...) stacks: the commutator of su(2) in R^3."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _magnus_exponent(b1, b2, b3, h):
    """The sixth-order Magnus exponent v of steps h from the field b1, b2, b3 at their Gauss nodes."""
    a1 = h * b2
    a2 = (math.sqrt(15.0) / 3.0) * h * (b3 - b1)
    a3 = (10.0 / 3.0) * h * (b3 - 2.0 * b2 + b1)
    c1 = _cross(a1, a2)
    c2 = _cross(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _cross(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _magnus_steps(bundles, t0, h):
    """Sixth-order Magnus steps of dU~/dtau = -i b~.sigma/2 from each t0 over h.

    t0 has shape (len(bundles), n), one row per bundle, or (n,) for steps
    shared by every bundle; h is a scalar or of t0's shape.  Returns the step
    propagators exp(-i v.sigma/2) as a (2, 2, len(bundles), n) stack.
    """
    nodes = t0 + _GAUSS_NODES[:, None, None] * h
    # the field and the exponent's terms are freed before the exponential is built
    v = _magnus_exponent(*_dressing_frame_field(bundles, nodes).swapaxes(0, 1), h)
    # exp(-i v.sigma/2) = cos(|v|/2) - i sin(|v|/2) v.sigma/|v|; sinc guards |v| = 0
    half = 0.5 * np.sqrt(np.sum(v * v, axis=0))
    x, y, z = (0.5 * np.sinc(half / math.pi)) * v
    c = np.cos(half)
    return np.array([[c - 1j * z, -y - 1j * x], [y - 1j * x, c + 1j * z]])


def _grid(bundles, steps):
    """Dressing-frame propagators U~(2 pi j/steps), j = 0..steps, of each bundle.

    A (2, 2, len(bundles), steps + 1) stack: Magnus steps on a uniform grid
    of `steps` per period, combined in an inclusive prefix product (later
    steps on the left) in log2(steps) rounds.  Node `steps` is the monodromy.
    """
    h = TWO_PI / steps
    grid = np.empty((2, 2, len(bundles), steps + 1), dtype=complex)
    grid[..., 0] = np.eye(2)[:, :, None]
    grid[..., 1:] = _magnus_steps(bundles, h * np.arange(steps), h)
    d = 1
    while d < steps:
        grid[..., d + 1 :] = _mul(grid[..., d + 1 :], grid[..., 1 : steps + 1 - d])
        d *= 2
    return grid


def _integrate_targets(bundles, targets, grid):
    """Dressing-frame propagators U~ at each target in [0, 2 pi] (up to rounding).

    targets holds one row per bundle; one partial Magnus step from the node
    of grid, the bundles' _grid, below each.  A (2, 2, len(bundles), n) stack.
    """
    steps = grid.shape[-1] - 1
    h = TWO_PI / steps
    # the node below each target; the clip keeps a rounding of -1e-14 at
    # tau = 0 from reading node -1, the whole-period propagator
    node = np.clip(np.floor(targets / h), 0, steps).astype(np.int64)
    below = np.take_along_axis(grid, node[None, None], axis=-1)
    return _mul(_magnus_steps(bundles, h * node, targets - h * node), below)


def _refine(bundles, run, name):
    """The step-halving loop of every result of this module, and the one caller of _grid.

    Each pass integrates the grid of its points `rows` (an index array)
    once, and run(grid, rows) returns their values, tolerance scales and
    drifts, one row each, and a function that builds the results of the rows
    at the positions it is given.  Each point's steps double from
    _STEPS_PER_PERIOD at most _MAX_REFINEMENTS times, and the point leaves
    with its first result that moved by at most _REL_TOL * scale with drift
    <= _DRIFT_TOL.  A point still in the batch after the last refinement
    gets UnitarityLost if its last drift is out of bounds, and NoConvergence
    if not.  A level runs in passes of at most _PASS_NODES // steps points
    (at least one), so a pass's memory does not grow with the batch.
    Returns each bundle's result or error, in order.
    """
    out = [None] * len(bundles)
    rows = np.arange(len(bundles))
    for level in range(_MAX_REFINEMENTS + 1):
        if not rows.size:
            return out
        steps = _STEPS_PER_PERIOD << level
        size = max(1, _PASS_NODES // steps)
        passes = []
        for i in range(0, rows.size, size):
            part = rows[i : i + size]
            values, scale, part_drift, results = run(_grid([bundles[p] for p in part], steps), part)
            if level:
                part_err = np.max(np.abs(values - prev[i : i + size]).reshape(part.size, -1), axis=1)
                done = (part_err <= _REL_TOL * scale) & (part_drift <= _DRIFT_TOL)
            else:
                part_err, done = np.full(part.size, math.inf), np.zeros(part.size, dtype=bool)
            for p, result in zip(part[done], results(np.flatnonzero(done))):
                out[p] = result
            passes.append((part[~done], values[~done], part_drift[~done], part_err[~done]))
        rows, prev, drift, err = (np.concatenate(column) for column in zip(*passes))
    for p, last_drift, last_err in zip(rows, drift, err):
        if last_drift > _DRIFT_TOL:
            out[p] = UnitarityLost(
                f"{name} unitarity error {last_drift:.3e} exceeds {_DRIFT_TOL:g} after "
                f"{_MAX_REFINEMENTS} refinements ({steps} steps/period)"
            )
        else:
            out[p] = NoConvergence(
                f"{name} not converged after {_MAX_REFINEMENTS} refinements "
                f"({steps} steps/period, last change {last_err:.3e})"
            )
    return out


def _raised(result):
    """result, or raise it if it is an error."""
    if isinstance(result, DressedSpinError):
        raise result
    return result


def _sample_times(t_end, samples):
    """samples evenly spaced times from 0 to t_end (0 < t_end < inf, samples >= 2)."""
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be finite and > 0")
    if samples < 2:
        raise ValueError("samples must be >= 2")
    return np.linspace(0.0, t_end, samples)


def _sampled_series(bundles, taus, psi0):
    """The states U(tau) psi0 of each bundle at its row of taus.

    Returns at(grid, rows): the states of the points `rows` from their
    _grid, as a (len(rows), n, 2) array.  With tau = 2 pi k + s, each state
    is U(s) M^k psi0, where U(s) is one partial Magnus step from the grid
    node below s, rotated back to the lab frame, and M = U(2 pi) is the
    grid's last node.  Only the partial steps and M change with the grid;
    the phases s, the period indices k and the rotation angle at each s are
    computed here once.
    """
    # s may round to just below 0 or just past 2 pi; the partial Magnus step
    # from the nearest grid node covers either
    ks = np.floor(taus / TWO_PI).astype(np.int64)
    targets = taus - TWO_PI * ks
    # the rotation exp(-i phi sigma_x/2) back to the lab frame; tau mod 2 pi
    # makes it exactly the identity at whole periods instead of carrying the
    # rounding of sin(2 pi)
    half = 0.5 * np.array([bundle.xi for bundle in bundles], dtype=float)[:, None] * np.sin(np.mod(targets, TWO_PI))
    cos_half, sin_half = np.cos(half), np.sin(half)

    def at(grid, rows):
        rot = cos_half[rows] * np.eye(2)[:, :, None, None] - 1j * sin_half[rows] * PAULI_X[:, :, None, None]
        mats = _mul(rot, _integrate_targets([bundles[p] for p in rows], targets[rows], grid))
        # M^k psi0 from binary powers of M (powers of M commute, so the bits
        # of k may be applied in any order)
        k = ks[rows]
        power = np.moveaxis(grid[..., -1], -1, 0)
        mk_psi0 = np.broadcast_to(np.asarray(psi0, dtype=complex), k.shape + (2,))
        for bit in range(int(k.max(initial=0)).bit_length()):
            on = (k >> bit) & 1 == 1
            mk_psi0 = np.where(on[..., None], mk_psi0 @ power.transpose(0, 2, 1), mk_psi0)
            power = power @ power
        return np.einsum("ijpn,pnj->pni", mats, mk_psi0)

    return at


def _coherences_from_states(states):
    """<sigma> = (sx, sy, sz) of each state along the last axis."""
    a, b = states[..., 0], states[..., 1]
    cross = np.conj(a) * b
    sx = 2.0 * cross.real
    sy = 2.0 * cross.imag
    sz = (np.abs(a) ** 2 - np.abs(b) ** 2).real
    return sx, sy, sz


def propagate_series(configs, t_ends, samples: int) -> list:
    """The sampled <sigma>(t) from _PSI0 of each configuration, integrated as one batch.

    Each series has `samples` times from 0 to its own t_end.  Every point is
    step-halved on its own until its series settles AND its drift
    | |<sigma>| - 1 | is within _DRIFT_TOL.  Long runs accumulate drift
    through the monodromy powers, so conservation is part of the
    convergence criterion rather than an afterthought.  |<sigma>| = |psi|^2,
    which for spin one is |M|.  Returns per configuration its
    CoherenceSeries, or the UnitarityLost or NoConvergence it failed with.
    """
    times = np.array([_sample_times(t_end, samples) for t_end in t_ends])
    bundles = [dimensionless(config) for config in configs]
    taus = times * np.array([config.dressing.omega for config in configs], dtype=float)[:, None]
    series = _sampled_series(bundles, taus, _PSI0)

    def run(grid, rows):
        sx, sy, sz = _coherences_from_states(series(grid, rows))
        values = np.stack((sx, sy, sz), axis=-1)
        drift = np.max(np.abs(np.sqrt(sx * sx + sy * sy + sz * sz) - 1.0), axis=1)

        def results(done):
            return [CoherenceSeries(times[rows[i]], sx[i], sy[i], sz[i]) for i in done]

        return values, np.maximum(1.0, np.max(np.abs(values), axis=(1, 2))), drift, results

    return _refine(bundles, run, "series")


def propagate_spin_half(config: DriveConfiguration, t_end: float, samples: int) -> CoherenceSeries:
    """Integrate the two-level dynamics of the full drive and sample <sigma_j>(t).

    The spin starts in the +1 sigma_x eigenstate (1, 1)/sqrt(2), as in
    analytic_coherences.  The drift | |<sigma>| - 1 | is monitored over the
    whole run, and drift past _DRIFT_TOL (1e-9) raises UnitarityLost.  This
    is propagate_series on a batch of one.
    """
    return _raised(propagate_series([config], [t_end], samples)[0])


def propagate_bloch_spin1(config: DriveConfiguration, t_end: float, samples: int) -> CoherenceSeries:
    """Sample the spin-one magnetisation M(t) of dM/dt = (drive field) x M.

    Requires config.spin == "one".  M starts along +x, M(0) = x_hat, as in
    analytic_coherences.  M(t) is <sigma> of the spin-half spinor that starts
    as the +1 sigma_x eigenstate, so this is propagate_spin_half's series
    under the same drift bound: |M(t)| must stay within _DRIFT_TOL (1e-9) of
    1, and larger drift raises UnitarityLost.
    """
    if config.spin != "one":
        raise ValueError("propagate_bloch_spin1 requires a spin='one' configuration")
    return _raised(propagate_series([config], [t_end], samples)[0])


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


def monodromy_quasienergies(configs) -> list:
    """Larmor frequency of each configuration from its one-period propagator, integrated as one batch.

    The dressing phase closes after one period, so the monodromy M is the
    dressing-frame U~(2 pi), the same 2x2 matrix for both spins.  Its
    eigenphases +-theta fix Omega_L only as theta*omega/pi modulo 2 omega
    and up to sign; each point is step-halved on its own until that folded
    value moves by at most _REL_TOL * omega with a monodromy unitarity error
    within _DRIFT_TOL, and an error still past it after the last refinement
    gives UnitarityLost.  The accepted grid then unfolds the value by the
    Floquet modes (see QuasiEnergy).  The result does not depend on
    config.spin.  Returns per configuration its QuasiEnergy, or the
    UnitarityLost or NoConvergence it failed with.
    """
    bundles = [dimensionless(config) for config in configs]
    omegas = np.array([config.dressing.omega for config in configs], dtype=float)

    def run(grid, rows):
        mono = np.moveaxis(grid[..., -1], -1, 0)
        # ||M^dagger M - I||_2, the largest singular value
        unit_err = np.linalg.svd(mono.conj().transpose(0, 2, 1) @ mono - np.eye(2), compute_uv=False)[:, 0]
        theta = np.mean(np.abs(np.angle(np.linalg.eigvals(mono))), axis=1)  # phases come as ~(+t, -t)
        alias = (theta < _ALIAS_TOL) | (math.pi - theta < _ALIAS_TOL)

        def results(done):
            return [
                QuasiEnergy(_floquet_splitting(grid[:, :, i]) * float(omegas[rows[i]]), bool(alias[i]), float(unit_err[i]))
                for i in done
            ]

        return theta * omegas[rows] / math.pi, omegas[rows], unit_err, results

    return _refine(bundles, run, "monodromy")


def monodromy_quasienergy(config: DriveConfiguration) -> QuasiEnergy:
    """Larmor frequency from the propagator over exactly one drive period.

    The batch of one of monodromy_quasienergies: an error past the last
    refinement is raised.
    """
    return _raised(monodromy_quasienergies([config])[0])


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
