"""First-order rectified field, Larmor frequency, and Floquet matrices.

The one-period average of the interaction-picture generator gives a static
effective field h (in energy units): the x component passes through
unattenuated, the y and z components get Bessel-weighted contributions from
the static field and from each tuning component according to the parity of
its harmonic.  |h| is the observable Larmor precession frequency.

Parity rule for a tuning component of amplitude A, harmonic m, phase Ph:
    on y:  adds J_m(xi)*A*cos(Ph) to h_y when m is even,
           adds J_m(xi)*A*sin(Ph) to h_z when m is odd;
    on z:  adds J_m(xi)*A*cos(Ph) to h_z when m is even,
           subtracts J_m(xi)*A*sin(Ph) from h_y when m is odd;
    on x:  no first-order contribution (the component commutes with the
           dressing rotation and has zero period average for m >= 1);
           it still enters the periodic part P1 and the exact dynamics.

Each rule follows from the period average of the rotated drive; the tests
check all parity cells against direct quadrature of the generator.

The periodic part P1, the integral of the rotated drive less h, sizes the
micromotion that h leaves out.  It has two routes: floquet_first_order sums
its Bessel series (f1..f4) one tau point at a time, and _p1_norm_maxes, which
the scans and the CLI read, takes it for a whole batch of points from one FFT
of the dressing-frame field.  Each route checks the other.
"""

from dataclasses import dataclass
import math

import numpy as np

from .config import DriveConfiguration, dimensionless
from .errors import SeriesNotConverged
from .special import bessel_j, f_aux, g_func

__all__ = [
    "EffectiveField",
    "FloquetFirstOrder",
    "rectified_field",
    "larmor_frequency",
    "bare_precession",
    "floquet_first_order",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "L_X",
    "L_Y",
    "L_Z",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Cartesian rotation generators: (B . L) M = B x M.
L_X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
L_Y = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
L_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

# The P1 table: samples per FFT pass (the points of a pass share them), and
# the most samples per period one point may need (|xi| + p_max up to 16368).
_P1_PASS_SAMPLES = 1 << 14
_P1_MAX_SAMPLES = 1 << 16


@dataclass(frozen=True)
class EffectiveField:
    """Rectified field components in energy units (rad/s) and its modulus.

    eta is the perturbative-validity diagnostic max(|omega0_j|, amplitudes)/omega;
    first-order results are trustworthy for eta well below the dressing
    strength (the CLI warns above 0.3).
    """

    hx: float
    hy: float
    hz: float
    omega_L: float
    eta: float


@dataclass(frozen=True)
class FloquetFirstOrder:
    """First-order Floquet matrix (dimensionless, in units of omega) and the
    maximum spectral norm of the periodic part P1 over the requested grid."""

    lambda1: np.ndarray
    p1_norm_max: float


def rectified_field(config: DriveConfiguration) -> EffectiveField:
    """First-order rectified field h of a validated configuration (rad/s).

    Works directly in angular-frequency units so the undressed x component
    is returned bit-for-bit equal to omega0x.
    """
    b = dimensionless(config)  # validates; xi and eta come from here
    j0 = bessel_j(0, b.xi)
    hx = config.static.omega0x
    hy = j0 * config.static.omega0y
    hz = j0 * config.static.omega0z
    for comp in config.tuning:
        if comp.amplitude == 0.0:
            continue
        jm = bessel_j(int(comp.harmonic), b.xi)
        even = comp.harmonic % 2 == 0
        if comp.axis == "y":
            if even:
                hy += jm * comp.amplitude * math.cos(comp.phase)
            else:
                hz += jm * comp.amplitude * math.sin(comp.phase)
        elif comp.axis == "z":
            if even:
                hz += jm * comp.amplitude * math.cos(comp.phase)
            else:
                hy -= jm * comp.amplitude * math.sin(comp.phase)
        # axis == "x": zero period average, nothing to add
    eta = max([abs(v) for v in b.w0] + [t.strength for t in b.tuning], default=0.0)
    return EffectiveField(hx=hx, hy=hy, hz=hz, omega_L=math.sqrt(hx * hx + hy * hy + hz * hz), eta=eta)


def larmor_frequency(config: DriveConfiguration) -> float:
    """|h| >= 0, the effective Larmor precession frequency (rad/s).

    For omega0x = omega0y = 0 with a single y-axis tuning component this
    reduces to |omega0z*J0 + A*J_p*sin(Phi)| (p odd) or
    sqrt((A*J_p*cos(Phi))^2 + (omega0z*J0)^2) (p even).  Signed projections
    are available from the EffectiveField components.
    """
    return rectified_field(config).omega_L


def bare_precession(omega0x: float, omega0z: float, xi: float) -> float:
    """Precession frequency with the tuning off: sqrt(w0x^2 + w0z^2 J0(xi)^2)."""
    return math.hypot(omega0x, omega0z * bessel_j(0, xi))


def _dressing_frame_field(bundles, taus):
    """Field of each bundle in the frame that follows its dressing rotation.

    taus has shape (..., len(bundles), n), one row of times per bundle, or a
    shape that broadcasts to it, such as (n,) for times shared by every
    bundle; the field is a (3, ..., len(bundles), n) array.  With
    phi(tau) = xi sin(tau) and b(tau) the lab field without the dressing
    term, the rotation exp(+i phi sigma_x/2) turns b(tau) + xi cos(tau) x into
    (b_x, b_y cos phi + b_z sin phi, -b_y sin phi + b_z cos phi): the dressing
    term drops out exactly.  Units of omega.
    """
    taus = np.asarray(taus, dtype=float)
    shape = taus.shape[:-2] + (len(bundles), taus.shape[-1])
    w0 = np.array([bundle.w0 for bundle in bundles], dtype=float).reshape(-1, 3)
    b = np.empty((3,) + shape)
    for a, axis in enumerate("xyz"):
        b[a] = w0[:, a, None]
        # at most one term per axis and bundle; a bundle without one keeps w0
        terms = {i: t for i, bundle in enumerate(bundles) for t in bundle.tuning if t.axis == axis}
        if terms:
            strength, harmonic, phase = (
                np.array([getattr(t, name) for t in terms.values()])[:, None] for name in ("strength", "harmonic", "phase")
            )
            rows = slice(None) if len(terms) == len(bundles) else list(terms)
            b[a][..., rows, :] += strength * np.cos(harmonic * np.broadcast_to(taus, shape)[..., rows, :] + phase)
    phi = np.array([bundle.xi for bundle in bundles], dtype=float)[:, None] * np.sin(taus)
    c, s = np.cos(phi), np.sin(phi)
    by, bz = b[1] * c, b[2] * c
    by += b[2] * s
    bz -= b[1] * s
    b[1], b[2] = by, bz
    return b


def _p1_vector(bundle, tau):
    """Cartesian components of the periodic part P1 at tau, in units of omega."""
    w0x, w0y, w0z = bundle.w0
    vx = 0.0
    vy = w0y * f_aux(1, tau, bundle.xi) + w0z * f_aux(2, tau, bundle.xi)
    vz = -w0y * f_aux(2, tau, bundle.xi) + w0z * f_aux(1, tau, bundle.xi)
    for t in bundle.tuning:
        if t.axis == "x":
            m = t.harmonic
            vx += t.strength * (math.sin(m * tau + t.phase) - math.sin(t.phase)) / m
            continue
        g = g_func(tau, bundle.xi, t.harmonic, t.phase)  # f3 = g.real, f4 = g.imag
        if t.axis == "y":
            vy += t.strength * g.real
            vz -= t.strength * g.imag
        else:
            vy += t.strength * g.imag
            vz += t.strength * g.real
    return vx, vy, vz


def _p1_samples(bundle) -> int:
    """Samples per period that resolve every harmonic of the bundle's
    dressing-frame field: a power of two from 256 up, at least
    4(|xi| + p_max) + 64.  The field's weight past harmonic |xi| + p_max
    falls off like J_n(|xi|) past n = |xi|, so it is below rounding well
    before the Nyquist bin at 2(|xi| + p_max) + 32."""
    top = 4.0 * (abs(bundle.xi) + max((t.harmonic for t in bundle.tuning), default=0)) + 64.0
    n = 256
    while n < top:
        n *= 2
    return n


def _p1_vectors(bundles, n):
    """P1 = v.sigma/2 or v.L of each bundle at tau = 2 pi j/128, j = 0..127,
    from n uniform samples of its dressing-frame field b~: a
    (3, len(bundles), 128) array, in units of omega.

    P1(tau) is the periodic part of the integral of b~: the sum over
    m != 0 of C_m (exp(i m tau) - 1)/(i m), with C_m the Fourier
    coefficients of b~.  n is a multiple of 128.
    """
    coef = np.fft.rfft(_dressing_frame_field(bundles, 2.0 * math.pi / n * np.arange(n)), axis=-1)
    coef[..., 1:-1] /= 1j * np.arange(1, n // 2)
    coef[..., 0] = coef[..., -1] = 0.0  # the mean (h) and the Nyquist bin
    v = np.fft.irfft(coef, n, axis=-1)[..., :: n // 128]
    return v - v[..., :1]


def _p1_norm_maxes(bundles, spins):
    """The P1 diagnostic of floquet_first_order on its default 129-point grid,
    for a batch of bundles, from one FFT of their dressing-frame fields.

    Points are grouped by their _p1_samples N and run through _p1_vectors in
    passes of at most _P1_PASS_SAMPLES samples (one point at least), so each
    value is a function of its own bundle alone and the memory does not grow
    with the batch.  The 128 tau points of _p1_vectors are the default grid
    (its last point, 2 pi, repeats tau = 0, where P1 = 0).  spins[i] is
    "half" (norm |v|/2) or "one" (|v|).  Returns per bundle the float, or the
    SeriesNotConverged of a field that needs more than _P1_MAX_SAMPLES
    samples per period.
    """
    out = [None] * len(bundles)
    sizes = [_p1_samples(bundle) for bundle in bundles]
    for n in sorted(set(sizes)):
        points = [i for i, size in enumerate(sizes) if size == n]
        if n > _P1_MAX_SAMPLES:
            for i in points:
                out[i] = SeriesNotConverged(
                    f"P1 table: xi={bundles[i].xi:g} needs {n} > {_P1_MAX_SAMPLES} samples per period"
                )
            continue
        per_pass = max(1, _P1_PASS_SAMPLES // n)
        for lo in range(0, len(points), per_pass):
            part = points[lo : lo + per_pass]
            v = _p1_vectors([bundles[i] for i in part], n)
            for i, norm in zip(part, np.sqrt(np.sum(v * v, axis=0)).max(axis=-1).tolist()):
                out[i] = 0.5 * norm if spins[i] == "half" else norm
    return out


def floquet_first_order(config: DriveConfiguration, tau_grid=None) -> FloquetFirstOrder:
    """Lambda1 built from the rectified field, plus the max norm of P1.

    For spin half Lambda1 = h.sigma/(2 omega) (Hermitian); for spin one it is
    the rotation generator h.L/omega.  P1 is evaluated on tau_grid (default:
    129 points over one period) from the periodic remainders f1..f4, and its
    largest spectral norm is returned as a size diagnostic for the
    exp(-i P1) ~ identity approximation.  P1 = v.sigma/2 or v.L, so that
    norm is |v|/2 (spin half) or |v| (spin one).  The CLI reads the same
    diagnostic from the batched Fourier table _p1_norm_maxes; this series
    route is its independent check.

    When every field vanishes, Lambda1 = 0: its eigenbasis is unspecified
    (there is no precession axis), only the zero eigenvalues are meaningful.
    """
    b = dimensionless(config)
    field = rectified_field(config)
    w = config.dressing.omega
    hx, hy, hz = field.hx / w, field.hy / w, field.hz / w
    if config.spin == "half":
        lambda1 = 0.5 * (hx * PAULI_X + hy * PAULI_Y + hz * PAULI_Z)
    else:
        lambda1 = hx * L_X + hy * L_Y + hz * L_Z

    if tau_grid is None:
        tau_grid = np.linspace(0.0, 2.0 * math.pi, 129)
    v_max = 0.0
    for tau in np.asarray(tau_grid, dtype=float):
        v_max = max(v_max, math.hypot(*_p1_vector(b, float(tau))))
    p1_max = 0.5 * v_max if config.spin == "half" else v_max
    return FloquetFirstOrder(lambda1=lambda1, p1_norm_max=p1_max)
