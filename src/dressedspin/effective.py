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
"""

from dataclasses import dataclass
import math

import numpy as np

from .config import DriveConfiguration, dimensionless
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


def floquet_first_order(config: DriveConfiguration, tau_grid=None) -> FloquetFirstOrder:
    """Lambda1 built from the rectified field, plus the max norm of P1.

    For spin half Lambda1 = h.sigma/(2 omega) (Hermitian); for spin one it is
    the rotation generator h.L/omega.  P1 is evaluated on tau_grid (default:
    129 points over one period) from the periodic remainders f1..f4, and its
    largest spectral norm is returned as a size diagnostic for the
    exp(-i P1) ~ identity approximation.  P1 = v.sigma/2 or v.L, so that
    norm is |v|/2 (spin half) or |v| (spin one).

    When every field vanishes, Lambda1 = 0: its eigenbasis is unspecified
    (there is no precession axis), only the zero eigenvalues are meaningful.
    """
    b = dimensionless(config)
    field = rectified_field(config)
    w = config.dressing.omega
    hx, hy, hz = field.hx / w, field.hy / w, field.hz / w
    if b.spin == "half":
        lambda1 = 0.5 * (hx * PAULI_X + hy * PAULI_Y + hz * PAULI_Z)
    else:
        lambda1 = hx * L_X + hy * L_Y + hz * L_Z

    if tau_grid is None:
        tau_grid = np.linspace(0.0, 2.0 * math.pi, 129)
    v_max = 0.0
    for tau in np.asarray(tau_grid, dtype=float):
        v_max = max(v_max, math.hypot(*_p1_vector(b, float(tau))))
    p1_max = 0.5 * v_max if b.spin == "half" else v_max
    return FloquetFirstOrder(lambda1=lambda1, p1_norm_max=p1_max)
