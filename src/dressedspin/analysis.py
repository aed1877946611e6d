"""Frequency extraction, parameter scans, and ratio-curve calibration.

Scans sweep one parameter (dressing parameter xi, tuning phase, or the
transverse static field) and tabulate the Larmor frequency by every
requested method: the first-order closed form, the numeric monodromy
quasienergy, and a fit to a propagated time series.  Calibration fits the
ratio of dressed to undressed precession frequencies versus the nominal
transverse field, recovering the field-scale factor, a tilt of the applied
transverse field into z, and the dressing parameter.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .config import DriveConfiguration, dimensionless, validate
from .effective import _p1_norm_maxes, rectified_field
from .errors import DegenerateData, DressedSpinError, FitDiverged, NoOscillation
from .fitting import Lcg64, least_squares
from .propagate import CoherenceSeries, monodromy_quasienergies, propagate_series
from .special import bessel_j

__all__ = [
    "FrequencyEstimate",
    "ScanSpec",
    "ScanRow",
    "ScanResult",
    "CalibrationFit",
    "extract_frequency",
    "run_scan",
    "calibrate",
    "synthetic_calibration_data",
    "J0_FIRST_ROOT",
]

# First zero of J0, located by the package's own bisection against bessel_j;
# pinned here (and re-derived in the tests) because calibration inverts J0 on
# [0, first root].
J0_FIRST_ROOT = 2.404825557695773

SWEEPABLE = ("xi", "phi", "omega0x")
METHODS = ("perturbative", "monodromy", "timeseries")


@dataclass(frozen=True)
class FrequencyEstimate:
    """Fitted precession frequency (rad/s) and its standard error."""

    omega_L: float
    stderr: float


def extract_frequency(series: CoherenceSeries) -> FrequencyEstimate:
    """Precession frequency of the sx channel: offset + amplitude*cos(Omega t).

    The sx channel carries a single spectral line, so a three-parameter
    model applies: the discrete spectrum peak seeds a nonlinear refinement.
    The series must start at the zero-phase point t = 0 (all generators in
    this package do) and be uniformly sampled at increasing times with at
    least 16 samples (ValueError otherwise).  A series that spans fewer than
    3 periods of its line or resolves each period with fewer than 16 samples
    raises NoOscillation.
    """
    t = np.asarray(series.times, dtype=float)
    y = np.asarray(series.sx, dtype=float)
    if t.size < 16:
        raise ValueError("need at least 16 samples")
    dt = np.diff(t)
    if t[0] != 0.0 or not dt[0] > 0.0:
        raise ValueError("series must start at t = 0 with increasing times")
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("series must be uniformly sampled")
    dt = float(dt[0])

    centred = y - float(np.mean(y))
    if float(np.max(np.abs(centred))) < 1e-3:
        raise NoOscillation("sx oscillation amplitude below 1e-3")
    spec = np.abs(np.fft.rfft(centred))
    if spec.size < 3:
        raise NoOscillation("series too short for a spectrum")
    k = int(np.argmax(spec[1:])) + 1
    # the peak must actually stand out against the rest of the spectrum
    others = np.delete(spec, [0, k])
    if others.size and spec[k] < 3.0 * float(np.median(others)) + 1e-30:
        raise NoOscillation("spectral peak indistinct")
    # parabolic interpolation of the peak bin
    if 1 <= k < spec.size - 1 and spec[k - 1] > 0 and spec[k + 1] > 0:
        la, lb, lc = np.log(spec[k - 1 : k + 2])
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0.0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    omega0 = 2.0 * math.pi * (k + shift) / (t.size * dt)

    span = t[-1] - t[0]
    if span * omega0 < 3.0 * 2.0 * math.pi:
        raise NoOscillation("series spans fewer than 3 oscillation periods")
    if 2.0 * math.pi / omega0 < 16.0 * dt:
        raise NoOscillation("fewer than 16 samples per oscillation period")

    jac = np.empty((3, t.size))
    jac[0] = 1.0

    def normal(params):
        c, a, om = params
        phase = om * t
        np.cos(phase, out=jac[1])
        jac[2] = -a * t * np.sin(phase)
        r = c + a * jac[1] - y
        return float(r @ r), jac @ r, jac @ jac.T

    amp0 = float(np.max(centred) - np.min(centred)) / 2.0
    fit = least_squares(normal, [float(np.mean(y)), amp0, omega0], t.size)
    if not fit.converged or not np.all(np.isfinite(fit.params)):
        raise FitDiverged("offset+cosine refinement did not converge")
    omega_fit = abs(float(fit.params[2]))
    stderr = float(math.sqrt(max(fit.covariance[2, 2], 0.0)))
    return FrequencyEstimate(omega_L=omega_fit, stderr=stderr)


@dataclass(frozen=True)
class ScanSpec:
    """One swept parameter over a strictly monotone grid.

    swept: "xi" (dimensionless), "phi" (radians; requires exactly one tuning
    component), or "omega0x" (rad/s).  methods is a nonempty subset of
    {perturbative, monodromy, timeseries}, each named once.
    """

    swept: str
    grid: tuple
    base: DriveConfiguration
    methods: tuple = ("perturbative",)

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.swept not in SWEEPABLE:
            raise ValueError(f"swept must be one of {SWEEPABLE}")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        d = np.diff(self.grid)
        if self.grid[1:] and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("grid must be strictly monotone")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must be a nonempty list without repeats, got {self.methods!r}")
        if self.swept == "phi" and len(self.base.tuning) != 1:
            raise ValueError("phi sweep requires exactly one tuning component")
        validate(self.base)

    def config_at(self, value: float) -> DriveConfiguration:
        if self.swept == "xi":
            if value < 0.0:
                raise ValueError("xi must be >= 0")
            dres = replace(self.base.dressing, omega_d=value * self.base.dressing.omega)
            return replace(self.base, dressing=dres)
        if self.swept == "phi":
            comp = replace(self.base.tuning[0], phase=value)
            return replace(self.base, tuning=(comp,))
        static = replace(self.base.static, omega0x=value)
        return replace(self.base, static=static)


@dataclass(frozen=True)
class ScanRow:
    """One grid point: swept value, Omega_L per method (rad/s; None on error),
    diagnostics, and per-method error tokens."""

    value: float
    perturbative: float = None
    monodromy: float = None
    timeseries: float = None
    eta: float = None
    alias_ambiguous: bool = None
    p1_norm_max: float = None
    errors: tuple = ()


@dataclass(frozen=True)
class ScanResult:
    spec: ScanSpec
    rows: tuple


def _timeseries_omegas(configs, omega_refs):
    """Propagate about 8 periods of each omega_ref and fit each sx frequency.

    A window whose 256 samples lie a drive period or more apart is cut down
    to whole drive periods between samples, so the micromotion is the same
    at every sample and cannot alias next to the Larmor line; cut down, not
    rounded, so no spacing grows.  One batch of propagate_series over every
    point with a finite window, then one fit per point.  Returns per point
    the fitted frequency or the DressedSpinError it failed with; a reference
    of 0, or one so small that 8 periods are not a finite time, gives
    NoOscillation.
    """
    out = [None] * len(configs)
    windows = {}
    for i, omega_ref in enumerate(omega_refs):
        t_end = 8.0 * 2.0 * math.pi / abs(omega_ref) if omega_ref else math.inf
        if t_end < math.inf:
            stride = 255.0 * 2.0 * math.pi / configs[i].dressing.omega  # samples one drive period apart
            windows[i] = stride * math.floor(t_end / stride) or t_end
        else:
            out[i] = NoOscillation(f"no finite 8-period window for a reference frequency of {omega_ref:g} rad/s")
    batch = propagate_series([configs[i] for i in windows], list(windows.values()), 256)
    for i, series in zip(windows, batch):
        try:
            out[i] = series if isinstance(series, DressedSpinError) else extract_frequency(series).omega_L
        except DressedSpinError as exc:
            out[i] = exc
    return out


def _scan_rows(spec: ScanSpec, values):
    """The rows of `values`, a contiguous run of the grid.

    The closed form runs point by point; then one batched P1 table, one
    batched monodromy pass and one batched time-series pass cover every
    point whose configuration is valid.
    """
    rows = [{"value": value, "errors": []} for value in values]
    valid, configs, window_refs = [], [], []
    for row in rows:
        try:
            config = validate(spec.config_at(row["value"]))
        except (DressedSpinError, ValueError) as exc:
            row["errors"].append(f"config:{type(exc).__name__}")
            continue
        field = rectified_field(config)
        row["eta"] = field.eta
        if "perturbative" in spec.methods:
            row["perturbative"] = field.omega_L
        valid.append(row)
        configs.append(config)
        # the time-series window is sized from the monodromy value where
        # there is one, else from first order
        window_refs.append(field.omega_L)

    p1 = _p1_norm_maxes([dimensionless(config) for config in configs], [config.spin for config in configs])
    for row, norm in zip(valid, p1):
        if isinstance(norm, DressedSpinError):
            row["errors"].append(f"perturbative:{type(norm).__name__}")
        else:
            row["p1_norm_max"] = norm

    if "monodromy" in spec.methods:
        for i, qe in enumerate(monodromy_quasienergies(configs)):
            if isinstance(qe, DressedSpinError):
                valid[i]["errors"].append(f"monodromy:{type(qe).__name__}")
            else:
                valid[i]["monodromy"] = window_refs[i] = qe.omega_L_numeric
                valid[i]["alias_ambiguous"] = qe.alias_ambiguous

    if "timeseries" in spec.methods:
        for row, omega in zip(valid, _timeseries_omegas(configs, window_refs)):
            if isinstance(omega, DressedSpinError):
                row["errors"].append(f"timeseries:{type(omega).__name__}")
            else:
                row["timeseries"] = omega

    return [ScanRow(**dict(row, errors=tuple(row["errors"]))) for row in rows]


def run_scan(spec: ScanSpec, jobs: int = 1) -> ScanResult:
    """Evaluate every grid point by every requested method.

    The closed form runs point by point; the P1 diagnostic is one batched
    Fourier table over the grid (_p1_norm_maxes), and the monodromy and the
    time-series columns each run as one batched propagation pass over the
    grid, in which every point refines on its own.  Per-point failures are
    recorded as error tokens in the row and the scan continues.  Every row
    is a pure function of (spec, value), equal field by field to the row of
    the one-point scan at that value, so rows come back alike in grid order
    regardless of jobs; jobs > 1 gives each worker process one contiguous
    chunk of the grid, and each chunk is one batched pass.  The monodromy
    column is the per-point Floquet-mode value of monodromy_quasienergy, not
    a value unfolded along the grid.
    """
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        n = len(spec.grid)
        bounds = [n * k // jobs for k in range(jobs + 1)]
        chunks = [spec.grid[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            rows = [row for part in pool.map(_scan_rows, [spec] * len(chunks), chunks) for row in part]
    else:
        rows = _scan_rows(spec, spec.grid)
    return ScanResult(spec=spec, rows=tuple(rows))


@dataclass(frozen=True)
class CalibrationFit:
    """Recovered transverse-field scale, tilt fraction into z, and dressing
    parameter, with 1-sigma errors from the fit's local curvature."""

    scale: float
    tilt: float
    xi: float
    residual_norm: float
    scale_err: float
    tilt_err: float
    xi_err: float


def _ratio_model(omega0x_nominal, omega0z, params):
    scale, tilt, xi = params
    wx = omega0x_nominal * scale
    wz = omega0z + tilt * wx
    j0, j1 = bessel_j(range(2), xi)
    num = np.hypot(wx, wz * j0)
    den = np.hypot(wx, wz)
    return num, den, wx, wz, j0, j1


def _invert_j0(r0):
    """The x in [0, J0_FIRST_ROOT] with J0(x) = r0, for 0 < r0 <= 1.

    Bracketed Newton iteration (rtsafe, Numerical Recipes 9.4) with
    J0' = -J1, both read from one Bessel table per iterate; a step that would
    leave the bracket is replaced by bisection.  Stops at a step <= 1e-12.
    A ratio below J0 of the pinned root (5e-17) lands on the root.
    """
    lo, hi = 0.0, J0_FIRST_ROOT
    x = min(2.0 * math.sqrt(1.0 - r0), hi)  # root of the small-x form 1 - x^2/4
    for _ in range(100):
        j0, j1 = bessel_j(range(2), x)
        f = j0 - r0  # decreasing in x on the bracket
        if f == 0.0:
            return x
        if f > 0.0:
            lo = x
        else:
            hi = x
        x_new = x + f / j1
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-12:
            return x_new
        x = x_new
    return x


def calibrate(ratio_data, omega0z: float) -> CalibrationFit:
    """Fit dressed/undressed frequency ratios vs the nominal transverse field.

    ratio_data: sequence of (omega0x_nominal [rad/s], ratio) pairs; the
    zero-field point pins xi through ratio = |J0(xi)|.  omega0z is held
    fixed.  The ratio model does not depend on the drive frequency once xi
    is a parameter.

    Model: ratio(w) = Omega0(w*scale, omega0z + tilt*w*scale; xi)
                    / Omega0(w*scale, omega0z + tilt*w*scale; 0)
    with Omega0 the tuning-off precession law.  Fits with |tilt| > 0.2 are
    rejected as unphysical.

    The fit starts from scale 1, tilt 0 and the xi in [0, J0_FIRST_ROOT]
    with J0(xi) equal to the zero-field ratio (clipped to 1), found by a
    bracketed Newton iteration; a ratio below J0 of the pinned root starts
    at the root.  Each trial step of the fit costs one evaluation of the
    ratio model, which gives the residuals and their three Jacobian columns
    together.  The fit stops when the first step it proposes in an iteration
    is below 1e-10 relative to the parameters (fitting.least_squares), so
    its last digits depend on the start: from a start bisected to 1e-12
    instead, the fitted values agree within 1e-6 of each 1-sigma error
    (tested over 200 seeded synthetic data sets).  A non-finite omega0z
    raises DegenerateData, and so does a zero-field row when omega0z = 0,
    since it has no undressed precession.
    """
    if not math.isfinite(omega0z):
        raise DegenerateData(f"omega0z must be finite, got {omega0z:g} rad/s")
    data = [(float(w), float(r)) for w, r in ratio_data]
    if len(data) < 5:
        raise DegenerateData(f"need at least 5 data points, got {len(data)}")
    wx = np.array([d[0] for d in data])
    ratios = np.array([d[1] for d in data])
    if not (np.all(np.isfinite(wx)) and np.all(np.isfinite(ratios))):
        raise DegenerateData("omega0x and ratio values must be finite")
    if np.all(wx == wx[0]):
        raise DegenerateData("all omega0x values equal; scale and tilt are unidentifiable")
    if np.any(ratios <= 0.0):
        raise DegenerateData("ratios must be positive")
    if omega0z == 0.0 and np.any(wx == 0.0):
        row = int(np.argmax(wx == 0.0)) + 1
        raise DegenerateData(f"undressed frequency is 0 at data row {row} (omega0x = omega0z = 0); no ratio is defined")

    # initial guesses: invert J0 on [0, first root] at the zero-field point
    i0 = int(np.argmin(np.abs(wx)))
    xi0 = _invert_j0(min(float(ratios[i0]), 1.0))

    def normal(params):
        scale, tilt, xi = params
        num, den, wxs, wzs, j0, j1 = _ratio_model(wx, omega0z, params)
        r = num / den - ratios
        dnum_dscale = (wxs * wx + wzs * (tilt * wx) * j0 * j0) / num
        dden_dscale = (wxs * wx + wzs * (tilt * wx)) / den
        dnum_dtilt = wzs * wxs * j0 * j0 / num
        dden_dtilt = wzs * wxs / den
        dnum_dxi = -(wzs * wzs) * j0 * j1 / num
        col_scale = (dnum_dscale * den - num * dden_dscale) / (den * den)
        col_tilt = (dnum_dtilt * den - num * dden_dtilt) / (den * den)
        col_xi = dnum_dxi / den
        jac = np.array([col_scale, col_tilt, col_xi])
        return float(r @ r), jac @ r, jac @ jac.T

    fit = least_squares(normal, [1.0, 0.0, xi0], wx.size)
    if not fit.converged:
        raise FitDiverged(f"calibration fit did not converge after {fit.iterations} iterations")
    scale, tilt, xi = (float(v) for v in fit.params)
    xi = abs(xi)  # J0 is even; report the physical branch
    if abs(tilt) > 0.2:
        raise FitDiverged(f"fit rejected: tilt fraction {tilt:.3f} outside [-0.2, 0.2]")
    errs = np.sqrt(np.clip(np.diag(fit.covariance), 0.0, None))
    return CalibrationFit(
        scale=scale,
        tilt=tilt,
        xi=xi,
        residual_norm=fit.residual_norm,
        scale_err=float(errs[0]),
        tilt_err=float(errs[1]),
        xi_err=float(errs[2]),
    )


def synthetic_calibration_data(
    omega0x_grid,
    *,
    omega0z: float,
    xi: float,
    scale: float = 1.0,
    tilt: float = 0.0,
    noise: float = 0.0,
    seed: int = 0,
):
    """Generate (omega0x_nominal, ratio) pairs from the fit's ratio model.

    The dressed and undressed frequencies are the numerator and denominator
    of calibrate's model at (scale, tilt, xi).  noise is the multiplicative
    1-sigma level applied independently to each, drawn from the seeded Lcg64
    generator (see fitting.Lcg64); the ratio inherits both.  A grid point
    with no field at all (undressed frequency 0) has no ratio and raises
    DegenerateData.
    """
    w_nom = np.array([float(w) for w in omega0x_grid])
    dressed, undressed = _ratio_model(w_nom, omega0z, (scale, tilt, xi))[:2]
    rng = Lcg64(seed)
    rows = []
    for w, num, den in zip(w_nom.tolist(), dressed.tolist(), undressed.tolist()):
        if den == 0.0:
            raise DegenerateData(f"undressed frequency is 0 at omega0x = {w:g} rad/s; no ratio is defined")
        if noise:
            num *= 1.0 + noise * rng.normal()
            den *= 1.0 + noise * rng.normal()
        rows.append((w, num / den))
    return rows
