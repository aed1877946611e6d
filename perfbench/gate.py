"""Correctness gate for the outputs of one benchmark pass.

No stored golden file: every check recomputes what the output must be, so
it holds on any seed.  The references use scipy, never the package's own
Bessel routine.  Tolerances:

- CSVs: schema line first, then the expected number of data rows.
- h and Omega_L: the parity rule with scipy.special.jv, within H_RTOL of the
  undressed field scale (|omega0_x| + |omega0_y| + |omega0_z| + the tuning
  amplitudes) plus the rounding of the 12-digit CSV format.  The scale, not
  |h|, is the denominator because h vanishes at the J0 zeros.
- p1_norm_max: an independent vectorised evaluation of the f1..f4 series on
  the same 129-point tau grid, within P1_RTOL relative.
- monodromy vs time-series Omega_L, where a row has both: within
  XCHECK_RTOL relative.  The time-series window is sized from the closed-form
  Omega_L; where the monodromy value differs from the closed form by more
  than 10 % the window is mis-sized, the fit is coarser, and
  XCHECK_MISSIZED_RTOL applies.  Over 700 scan points of the odd-harmonic
  config the worst differences seen were 2.1e-4 and 1.65e-2 (at xi = 3.347).
- coherences: every numeric triple has sx^2 + sy^2 + sz^2 within NORM_TOL of 1.
- calibrate: the recovered scale, tilt and xi lie within CAL_SIGMAS of their
  reported sigmas of the synthetic truth.  With 11 data points and three
  parameters the sigmas come from 8 residual degrees of freedom, so a correct
  fit misses by Student-t statistics: 58 of 3000 noise seeds (1.9 %) miss.
  A pass therefore fails its misses only when there are more than
  CAL_MISSES_ALLOWED of them; a miss beyond CAL_GROSS_SIGMAS always fails.
"""

from dataclasses import replace
import math

import numpy as np
from scipy.special import jv

KHZ = 2.0 * math.pi * 1e3
SCHEMA_LINE = "# dressedspin-csv v1"

H_RTOL = 1e-12
P1_RTOL = 1e-10
XCHECK_RTOL = 2e-3
XCHECK_MISSIZED_RTOL = 5e-2
NORM_TOL = 1e-6
CAL_SIGMAS = 3.0
CAL_GROSS_SIGMAS = 20.0
CAL_MISSES_ALLOWED = 6  # of 30 fits; a correct fit misses with p = 0.019
FMT_RTOL = 6e-12  # rounding of '%.12g'
TAU_POINTS = 129


def read_csv(path):
    """(header, rows) of a dressedspin CSV; raises ValueError on a bad schema line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SCHEMA_LINE:
        raise ValueError(f"{path}: first line is not {SCHEMA_LINE!r}")
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise ValueError(f"{path}: no header line")
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: row width differs from the header")
    return header, rows


def close(value, ref, atol):
    return abs(value - ref) <= atol + FMT_RTOL * abs(ref)


def field_scale(config):
    s = config.static
    return abs(s.omega0x) + abs(s.omega0y) + abs(s.omega0z) + sum(abs(t.amplitude) for t in config.tuning)


def h_reference(config):
    """(hx, hy, hz, Omega_L) in rad/s from the parity rule, with scipy's J_n."""
    xi = config.dressing.omega_d / config.dressing.omega
    j0 = float(jv(0, xi))
    hx = config.static.omega0x
    hy = j0 * config.static.omega0y
    hz = j0 * config.static.omega0z
    for t in config.tuning:
        jm = float(jv(t.harmonic, xi))
        if t.axis == "y" and t.harmonic % 2 == 0:
            hy += jm * t.amplitude * math.cos(t.phase)
        elif t.axis == "y":
            hz += jm * t.amplitude * math.sin(t.phase)
        elif t.axis == "z" and t.harmonic % 2 == 0:
            hz += jm * t.amplitude * math.cos(t.phase)
        elif t.axis == "z":
            hy -= jm * t.amplitude * math.sin(t.phase)
    return hx, hy, hz, math.sqrt(hx * hx + hy * hy + hz * hz)


def p1_reference(config):
    """Largest spectral norm of the periodic part P1 over 129 tau points.

    P1 = v(tau).sigma/2 (spin half) or v(tau).L (spin one), whose norms are
    |v|/2 and |v|; v is summed from the f1..f4 Bessel series, all orders at
    once on the whole tau grid.
    """
    w = config.dressing.omega
    xi = config.dressing.omega_d / w
    w0x, w0y, w0z = (v / w for v in config.static.as_tuple())
    tau = np.linspace(0.0, 2.0 * math.pi, TAU_POINTS)[:, None]
    nmax = int(abs(xi)) + 40
    n = np.arange(1, nmax + 1)
    f1 = (jv(2 * n, xi) / n * np.sin(2 * n * tau)).sum(axis=1)
    k = np.arange(0, nmax + 1)
    f2 = (4.0 * jv(2 * k + 1, xi) / (2 * k + 1) * np.sin((k + 0.5) * tau) ** 2).sum(axis=1)
    vx = np.zeros(TAU_POINTS)
    vy = w0y * f1 + w0z * f2
    vz = -w0y * f2 + w0z * f1
    orders = np.arange(-nmax, nmax + 1)
    jn = jv(orders, xi)
    for t in config.tuning:
        if t.amplitude == 0.0:
            continue
        s, p, ph = t.amplitude / w, t.harmonic, t.phase
        if t.axis == "x":
            vx += s * (np.sin(p * tau[:, 0] + ph) - math.sin(ph)) / p
            continue
        g = np.zeros(TAU_POINTS, dtype=complex)
        for sign, phase in ((p, ph), (-p, -ph)):
            keep = orders != -sign
            kk = orders[keep] + sign
            terms = 0.5 * np.exp(1j * phase) * jn[keep] / (1j * kk) * (np.exp(1j * kk * tau) - 1.0)
            g += terms.sum(axis=1)
        f3, f4 = g.real, g.imag
        if t.axis == "y":
            vy, vz = vy + s * f3, vz - s * f4
        else:
            vy, vz = vy + s * f4, vz + s * f3
    norm = np.sqrt(vx * vx + vy * vy + vz * vz)
    return float(np.max(norm) * (0.5 if config.spin == "half" else 1.0))


def scan_grid(spec):
    """Swept values in package units (xi, radians, rad/s), built as the CLI builds them."""
    lo, hi = spec["start"], spec["stop"]
    if spec["sweep"] == "phi":
        lo, hi = math.radians(lo), math.radians(hi)
    elif spec["sweep"] == "omega0x":
        lo, hi = lo * KHZ, hi * KHZ
    step = (hi - lo) / (spec["points"] - 1)
    return [lo + i * step for i in range(spec["points"])]


def config_at(config, sweep, value):
    if sweep == "xi":
        return replace(config, dressing=replace(config.dressing, omega_d=value * config.dressing.omega))
    if sweep == "phi":
        return replace(config, tuning=(replace(config.tuning[0], phase=value),))
    return replace(config, static=replace(config.static, omega0x=value))


def _check_field(config, h_khz, problems, where):
    ref = [v / KHZ for v in h_reference(config)]
    atol = H_RTOL * field_scale(config) / KHZ
    for label, got, want in zip(("hx", "hy", "hz", "omega_L"), h_khz, ref):
        if got is not None and not close(got, want, atol):
            problems.append(f"{where}: {label} {got!r} vs parity rule {want!r}")


def _check_p1(config, got, problems, where):
    want = p1_reference(config)
    if not close(got, want, P1_RTOL * abs(want)):
        problems.append(f"{where}: p1_norm_max {got!r} vs reference {want!r}")


def check_effective_field(op, config):
    header, rows = read_csv(op.out)
    if len(rows) != 1:
        return [f"{op.out}: {len(rows)} rows, expected 1"]
    problems = []
    row = dict(zip(header, (float(c) for c in rows[0])))
    _check_field(config, [row["hx_kHz"], row["hy_kHz"], row["hz_kHz"], row["omega_L_kHz"]], problems, op.out)
    _check_p1(config, row["p1_norm_max"], problems, op.out)
    return problems


def check_scan(op, config):
    spec = op.spec
    header, rows = read_csv(op.out)
    if len(rows) != spec["points"]:
        return [f"{op.out}: {len(rows)} rows, expected {spec['points']}"]
    problems = []
    col = {name: i for i, name in enumerate(header)}
    for value, row in zip(scan_grid(spec), rows):
        where = f"{op.out} at {header[0]}={row[0]}"
        if row[col["error"]]:
            problems.append(f"{where}: error token {row[col['error']]}")
            continue
        at = config_at(config, spec["sweep"], value)
        cell = {m: row[col[f"omega_L_{m}_kHz"]] for m in spec["methods"]}
        pert, mono, ts = (cell.get(m, "") for m in ("perturbative", "monodromy", "timeseries"))
        _check_field(at, [None, None, None, float(pert) if pert else None], problems, where)
        _check_p1(at, float(row[col["p1_norm_max"]]), problems, where)
        if mono and ts:
            mono, ts = float(mono), float(ts)
            sized = bool(pert) and abs(mono / float(pert) - 1.0) <= 0.1
            rtol = XCHECK_RTOL if sized else XCHECK_MISSIZED_RTOL
            if abs(mono - ts) > rtol * abs(mono):
                problems.append(f"{where}: monodromy {mono!r} vs timeseries {ts!r} kHz")
    return problems


def check_simulate(op):
    spec = op.spec
    header, rows = read_csv(op.out)
    if len(rows) != spec["samples"]:
        return [f"{op.out}: {len(rows)} rows, expected {spec['samples']}"]
    data = np.array(rows, dtype=float)
    problems = []
    if not close(data[-1, 0], spec["t_end"], 0.0):
        problems.append(f"{op.out}: last time {data[-1, 0]!r} is not t_end {spec['t_end']!r}")
    for tag in ("an", "num"):
        if f"sx_{tag}" not in header:
            continue
        i = header.index(f"sx_{tag}")
        norm2 = (data[:, i : i + 3] ** 2).sum(axis=1)
        bad = np.flatnonzero(np.abs(norm2 - 1.0) > NORM_TOL)
        if bad.size:
            problems.append(f"{op.out}: {bad.size} {tag} rows with |s|^2 off 1 by more than {NORM_TOL:g}")
    return problems


def calibration_sigmas(stdout, truth):
    """Largest |estimate - truth| / sigma over the parameters printed by calibrate."""
    worst = 0.0
    seen = set()
    for line in stdout.splitlines():
        name, _, rest = line.partition(":")
        name = name.strip()
        if name not in truth:
            continue
        value, _, err = rest.partition("+-")
        value, err = float(value), float(err)
        if not (math.isfinite(value) and err > 0.0):
            return math.inf
        worst = max(worst, abs(value - truth[name]) / err)
        seen.add(name)
    return worst if seen == set(truth) else math.inf


def check_calibrations(results):
    """Per-op problem lists for the calibrate calls of one pass.

    results: list of (op, stdout) pairs.
    """
    sig = [calibration_sigmas(out, op.spec["truth"]) for op, out in results]
    misses = sum(s > CAL_SIGMAS for s in sig)
    out = []
    for (op, _), s in zip(results, sig):
        if s > CAL_GROSS_SIGMAS or (s > CAL_SIGMAS and misses > CAL_MISSES_ALLOWED):
            out.append([f"calibrate --seed {op.spec['seed']}: {s:.2f} sigmas off the synthetic truth "
                        f"({misses} of {len(results)} fits beyond {CAL_SIGMAS:g})"])
        else:
            out.append([])
    return out
