"""Command-line interface.

Four subcommands: effective-field, simulate, scan, calibrate.  Frequencies
are reported the way lab notebooks record them, as ordinary frequencies in
kHz (value = omega/2pi); configuration files use the same unit.  CSV output
is deterministic: identical invocations produce byte-identical files.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure,
4 fit failure.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call; parsing leaves no state in it.  Run as
``dressedspin ...`` once installed, or ``python -m dressedspin ...``.
"""

import argparse
import functools
import math
import sys

import numpy as np

from .analysis import (
    ScanSpec,
    calibrate,
    run_scan,
    synthetic_calibration_data,
)
from .config import validate
from .configfile import _KHZ, apply_overrides, load_config
from .effective import floquet_first_order, rectified_field
from .errors import (
    ConfigFileError,
    ConfigurationError,
    DegenerateData,
    DressedSpinError,
    FitDiverged,
)
from .propagate import analytic_coherences, propagate_spin_half, propagate_bloch_spin1

CSV_SCHEMA = "dressedspin-csv v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_FIT = 4

# `calibrate --synthetic`: the truth (dressing parameter, field scale, tilt
# fraction into z) and the multiplicative 1-sigma noise on each frequency.
_SYNTHETIC_TRUTH = {"xi": 1.833, "scale": 1.0, "tilt": 0.03, "noise": 0.002}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path, comment_lines, header, rows):
    """rows: a list of rows of mixed cells, or a 2-D float array written in one
    %-format (the same text as _fmt gives each float)."""
    lines = [f"# {CSV_SCHEMA}"]
    lines += [f"# {c}" for c in comment_lines]
    lines.append(",".join(header))
    text = "\n".join(lines) + "\n"
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
        text += (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    else:
        text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _bundle_comments(config):
    b_xi = config.xi()
    c = [
        f"spin = {config.spin}",
        f"xi = {_fmt(b_xi)}",
        f"omega/2pi_kHz = {_fmt(config.dressing.omega / _KHZ)}",
        f"omega0/omega = ({_fmt(config.static.omega0x / config.dressing.omega)},"
        f"{_fmt(config.static.omega0y / config.dressing.omega)},"
        f"{_fmt(config.static.omega0z / config.dressing.omega)})",
    ]
    for i, t in enumerate(config.tuning):
        c.append(
            f"tuning.{i}: axis={t.axis} amplitude/omega={_fmt(t.amplitude / config.dressing.omega)} "
            f"harmonic={t.harmonic} phase_rad={_fmt(t.phase)}"
        )
    return c


def _load(args):
    config = load_config(args.config)
    if args.set:
        config = apply_overrides(config, args.set)
    return validate(config)


def cmd_effective_field(args) -> int:
    config = _load(args)
    field = rectified_field(config)
    flo = floquet_first_order(config)
    print(f"xi                : {_fmt(config.xi())}")
    print(f"h_x/2pi (kHz)     : {_fmt(field.hx / _KHZ)}")
    print(f"h_y/2pi (kHz)     : {_fmt(field.hy / _KHZ)}")
    print(f"h_z/2pi (kHz)     : {_fmt(field.hz / _KHZ)}")
    print(f"Omega_L/2pi (kHz) : {_fmt(field.omega_L / _KHZ)}")
    print(f"eta               : {_fmt(field.eta)}")
    print(f"p1_norm_max       : {_fmt(flo.p1_norm_max)}")
    if field.eta > 0.3:
        print("warning: eta > 0.3, first-order results are not trustworthy here", file=sys.stderr)
    if args.csv is not None:
        _write_csv(
            args.csv,
            _bundle_comments(config),
            ["hx_kHz", "hy_kHz", "hz_kHz", "omega_L_kHz", "xi", "eta", "p1_norm_max"],
            [[field.hx / _KHZ, field.hy / _KHZ, field.hz / _KHZ, field.omega_L / _KHZ,
              config.xi(), field.eta, flo.p1_norm_max]],
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load(args)
    if args.samples < 2:
        raise ConfigFileError("--samples must be >= 2", source="<args>", key="samples")
    if not 0.0 < args.t_end < math.inf:
        raise ConfigFileError("--t-end must be finite and > 0", source="<args>", key="t-end")
    series = {}
    if args.method in ("analytic", "both"):
        series["an"] = analytic_coherences(config, args.t_end, args.samples)
    if args.method in ("numeric", "both"):
        if config.spin == "one":
            series["num"] = propagate_bloch_spin1(config, args.t_end, args.samples)
        else:
            series["num"] = propagate_spin_half(config, args.t_end, args.samples)
    header = ["t_s"]
    columns = [next(iter(series.values())).times]
    for tag, s in series.items():
        header += [f"sx_{tag}", f"sy_{tag}", f"sz_{tag}"]
        columns += [s.sx, s.sy, s.sz]
    comments = _bundle_comments(config)
    for tag, s in series.items():
        if s.degenerate_field:
            comments.append(f"{tag}: degenerate field (Omega_L = 0), coherences frozen")
    _write_csv(args.out, comments, header, np.column_stack(columns))
    return EXIT_OK


# Per sweep: CSV column of the swept value, command-line value -> package
# value, and package value -> CSV value.
_SWEEP_UNITS = {
    "xi": ("xi", lambda v: v, lambda v: v),
    "phi": ("phi_deg", math.radians, math.degrees),
    "omega0x": ("omega0x_kHz", lambda v: v * _KHZ, lambda v: v / _KHZ),
}


def cmd_scan(args) -> int:
    config = _load(args)
    if args.points < 2:
        raise ConfigFileError("--points must be >= 2", source="<args>", key="points")
    if args.jobs < 1:
        raise ConfigFileError("--jobs must be >= 1", source="<args>", key="jobs")
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    value_col, from_cli, value_of = _SWEEP_UNITS[args.sweep]
    lo, hi = from_cli(args.start), from_cli(args.stop)
    step = (hi - lo) / (args.points - 1)
    grid = [lo + i * step for i in range(args.points)]
    try:
        spec = ScanSpec(swept=args.sweep, grid=grid, base=config, methods=methods)
    except ValueError as exc:  # equal --from/--to, unknown method, phi sweep without one tuning term
        raise ConfigFileError(str(exc), source="<args>") from None
    result = run_scan(spec, jobs=args.jobs)

    header = [value_col]
    for m in methods:
        header.append(f"omega_L_{m}_kHz")
    header += ["eta", "alias", "p1_norm_max", "error"]
    rows = []
    failed = 0
    for row in result.rows:
        out = [value_of(row.value)]
        for m in methods:
            val = getattr(row, m)
            out.append(val / _KHZ if val is not None else None)
        out += [row.eta, row.alias_ambiguous, row.p1_norm_max, ";".join(row.errors)]
        rows.append(out)
        if row.errors and all(getattr(row, m) is None for m in methods):
            failed += 1
    _write_csv(args.out, _bundle_comments(config) + [f"sweep = {args.sweep}"], header, rows)
    if failed == len(result.rows):
        print("error: every scan point failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _read_ratio_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                tag = line[1:].strip()
                if tag.startswith("dressedspin-csv") and tag != CSV_SCHEMA:
                    raise ConfigFileError(
                        f"unknown CSV schema {tag!r} (expected {CSV_SCHEMA!r})",
                        source=str(path),
                        line=lineno,
                    )
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = [c.lower() for c in cells]
                if "omega0x_khz" not in header or "ratio" not in header:
                    raise ConfigFileError(
                        "data CSV needs columns omega0x_kHz, ratio", source=str(path), line=lineno
                    )
                iw, ir = header.index("omega0x_khz"), header.index("ratio")
                continue
            try:
                rows.append((float(cells[iw]) * _KHZ, float(cells[ir])))
            except (ValueError, IndexError):
                raise ConfigFileError("bad data row", source=str(path), line=lineno) from None
    if header is None:
        raise ConfigFileError("empty data file", source=str(path))
    return rows


def cmd_calibrate(args) -> int:
    if args.omega is not None and not 0.0 < args.omega < math.inf:
        raise ConfigFileError("--omega must be finite and > 0", source="<args>", key="omega")
    omega0z = args.omega0z * _KHZ
    if args.synthetic:
        grid_khz = [1.5 * i for i in range(11)]  # 0..15 kHz nominal transverse field
        data = synthetic_calibration_data(
            [w * _KHZ for w in grid_khz], omega0z=omega0z, seed=args.seed, **_SYNTHETIC_TRUTH
        )
    else:
        if args.data is None:
            raise ConfigFileError("either a data CSV or --synthetic is required", source="<args>", key="data")
        data = _read_ratio_csv(args.data)
        if not data:
            raise ConfigFileError("data file has no rows", source=str(args.data))
    fit = calibrate(data, omega0z=omega0z)
    print(f"scale         : {_fmt(fit.scale)} +- {_fmt(fit.scale_err)}")
    print(f"tilt          : {_fmt(fit.tilt)} +- {_fmt(fit.tilt_err)}")
    print(f"xi            : {_fmt(fit.xi)} +- {_fmt(fit.xi_err)}")
    print(f"residual_norm : {_fmt(fit.residual_norm)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dressedspin",
        description="Dressed-spin dynamics with harmonic tuning fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("config", help="configuration file (see README for the schema)")
        p.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                       help="override a configuration value, e.g. static.x=3.5 or tuning.0.phase=45deg")

    p = sub.add_parser("effective-field", help="rectified field, Larmor frequency and diagnostics")
    add_config_args(p)
    p.add_argument("--csv", default=None, help="also write a one-row CSV ('-' for stdout)")
    p.set_defaults(func=cmd_effective_field)

    p = sub.add_parser("simulate", help="coherence time series (analytic and/or numeric)")
    add_config_args(p)
    p.add_argument("--t-end", type=float, required=True, dest="t_end", help="duration in seconds")
    p.add_argument("--samples", type=int, required=True, help="number of samples (>= 2)")
    p.add_argument("--method", choices=("analytic", "numeric", "both"), default="both")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="sweep xi, the tuning phase, or the transverse field")
    add_config_args(p)
    p.add_argument("--sweep", choices=tuple(_SWEEP_UNITS), required=True)
    p.add_argument("--from", type=float, required=True, dest="start",
                   help="start value (xi: dimensionless, phi: degrees, omega0x: kHz)")
    p.add_argument("--to", type=float, required=True, dest="stop", help="end value")
    p.add_argument("--points", type=int, required=True, help="number of grid points (>= 2)")
    p.add_argument("--methods", default="perturbative",
                   help="comma list from perturbative,monodromy,timeseries")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across grid points")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("calibrate", help="fit dressed/undressed ratio data for scale, tilt and xi")
    p.add_argument("data", nargs="?", default=None, help="CSV with columns omega0x_kHz, ratio")
    p.add_argument("--omega0z", type=float, required=True, help="fixed omega0z/2pi in kHz")
    p.add_argument("--omega", type=float, default=None, help="drive frequency in kHz (checked, not used by the fit)")
    p.add_argument("--synthetic", action="store_true", help="generate seeded synthetic data instead")
    p.add_argument("--seed", type=int, default=0, help="seed for the synthetic noise generator")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ConfigFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitDiverged, DegenerateData) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT
    except DressedSpinError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
