"""Benchmark workloads: the CLI calls of one pass, generated from a seed.

Every workload runs the README commands over their README ranges; the seed
and the pass index only move each scan grid by a fraction of its step and
pick the calibration noise seeds.  The ``simulate`` calls use the README
``--samples``; their ``--t-end`` values are spread over +-3 % of the README's
5 ms, the same in every pass and for every seed.  The step-halving of the
numeric series needs 2 to 6 integrations at t_end values 0.2 % apart, so a
seeded t_end would make the work of a run depend on its seed.
Besides its main commands, each workload makes a few small calls ("probes")
so that every end-to-end metric is defined on every workload.  A probe never
touches the layer the workload is meant to leave alone: no probe on
``closed-form-scans`` propagates, and the probes on ``coherence-series``
evaluate the P1 diagnostic only at xi <= 0.2, where its series stop after a
few terms.
"""

from dataclasses import dataclass, field
import random

CONFIGS = ("collapse", "even-harmonic", "anisotropy", "odd-harmonic")

# Synthetic calibration truth: the CLI defaults of `calibrate --synthetic`.
CALIBRATION_TRUTH = {"scale": 1.0, "tilt": 0.03, "xi": 1.833}
CALIBRATIONS_PER_PASS = 30
SMALL_REPEATS = 3
XI_PROBE_REPEATS = 8
T_END = 0.005  # s, as in the README
SAMPLES = 2048
GOLDEN = (5**0.5 - 1) / 2

WORKLOADS = ("closed-form-scans", "coherence-series", "xi-crosscheck")


@dataclass(frozen=True)
class Op:
    """One CLI call and what the correctness gate needs to check its output.

    kind: the subcommand; argv: the full argument list for cli.main; spec:
    the parameters the gate recomputes the output from (config path and
    overrides, grid, samples, seed, ...); out: the CSV the call writes.
    """

    kind: str
    argv: tuple
    spec: dict = field(default_factory=dict)
    out: str = None


def _config_path(root, name):
    return str(root / "configs" / f"{name}.cfg")


def effective_field(root, outdir, name, overrides=()):
    out = str(outdir / f"effective-{name}.csv")
    sets = [a for o in overrides for a in ("--set", o)]
    argv = ("effective-field", _config_path(root, name), "--csv", out, *sets)
    return Op("effective-field", argv, {"config": _config_path(root, name), "overrides": tuple(overrides)}, out)


def simulate(root, outdir, name, t_end, samples, method, overrides=()):
    tag = "-".join([name, method] + [o.replace("=", "_") for o in overrides])
    out = str(outdir / f"simulate-{tag}.csv")
    sets = [a for o in overrides for a in ("--set", o)]
    argv = ("simulate", _config_path(root, name), "--t-end", repr(t_end), "--samples", str(samples),
            "--method", method, "--out", out, *sets)
    spec = {"config": _config_path(root, name), "overrides": tuple(overrides),
            "t_end": t_end, "samples": samples, "method": method}
    return Op("simulate", argv, spec, out)


def scan(root, outdir, name, sweep, start, stop, points, methods, overrides=()):
    out = str(outdir / f"scan-{name}-{sweep}.csv")
    sets = [a for o in overrides for a in ("--set", o)]
    argv = ("scan", _config_path(root, name), "--sweep", sweep, "--from", repr(start), "--to", repr(stop),
            "--points", str(points), "--methods", ",".join(methods), "--jobs", "1", "--out", out, *sets)
    spec = {"config": _config_path(root, name), "overrides": tuple(overrides), "sweep": sweep,
            "start": start, "stop": stop, "points": points, "methods": tuple(methods)}
    return Op("scan", argv, spec, out)


def calibrations(rng):
    ops = []
    for _ in range(CALIBRATIONS_PER_PASS):
        seed = rng.randrange(2**32)
        argv = ("calibrate", "--omega0z", "5.979", "--omega", "30", "--synthetic", "--seed", str(seed))
        ops.append(Op("calibrate", argv, {"seed": seed, "truth": CALIBRATION_TRUTH}))
    return ops


def interleave(big, small):
    """Spread the small calls evenly between the big ones.

    The host's speed drifts by tens of percent over seconds, so the small
    calls sample the whole pass rather than one stretch of it.
    """
    slots = [[] for _ in range(len(big) + 1)]
    for i, op in enumerate(small):
        slots[i % len(slots)].append(op)
    ops = slots[0]
    for b, slot in zip(big, slots[1:]):
        ops += [b] + slot
    return ops


def build(workload, seed, root, outdir, pass_index=0):
    """The ops of pass ``pass_index`` of ``workload``; equal arguments give equal ops.

    Grid shifts are stratified: each is u + k/n (mod 1) for the n scans that
    draw it, with u drawn from the seed and advanced by the golden ratio each
    pass.
    """
    seed_rng = random.Random(f"{workload}:{seed}")
    rng = random.Random(f"{workload}:{seed}:{pass_index}")  # calibration noise seeds

    def spread(n):
        u = seed_rng.random() + pass_index * GOLDEN
        return [(u + k / n) % 1.0 for k in range(n)]

    def t_ends(n):
        return [T_END * (1.0 + 0.03 * (2.0 * (k + 0.5) / n - 1.0)) for k in range(n)]

    def analytic():
        return [simulate(root, outdir, c, t, SAMPLES, "analytic") for c, t in zip(CONFIGS, t_ends(len(CONFIGS)))]

    if workload == "closed-form-scans":
        # README ranges on coarser grids (15 deg, 0.75 kHz, 0.4) than the README's,
        # so that one run holds several passes.
        d_phi, d_w0x, d_xi = (0.5 * step * x for step, x in zip((15.0, 0.75, 0.4), spread(3)))
        big = [
            scan(root, outdir, "even-harmonic", "phi", 0.0 + d_phi, 360.0 + d_phi, 25, ("perturbative",)),
            scan(root, outdir, "anisotropy", "omega0x", 0.0 + d_w0x, 15.0 + d_w0x, 21, ("perturbative",)),
            # crosses the first J0 zero (xi = 2.405), where the static response collapses
            scan(root, outdir, "collapse", "xi", 0.6 + d_xi, 5.0 + d_xi, 12, ("perturbative",)),
        ]
        small = [effective_field(root, outdir, c) for c in CONFIGS] + analytic() + calibrations(rng)
        return interleave(big, small * SMALL_REPEATS)

    if workload == "coherence-series":
        runs = [(c, spin) for c in CONFIGS for spin in ((), ("spin=one",))]
        big = [simulate(root, outdir, c, t, SAMPLES, "both", spin) for (c, spin), t in zip(runs, t_ends(len(runs)))]
        small_xi = ("dressing.amplitude=0.9",)  # xi = 0.1 on the 9 kHz collapse drive
        d_xi = 0.05 * spread(1)[0]
        small = [
            effective_field(root, outdir, "collapse", small_xi),
            scan(root, outdir, "collapse", "xi", 0.1 + d_xi, 0.2 + d_xi, 2, ("perturbative",)),
        ]
        return interleave(big, (small + calibrations(rng)) * SMALL_REPEATS)

    if workload == "xi-crosscheck":
        # The time-series fit needs three periods of the numeric Omega_L in a
        # window sized from the closed form; it fails for xi in about
        # [3.381, 3.42] and [3.45, 3.50], either side of the numeric zero at
        # 3.414.  The 20-point grid puts a point at 3.3789 (Omega_L = 0.08 kHz,
        # the slowest point); shifting it down by at most 0.04 keeps that
        # point between 3.339 and 3.379.
        d_xi = 0.04 * spread(1)[0]
        big = [scan(root, outdir, "odd-harmonic", "xi", 0.6 - d_xi, 5.0 - d_xi, 20,
                    ("perturbative", "monodromy", "timeseries"))]
        # One scan per pass leaves two places for the small calls, so each
        # probe runs more often here.
        probes = [effective_field(root, outdir, "odd-harmonic")] + analytic()
        return interleave(big, probes * XI_PROBE_REPEATS + calibrations(rng) * SMALL_REPEATS)

    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
