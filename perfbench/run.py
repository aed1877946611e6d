"""Benchmark of the dressedspin CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload closed-form-scans --seed 1 --seconds 20 --trace 0

Runs the CLI calls of one workload (see workloads.py) in-process through
``dressedspin.cli.main``, one pass after another, until the next pass would
end after ``--seconds``; every pass runs at least once.  Each pass's outputs
go through the correctness gate (gate.py).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds one traced pass and reports the
per-layer metrics from its spans (spans.py).  The last line of stdout is
the JSON result; the lines above it repeat the metrics for people.

The package is imported from ``src/`` next to this directory.  BLAS and
OpenMP are capped at one thread, here and in the set-up probes.
"""

import argparse
import contextlib
from dataclasses import dataclass
import gc
import io
import json
import os
from pathlib import Path
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# A fresh interpreter pays this before any CLI command can run.
SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import dressedspin.cli
from dressedspin.config import validate
from dressedspin.configfile import apply_overrides, load_config
for path, overrides in json.loads(sys.argv[2]):
    validate(apply_overrides(load_config(path), overrides))
"""


@dataclass
class Outcome:
    op: object
    seconds: float
    rc: int
    stdout: str
    problems: list


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # the garbage of earlier calls is not this call's cost
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:  # an op that crashes is counted as failed; the run goes on
        rc = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    problems = [] if rc == 0 else [f"{' '.join(op.argv[:2])}: exit code {rc}: {err.getvalue().strip()[-300:]}"]
    return Outcome(op, seconds, rc, out.getvalue(), problems)


def run_pass(cli, ops):
    return [run_op(cli, op) for op in ops]


def gate_pass(gate, load, outcomes):
    """Attach the gate's findings to each outcome of one pass."""
    calibrations = {}
    for o in outcomes:
        if o.rc != 0:
            continue
        try:
            if o.op.kind == "effective-field":
                o.problems += gate.check_effective_field(o.op, load(o.op.spec))
            elif o.op.kind == "scan":
                o.problems += gate.check_scan(o.op, load(o.op.spec))
            elif o.op.kind == "simulate":
                o.problems += gate.check_simulate(o.op)
            elif o.op.kind == "calibrate":
                calibrations.setdefault(o.op.argv, []).append(o)
        except (OSError, ValueError, KeyError) as exc:
            o.problems.append(f"{o.op.out}: unreadable output: {exc}")
    # the coverage statistics count each noise seed once, however often it ran
    repeats = list(calibrations.values())
    verdicts = gate.check_calibrations([(group[0].op, group[0].stdout) for group in repeats])
    for group, problems in zip(repeats, verdicts):
        for o in group:
            o.problems += problems


def group_key(op):
    """Calls with equal keys repeat the same work; only seeds and grid offsets differ."""
    s = op.spec
    return (op.kind, s.get("config"), s.get("overrides"), s.get("sweep"), s.get("method"))


def end_to_end(outcomes, passes):
    """Figures of one typical pass, from the median call of each group.

    The host's speed swings by up to 2x between calls and drifts over
    seconds; a median over every call of a group that repeats the same work
    is not moved by the slow stretches a mean picks up.
    """
    groups = {}
    for o in outcomes:
        groups.setdefault(group_key(o.op), []).append(o)

    def per_pass(kind=None):
        """(calls, work, seconds) of one typical pass over the groups of ``kind``."""
        calls = work = seconds = 0.0
        for key, group in groups.items():
            if kind in (None, key[0]):
                n = len(group) / passes
                op = group[0].op
                calls += n
                work += n * (op.spec.get("points") or op.spec.get("samples") or 1)
                seconds += n * statistics.median(o.seconds for o in group)
        return calls, work, seconds

    _, points, scan_s = per_pass("scan")
    _, samples, simulate_s = per_pass("simulate")
    n_eff, _, eff_s = per_pass("effective-field")
    n_cal, _, cal_s = per_pass("calibrate")
    return {
        "wall_s": per_pass()[2],
        "scan_points_per_s": points / scan_s,
        "samples_per_s": samples / simulate_s,
        "effective_field_s": eff_s / n_eff,
        "calibrate_s": cal_s / n_cal,
    }


def csv_bytes(ops):
    return sum(os.path.getsize(p) for p in {op.out for op in ops if op.out} if os.path.exists(p))


def measure_setup(ops):
    configs = sorted({(o.spec["config"], tuple(o.spec["overrides"])) for o in ops if "config" in o.spec})
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(configs)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def warm_up(cli, outdir):
    """Load lazily initialised library code (LAPACK, argparse, formatting) before timing."""
    cfg = str(ROOT / "configs" / "collapse.cfg")
    small = ["--set", "dressing.amplitude=0.9"]
    calls = (
        ["effective-field", cfg, "--csv", str(outdir / "warmup.csv"), *small],
        ["simulate", cfg, "--t-end", "1e-4", "--samples", "16", "--out", str(outdir / "warmup.csv"), *small],
        ["scan", cfg, "--sweep", "xi", "--from", "0.1", "--to", "0.2", "--points", "2",
         "--methods", "perturbative,monodromy", "--out", str(outdir / "warmup.csv")],
        ["calibrate", "--omega0z", "5.979", "--synthetic"],
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in calls:
            cli.main(argv)
    gc.collect()
    gc.freeze()  # long-lived library objects stay out of every later collection


def layer_metrics(summary, fit_iterations, csv_total, overhead):
    def calls(name):
        return summary.get(name, (0, 0.0))[0]

    def self_s(name):
        return summary.get(name, (0, 0.0))[1]

    m = {
        "special.bessel_j.calls": (calls("special.bessel_j"), "count"),
        "special.bessel_j.self_s": (self_s("special.bessel_j"), "s"),
        "special.series.calls": (calls("special.f_aux") + calls("special.g_func"), "count"),
        "special.series.self_s": (self_s("special.f_aux") + self_s("special.g_func"), "s"),
    }
    for name in ("effective.floquet_first_order", "effective.rectified_field",
                 "propagate.monodromy_quasienergy", "propagate.propagate_spin_half",
                 "propagate.propagate_bloch_spin1", "analysis.extract_frequency",
                 "fitting.least_squares"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["fitting.least_squares.iterations"] = (fit_iterations, "count")
    for name in ("propagate.analytic_coherences", "analysis.run_scan", "analysis.calibrate",
                 "config.validate", "configfile.load_config", "cli.main"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["config.validate.calls"] = (calls("config.validate"), "count")
    m["config.dimensionless.calls"] = (calls("config.dimensionless"), "count")
    m["cli.csv_bytes"] = (csv_total, "bytes")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dressedspin" / "cli.py").is_file():
        print(f"error: no dressedspin package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads; inherited by the probes
    sys.path.insert(0, str(SRC))
    import gate
    import spans
    import workloads
    from dressedspin import cli
    from dressedspin.configfile import apply_overrides, load_config

    outdir = HERE / "out" / f"{args.workload}-{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, ROOT, outdir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    configs = {}

    def load(spec):
        key = (spec["config"], tuple(spec["overrides"]))
        if key not in configs:
            configs[key] = apply_overrides(load_config(key[0]), list(key[1]))
        return configs[key]

    setup_s = measure_setup(ops) if args.trace == 0 else None
    warm_up(cli, outdir)

    all_outcomes, passes = [], 0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        outcomes = run_pass(cli, workloads.build(args.workload, args.seed, ROOT, outdir, passes))
        gate_pass(gate, load, outcomes)
        all_outcomes += outcomes
        passes += 1
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > args.seconds:
            break
    figures = end_to_end(all_outcomes, passes)

    metrics = {}
    if args.trace == 1:
        tracer = spans.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
        with tracer:
            outcomes = run_pass(cli, ops)
        gate_pass(gate, load, outcomes)
        all_outcomes += outcomes
        tracer.save(outdir / "spans.npz")
        first_pass = sum(o.seconds for o in all_outcomes[: len(ops)])  # same ops as the traced pass
        overhead = sum(o.seconds for o in outcomes) / first_pass - 1.0
        for name, (value, unit) in layer_metrics(
            tracer.summary(), tracer.fit_iterations, csv_bytes(ops), overhead
        ).items():
            metrics[name] = {"value": value, "unit": unit}

    attempted = len(all_outcomes)
    failed = sum(1 for o in all_outcomes if o.problems)
    if args.trace == 0:
        for name, value, unit in (
            ("setup_s", setup_s, "s"),
            ("wall_s", figures["wall_s"], "s"),
            ("scan_points_per_s", figures["scan_points_per_s"], "1/s"),
            ("samples_per_s", figures["samples_per_s"], "1/s"),
            ("effective_field_s", figures["effective_field_s"], "s"),
            ("calibrate_s", figures["calibrate_s"], "s"),
            ("ok_frac", 1.0 - failed / attempted, "frac"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        ):
            metrics[name] = {"value": value, "unit": unit}

    problems = [p for o in all_outcomes for p in o.problems]
    for p in problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of {len(ops)} CLI calls, "
          f"{failed} of {attempted} calls failed (failed_frac {failed / attempted:.4g})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
