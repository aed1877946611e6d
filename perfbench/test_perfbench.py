"""Tests of the benchmark itself: span self times, the tracer's rebinding,
and the correctness gate's failure accounting."""

from pathlib import Path
import random
import sys

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_hand_built_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [3, 6] (overlapping) and 4 [9, 12]
    # (sticking out); 1 has child 3 [2, 3]; 5 [20, 21] is a second root.
    parent = [-1, 0, 0, 1, 0, -1]
    start = [0.0, 1.0, 3.0, 2.0, 9.0, 20.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    own = spans.self_times(parent, start, end)
    # 0: 10 - |[1,6] u [9,10]| = 10 - 6; 1: 3 - 1; 2, 3, 4, 5: no children
    np.testing.assert_allclose(own, [4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_self_times_sum_to_root_duration_for_nested_spans():
    parent = [-1, 0, 1, 1, 0]
    start = [0.0, 0.5, 0.6, 0.8, 2.0]
    end = [3.0, 1.5, 0.7, 1.2, 2.5]
    own = spans.self_times(parent, start, end)
    assert own.sum() == pytest.approx(3.0)


def test_tracer_records_and_restores_every_binding():
    import dressedspin
    from dressedspin import analysis, cli, effective, special  # noqa: F401 (cli: imported before the snapshot)

    before = {
        (m.__name__, k): v
        for m in spans.Tracer("t")._modules()
        for k, v in vars(m).items()
        if callable(v)
    }
    original = special.bessel_j
    with spans.Tracer("t") as tracer:
        for mod in (special, effective, analysis, dressedspin):
            assert mod.bessel_j is not original
            assert mod.bessel_j.__wrapped__ is original
        cfg = workloads.effective_field(HERE.parent, HERE, "collapse").spec["config"]
        from dressedspin.configfile import load_config

        effective.floquet_first_order(load_config(cfg), tau_grid=[0.0, 1.0])
    after = {
        (m.__name__, k): v
        for m in spans.Tracer("t")._modules()
        for k, v in vars(m).items()
        if callable(v)
    }
    assert after == before
    summary = tracer.summary()
    assert summary["configfile.load_config"][0] == 1
    assert summary["effective.floquet_first_order"][0] == 1
    assert summary["special.f_aux"][0] == 8  # f1 and f2 twice per tau point
    assert summary["special.bessel_j"][0] > 8
    names, parent, start, end = tracer.arrays()
    # every bessel_j span sits inside an f_aux or rectified_field span
    by_name = {n: i for i, n in enumerate(tracer.names)}
    bessel = names == by_name["special.bessel_j"]
    assert set(names[parent[bessel]]) <= {by_name["special.f_aux"], by_name["effective.rectified_field"]}
    assert np.all(end >= start)


def _gated(tmp_path, ops):
    from dressedspin import cli
    from dressedspin.configfile import apply_overrides, load_config

    outcomes = [run.run_op(cli, op) for op in ops]
    return outcomes, lambda: run.gate_pass(
        gate, lambda spec: apply_overrides(load_config(spec["config"]), list(spec["overrides"])), outcomes
    )


def test_perturbed_output_counts_as_failure(tmp_path):
    root = HERE.parent
    small = ("dressing.amplitude=0.9",)
    ops = [
        workloads.effective_field(root, tmp_path, "collapse", small),
        workloads.scan(root, tmp_path, "collapse", "xi", 0.1, 0.2, 2, ("perturbative",)),
        workloads.simulate(root, tmp_path, "collapse", 1e-4, 16, "analytic", small),
    ]
    outcomes, gate_now = _gated(tmp_path, ops)
    gate_now()
    assert [o.problems for o in outcomes] == [[], [], []]

    for o in outcomes:
        o.problems = []
    eff = Path(ops[0].out)
    lines = eff.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-9))  # omega_L_kHz
    lines[-1] = ",".join(cells)
    eff.write_text("\n".join(lines) + "\n")
    sim = Path(ops[2].out)
    sim.write_text("\n".join(sim.read_text().splitlines()[:-1]) + "\n")  # one row short
    gate_now()
    failed = [bool(o.problems) for o in outcomes]
    assert failed == [True, False, True]
    assert "omega_L" in outcomes[0].problems[0]
    assert "rows" in outcomes[2].problems[0]


def test_end_to_end_takes_each_group_median_per_pass(tmp_path):
    root = HERE.parent
    cal = workloads.calibrations(random.Random(0))[:1]
    sims = [workloads.simulate(root, tmp_path, c, 0.005, 2048, "analytic") for c in ("collapse", "anisotropy")]
    scan = workloads.scan(root, tmp_path, "collapse", "xi", 0.6, 5.0, 12, ("perturbative",))
    eff = workloads.effective_field(root, tmp_path, "collapse")
    # two passes; one calibrate call and one collapse simulate are 100x slow
    times = [(cal[0], [0.004, 0.004, 0.4, 0.004]), (sims[0], [0.01, 1.0, 0.01, 0.01]),
             (sims[1], [0.03] * 4), (scan, [2.0, 4.0]), (eff, [0.05, 0.05])]
    outcomes = [run.Outcome(op, t, 0, "", []) for op, ts in times for t in ts]
    fig = run.end_to_end(outcomes, passes=2)
    assert fig["calibrate_s"] == pytest.approx(0.004)
    assert fig["samples_per_s"] == pytest.approx(4 * 2048 / (2 * 0.01 + 2 * 0.03))
    assert fig["scan_points_per_s"] == pytest.approx(12 / 3.0)
    assert fig["effective_field_s"] == pytest.approx(0.05)
    assert fig["wall_s"] == pytest.approx(2 * 0.004 + 2 * 0.01 + 2 * 0.03 + 3.0 + 0.05)


def test_scan_row_with_error_token_fails(tmp_path):
    op = workloads.scan(HERE.parent, tmp_path, "collapse", "xi", 0.1, 0.2, 2, ("perturbative",))
    outcomes, gate_now = _gated(tmp_path, [op])
    text = Path(op.out).read_text().rstrip("\n")
    Path(op.out).write_text(text + "perturbative:SeriesNotConverged\n")
    gate_now()
    assert "error token" in outcomes[0].problems[0]


def _calibration(seed, xi, xi_err):
    op = workloads.Op("calibrate", (), {"seed": seed, "truth": workloads.CALIBRATION_TRUTH})
    out = f"scale : 1.0 +- 0.01\ntilt : 0.03 +- 0.001\nxi : {xi} +- {xi_err}\nresidual_norm : 0.001\n"
    return op, out


def test_calibration_misses_fail_only_beyond_chance():
    n = workloads.CALIBRATIONS_PER_PASS
    few = [_calibration(i, 1.833 + (0.004 if i < gate.CAL_MISSES_ALLOWED else 0.0), 0.001) for i in range(n)]
    assert all(p == [] for p in gate.check_calibrations(few))
    many = [_calibration(i, 1.833 + (0.004 if i <= gate.CAL_MISSES_ALLOWED else 0.0), 0.001) for i in range(n)]
    verdicts = gate.check_calibrations(many)
    assert sum(bool(p) for p in verdicts) == gate.CAL_MISSES_ALLOWED + 1
    gross = [_calibration(0, 1.833 + 0.1, 0.001)] + [_calibration(i, 1.833, 0.001) for i in range(1, n)]
    assert [bool(p) for p in gate.check_calibrations(gross)] == [True] + [False] * (n - 1)
    assert gate.calibration_sigmas("scale : 1.0 +- 0.01\n", workloads.CALIBRATION_TRUTH) == float("inf")


def test_workload_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, HERE.parent, tmp_path)
        b = workloads.build(name, 7, HERE.parent, tmp_path)
        c = workloads.build(name, 8, HERE.parent, tmp_path)
        assert a == b
        assert a != c
    with pytest.raises(ValueError):
        workloads.build("no-such-workload", 1, HERE.parent, tmp_path)


def test_p1_reference_matches_package():
    from dressedspin.configfile import load_config
    from dressedspin.effective import floquet_first_order

    for name in workloads.CONFIGS:
        cfg = load_config(HERE.parent / "configs" / f"{name}.cfg")
        for spin in ("half", "one"):
            c = cfg.replace(spin=spin)
            assert gate.p1_reference(c) == pytest.approx(floquet_first_order(c).p1_norm_max, rel=gate.P1_RTOL)
