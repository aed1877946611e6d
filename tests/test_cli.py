import argparse
import math
import os
from pathlib import Path
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import dressedspin
from dressedspin import cli, effective
from dressedspin.cli import main
from dressedspin.analysis import J0_FIRST_ROOT
from dressedspin.errors import NoConvergence
from dressedspin.special import bessel_j

from conftest import KHZ

EVEN_HARMONIC_CFG = """
[static]
z = 2.040

[dressing]
frequency = 10.0
amplitude = 38.3

[[tuning]]
axis = y
amplitude = 2.23
harmonic = 2
phase = 0deg
"""

SMALL_ETA_CFG = """
[static]
z = 0.1

[dressing]
frequency = 10.0
amplitude = 18.0

[[tuning]]
axis = y
amplitude = 0.1
harmonic = 1
phase = 90deg
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def test_effective_field_report(tmp_path, capsys):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    assert main(["effective-field", cfg]) == 0
    out = capsys.readouterr().out
    values = {line.split(":")[0].strip(): float(line.split(":")[1]) for line in out.strip().splitlines()}
    assert values["xi"] == pytest.approx(3.83)
    assert values["h_y/2pi (kHz)"] == pytest.approx(2.23 * bessel_j(2, 3.83), rel=1e-10)
    assert values["h_z/2pi (kHz)"] == pytest.approx(2.040 * bessel_j(0, 3.83), rel=1e-10)
    expected = math.hypot(2.23 * bessel_j(2, 3.83), 2.040 * bessel_j(0, 3.83))
    assert values["Omega_L/2pi (kHz)"] == pytest.approx(expected, rel=1e-10)


def test_effective_field_at_harmonic_65_exits_0(capsys):
    # g's series must pass level p - 1, beyond the default cap of 64 levels
    cfg = str(Path(__file__).parent.parent / "configs" / "odd-harmonic.cfg")
    assert main(["effective-field", cfg, "--set", "tuning.0.harmonic=65"]) == 0
    assert "p1_norm_max" in capsys.readouterr().out


def test_effective_field_at_xi_37_8_exits_0(capsys):
    # g's series must pass level |xi|; a cap of 64 levels raised
    # SeriesNotConverged from xi = 37.5 on every tuned config, and this exited 3
    cfg = str(Path(__file__).parent.parent / "configs" / "odd-harmonic.cfg")
    assert main(["effective-field", cfg, "--set", "dressing.amplitude=340"]) == 0
    assert "p1_norm_max" in capsys.readouterr().out


def test_large_xi_scan_rows_carry_no_error_token(tmp_path):
    # xi 36 -> 40: three of these rows were perturbative:SeriesNotConverged
    cfg = str(Path(__file__).parent.parent / "configs" / "odd-harmonic.cfg")
    out = tmp_path / "scan.csv"
    assert main(["scan", cfg, "--sweep", "xi", "--from", "36", "--to", "40", "--points", "5",
                 "--methods", "perturbative,monodromy", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert len(rows) == 5
    assert all(row[header.index("error")] == "" for row in rows)
    assert all(row[header.index("p1_norm_max")] != "" for row in rows)


@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("name", ["anisotropy", "collapse", "even-harmonic", "odd-harmonic"])
def test_effective_field_p1_cell_is_the_one_point_scan_cell(tmp_path, monkeypatch, name, spin):
    # both commands read the batched P1 table; the series route of
    # floquet_first_order is not called
    def series(*args):
        raise AssertionError("P1 series called")

    monkeypatch.setattr(effective, "_p1_vector", series)
    cfg = str(Path(__file__).parent.parent / "configs" / f"{name}.cfg")
    eff, scan = tmp_path / "eff.csv", tmp_path / "scan.csv"
    assert main(["effective-field", cfg, "--set", f"spin={spin}", "--csv", str(eff)]) == 0
    _, header, (row,) = _read_csv(eff)
    xi = float(row[header.index("xi")])
    # a two-point scan whose first point is the config's xi
    assert main(["scan", cfg, "--set", f"spin={spin}", "--sweep", "xi", "--from", repr(xi), "--to", repr(xi + 1.0),
                 "--points", "2", "--out", str(scan)]) == 0
    _, scan_header, scan_rows = _read_csv(scan)
    assert float(scan_rows[0][0]) == xi
    assert scan_rows[0][scan_header.index("p1_norm_max")] == row[header.index("p1_norm_max")]


def test_effective_field_harmonic_bound(capsys):
    # p = 199 is the largest harmonic whose J_n orders all lie below bessel_j's
    # accurate range n < 200; a larger one exits 2 before any series work
    cfg = str(Path(__file__).parent.parent / "configs" / "odd-harmonic.cfg")
    assert main(["effective-field", cfg, "--set", "tuning.0.harmonic=199"]) == 0
    assert "p1_norm_max" in capsys.readouterr().out
    assert main(["effective-field", cfg, "--set", "tuning.0.harmonic=100000"]) == 2
    assert "HarmonicTooLarge" in capsys.readouterr().err


def test_effective_field_zero_config(tmp_path, capsys):
    cfg = _write(tmp_path, "zero.cfg", "[dressing]\nfrequency = 10\n")
    assert main(["effective-field", cfg]) == 0
    out = capsys.readouterr().out
    assert "Omega_L/2pi (kHz) : 0" in out


def test_effective_field_bad_frequency_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "[dressing]\nfrequency = 0\n")
    assert main(["effective-field", cfg]) == 2
    err = capsys.readouterr().err
    assert "dressing.frequency" in err


def test_effective_field_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    out_csv = tmp_path / "field.csv"
    assert main(["effective-field", cfg, "--csv", str(out_csv)]) == 0
    comments, header, rows = _read_csv(out_csv)
    assert comments[0] == "# dressedspin-csv v1"
    assert header[0] == "hx_kHz"
    assert len(rows) == 1


def test_simulate_both_methods_agree(tmp_path):
    cfg = _write(tmp_path, "small.cfg", SMALL_ETA_CFG)
    out_csv = tmp_path / "sim.csv"
    assert main([
        "simulate", cfg, "--t-end", "0.02", "--samples", "2048", "--method", "both",
        "--out", str(out_csv),
    ]) == 0
    comments, header, rows = _read_csv(out_csv)
    assert header == ["t_s", "sx_an", "sy_an", "sz_an", "sx_num", "sy_num", "sz_num"]
    data = np.array([[float(c) for c in row] for row in rows])
    rms = math.sqrt(float(np.mean((data[:, 1] - data[:, 4]) ** 2)))
    assert rms <= 0.02
    assert any("xi =" in c for c in comments)


def test_simulate_rejects_single_sample(tmp_path, capsys):
    cfg = _write(tmp_path, "small.cfg", SMALL_ETA_CFG)
    assert main(["simulate", cfg, "--t-end", "0.01", "--samples", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "{even}", "--sweep", "xi", "--from", "1", "--to", "1", "--points", "3"],
        ["scan", "{bare}", "--sweep", "phi", "--from", "0", "--to", "90", "--points", "3"],
        ["scan", "{even}", "--sweep", "xi", "--from", "1", "--to", "2", "--points", "3",
         "--methods", "perturbative,bogus"],
        ["simulate", "{even}", "--t-end", "inf", "--samples", "16"],
        ["calibrate", "--omega0z", "5.979", "--omega", "0", "--synthetic"],
        ["calibrate", "--omega0z", "5.979", "--omega", "-3", "--synthetic"],
        ["calibrate", "--omega0z", "5.979", "--omega", "nan", "--synthetic"],
        ["calibrate", "--omega0z", "5.979", "--omega", "inf", "--synthetic"],
        ["scan", "{even}", "--sweep", "xi", "--from", "1", "--to", "2", "--points", "2", "--jobs", "0"],
        ["scan", "{even}", "--sweep", "xi", "--from", "1", "--to", "2", "--points", "2", "--jobs", "-2"],
    ],
    ids=["equal-from-to", "phi-without-one-tuning", "unknown-method", "t-end-inf",
         "omega-zero", "omega-negative", "omega-nan", "omega-inf", "jobs-zero", "jobs-negative"],
)
def test_usage_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch, argv):
    def no_scan(*args, **kwargs):
        raise AssertionError("a rejected scan must not start")

    monkeypatch.setattr(cli, "run_scan", no_scan)
    paths = {"even": _write(tmp_path, "even.cfg", EVEN_HARMONIC_CFG),
             "bare": _write(tmp_path, "bare.cfg", "[dressing]\nfrequency = 10\namplitude = 18\n")}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <args>")
    assert "Traceback" not in err


@pytest.mark.parametrize("methods", ["", " , ", "perturbative,perturbative", "monodromy,perturbative,monodromy"])
def test_scan_rejects_empty_or_repeated_methods_before_writing(tmp_path, capsys, methods):
    cfg = _write(tmp_path, "even.cfg", EVEN_HARMONIC_CFG)
    out_csv = tmp_path / "scan.csv"
    argv = ["scan", cfg, "--sweep", "xi", "--from", "1", "--to", "2", "--points", "3",
            "--methods", methods, "--out", str(out_csv)]
    assert main(argv) == 2
    assert "error: <args>: methods must be a nonempty list without repeats" in capsys.readouterr().err
    assert not out_csv.exists()


def test_simulate_numeric_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(cli, "propagate_spin_half", fail)
    cfg = _write(tmp_path, "small.cfg", SMALL_ETA_CFG)
    assert main(["simulate", cfg, "--t-end", "0.001", "--samples", "16", "--method", "numeric"]) == 3
    assert "error: NoConvergence: forced" in capsys.readouterr().err


def test_float_table_csv_matches_per_cell_format(tmp_path):
    # the one-operation %-format of an all-float table writes what _fmt writes per cell
    cells = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5e17, 1.0 / 3.0, 1e-5, 123456789012345.0]
    table = np.array(cells + cells[::-1]).reshape(4, 5)
    cli._write_csv(tmp_path / "fast.csv", ["c = 1"], list("abcde"), table)
    cli._write_csv(tmp_path / "cells.csv", ["c = 1"], list("abcde"), [[float(v) for v in r] for r in table])
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "cells.csv").read_bytes()
    assert b"-0,0,nan,inf,-inf\n4.94065645841e-324,-1.5e+17," in fast


def test_simulate_zero_drive(tmp_path):
    cfg = _write(tmp_path, "zero.cfg", "[dressing]\nfrequency = 10\n")
    out_csv = tmp_path / "sim.csv"
    assert main([
        "simulate", cfg, "--t-end", "0.001", "--samples", "64", "--method", "both",
        "--out", str(out_csv),
    ]) == 0
    _, header, rows = _read_csv(out_csv)
    sx_cols = [header.index("sx_an"), header.index("sx_num")]
    for row in rows:
        for i in sx_cols:
            assert float(row[i]) == pytest.approx(1.0, abs=1e-9)


def test_scan_csv_deterministic(tmp_path):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", cfg, "--sweep", "xi", "--from", "0.6", "--to", "5", "--points", "41",
            "--methods", "perturbative", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    comments, header, rows = _read_csv(a)
    assert comments[0] == "# dressedspin-csv v1"
    assert header[0] == "xi"
    assert len(rows) == 41


def test_scan_phase_column_pi_periodic_even_harmonic(tmp_path):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    out_csv = tmp_path / "phases.csv"
    assert main(["scan", cfg, "--sweep", "phi", "--from", "0", "--to", "360", "--points", "25",
                 "--methods", "perturbative", "--out", str(out_csv)]) == 0
    _, header, rows = _read_csv(out_csv)
    col = header.index("omega_L_perturbative_kHz")
    vals = [float(r[col]) for r in rows]
    for i in range(12):
        assert vals[i] == pytest.approx(vals[i + 12], rel=1e-12)  # Phi and Phi+pi


def test_scan_flat_undressed_x(tmp_path):
    cfg = _write(tmp_path, "xonly.cfg", "[static]\nx = 1.5\n[dressing]\nfrequency = 9\n")
    out_csv = tmp_path / "flat.csv"
    assert main(["scan", cfg, "--sweep", "xi", "--from", "0.5", "--to", "3", "--points", "2",
                 "--methods", "perturbative", "--out", str(out_csv)]) == 0
    _, header, rows = _read_csv(out_csv)
    col = header.index("omega_L_perturbative_kHz")
    assert float(rows[0][col]) == float(rows[1][col]) == pytest.approx(1.5, rel=1e-12)


def test_scan_all_rows_failed_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    out_csv = tmp_path / "bad.csv"
    code = main(["scan", cfg, "--sweep", "xi", "--from", "-5", "--to", "-1", "--points", "3",
                 "--methods", "perturbative", "--out", str(out_csv)])
    assert code == 3
    _, header, rows = _read_csv(out_csv)
    err_col = header.index("error")
    assert all("config:" in r[err_col] for r in rows)


def test_scan_with_override(tmp_path):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    out_csv = tmp_path / "o.csv"
    assert main(["scan", cfg, "--set", "tuning.0.amplitude=0", "--sweep", "xi",
                 "--from", "0.5", "--to", "2.4048255577", "--points", "2",
                 "--methods", "perturbative", "--out", str(out_csv)]) == 0
    _, header, rows = _read_csv(out_csv)
    col = header.index("omega_L_perturbative_kHz")
    # tuning off: pure J0 attenuation, collapsing at the J0 root
    assert float(rows[1][col]) == pytest.approx(0.0, abs=1e-9)


def test_simulate_spin_one(tmp_path):
    cfg = _write(tmp_path, "one.cfg", "spin = one\n" + SMALL_ETA_CFG)
    out_csv = tmp_path / "bloch.csv"
    assert main([
        "simulate", cfg, "--t-end", "0.01", "--samples", "1024", "--method", "both",
        "--out", str(out_csv),
    ]) == 0
    _, header, rows = _read_csv(out_csv)
    data = np.array([[float(c) for c in row] for row in rows])
    ix_an, ix_num = header.index("sx_an"), header.index("sx_num")
    rms = math.sqrt(float(np.mean((data[:, ix_an] - data[:, ix_num]) ** 2)))
    assert rms <= 0.02


def test_simulate_spin_one_writes_the_spin_half_numeric_cells(tmp_path):
    # the spin-one magnetisation is <sigma> of the spin-half spinor, so the
    # numeric columns are the same text; only the bundle comment differs
    cfg = _write(tmp_path, "even.cfg", EVEN_HARMONIC_CFG)
    tables = {}
    for spin in ("half", "one"):
        out_csv = tmp_path / f"{spin}.csv"
        assert main([
            "simulate", cfg, "--set", f"spin={spin}", "--t-end", "0.005", "--samples", "512",
            "--method", "numeric", "--out", str(out_csv),
        ]) == 0
        comments, header, rows = _read_csv(out_csv)
        assert f"# spin = {spin}" in comments
        assert header == ["t_s", "sx_num", "sy_num", "sz_num"]
        tables[spin] = rows
    assert tables["one"] == tables["half"]


def test_calibrate_synthetic_seeded(capsys):
    assert main(["calibrate", "--omega0z", "5.979", "--omega", "30", "--synthetic",
                 "--seed", "42"]) == 0
    out = capsys.readouterr().out
    scale = float(out.splitlines()[0].split(":")[1].split("+-")[0])
    assert abs(scale - 1.0) <= 0.04


def test_calibrate_synthetic_without_field_exits_4(capsys):
    # with omega0z = 0 the zero-field grid point has no undressed precession to divide by
    assert main(["calibrate", "--omega0z", "0", "--omega", "30", "--synthetic"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: DegenerateData: ")
    assert "undressed frequency is 0" in err


def test_calibrate_zero_field_row_without_omega0z_exits_4(tmp_path, capsys):
    # with omega0z = 0 the 0 kHz row has no undressed precession: it is named
    # before the fit instead of divided by (no RuntimeWarning)
    data = tmp_path / "ratios.csv"
    data.write_text("omega0x_kHz,ratio\n2,0.4\n0,0.32\n4,0.6\n6,0.75\n8,0.82\n10,0.87\n")
    assert main(["calibrate", str(data), "--omega0z", "0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: DegenerateData: undressed frequency is 0 at data row 2 ")


@pytest.mark.parametrize("omega0z", ["nan", "inf", "-inf"])
def test_calibrate_non_finite_omega0z_exits_4(tmp_path, capsys, omega0z):
    data = tmp_path / "ratios.csv"
    data.write_text("omega0x_kHz,ratio\n0,0.32\n2,0.4\n4,0.6\n6,0.75\n8,0.82\n10,0.87\n")
    for argv in ([str(data)], ["--synthetic"]):
        assert main(["calibrate", *argv, f"--omega0z={omega0z}"]) == 4
        assert capsys.readouterr().err.startswith("error: DegenerateData: omega0z must be finite")


def test_calibrate_empty_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("")
    assert main(["calibrate", str(data), "--omega0z", "5.979"]) == 2


def test_calibrate_single_row_exits_4(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("omega0x_kHz,ratio\n0.0,0.32\n")
    assert main(["calibrate", str(data), "--omega0z", "5.979"]) == 4


@pytest.mark.parametrize(
    "row, cell", [(0, "ratio"), (3, "ratio"), (3, "omega0x_kHz")], ids=["zero-field-ratio", "ratio", "omega0x"]
)
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_calibrate_non_finite_data_exits_4(tmp_path, capsys, row, cell, bad):
    from dressedspin.analysis import synthetic_calibration_data

    rows = synthetic_calibration_data([w * KHZ for w in (0, 2, 4, 6, 8, 10, 12)], omega0z=5.979 * KHZ, xi=1.833)
    cells = [[f"{w / KHZ}", f"{r}"] for w, r in rows]
    cells[row][["omega0x_kHz", "ratio"].index(cell)] = bad
    data = tmp_path / "ratios.csv"
    data.write_text("omega0x_kHz,ratio\n" + "".join(",".join(c) + "\n" for c in cells))
    assert main(["calibrate", str(data), "--omega0z", "5.979"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: DegenerateData: ")
    assert "finite" in err


def test_calibrate_reads_csv_roundtrip(tmp_path, capsys):
    from dressedspin.analysis import synthetic_calibration_data

    rows = synthetic_calibration_data(
        [w * KHZ for w in (0, 2, 4, 6, 8, 10, 12)], omega0z=5.979 * KHZ, xi=1.833, tilt=0.03
    )
    data = tmp_path / "ratios.csv"
    lines = ["omega0x_kHz,ratio"] + [f"{w / KHZ},{r}" for w, r in rows]
    data.write_text("\n".join(lines) + "\n")
    assert main(["calibrate", str(data), "--omega0z", "5.979"]) == 0
    out = capsys.readouterr().out
    assert "tilt" in out
    tilt = float(out.splitlines()[1].split(":")[1].split("+-")[0])
    assert tilt == pytest.approx(0.03, abs=1e-6)


def test_calibrate_rejects_unknown_schema(tmp_path, capsys):
    data = tmp_path / "future.csv"
    data.write_text("# dressedspin-csv v99\nomega0x_kHz,ratio\n0.0,0.3\n")
    assert main(["calibrate", str(data), "--omega0z", "5.979"]) == 2


def test_missing_config_file_exits_2(capsys):
    assert main(["effective-field", "/nonexistent/drive.cfg"]) == 2


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["simulate", "{cfg}", "--t-end", "0.001", "--samples", "16", "--out", "{dir}"], "dir"),
        (["effective-field", "{cfg}", "--csv", "{dir}"], "dir"),
        (["scan", "{cfg}", "--sweep", "xi", "--from", "1", "--to", "2", "--points", "2", "--out", "{dir}"], "dir"),
        (["simulate", "{dir}", "--t-end", "0.001", "--samples", "16"], "dir"),
        (["calibrate", "{dir}", "--omega0z", "5.979"], "dir"),
        (["simulate", "{latin1}", "--t-end", "0.001", "--samples", "16"], "latin1"),
        (["calibrate", "{latin1}", "--omega0z", "5.979"], "latin1"),
    ],
    ids=["simulate-out-dir", "effective-field-csv-dir", "scan-out-dir", "simulate-config-dir",
         "calibrate-data-dir", "config-not-utf8", "data-not-utf8"],
)
def test_unusable_path_or_encoding_exits_2_naming_the_path(tmp_path, capsys, argv, culprit):
    paths = {"cfg": _write(tmp_path, "small.cfg", SMALL_ETA_CFG), "dir": str(tmp_path / "a-directory"),
             "latin1": str(tmp_path / "latin1.cfg")}
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(b"omega0x_kHz,ratio\n# 5 \xb5T\n" + SMALL_ETA_CFG.encode())
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert paths[culprit] in err
    assert ("not UTF-8" in err) == (culprit == "latin1")


def test_no_ansi_escapes(tmp_path, capsys):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    main(["effective-field", cfg])
    captured = capsys.readouterr()
    assert "\x1b" not in captured.out + captured.err


def _fresh_process(argv):
    """(exit code, stdout) of `python -m dressedspin argv` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(dressedspin.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dressedspin", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def test_python_m_runs_the_cli():
    code, out = _fresh_process(["calibrate", "--omega0z", "5.979", "--synthetic"])
    assert code == 0
    assert out.startswith("scale         : ")


def test_cli_import_loads_no_test_tool_or_process_pool():
    # what importing the CLI loads is the set-up cost of every command
    env = dict(os.environ, PYTHONPATH=str(Path(dressedspin.__file__).parents[1]))
    probe = "import sys, dressedspin.cli; print(' '.join(sorted(set(sys.argv[1:]) & set(sys.modules))))"
    unwanted = ["scipy", "hypothesis", "pytest", "concurrent.futures", "numpy.fft"]
    proc = subprocess.run([sys.executable, "-c", probe, *unwanted], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cached_parser_holds_no_state_between_calls(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "drive.cfg", EVEN_HARMONIC_CFG)
    with_set = ["effective-field", cfg, "--set", "static.x=3"]
    without = ["effective-field", cfg]
    cli.build_parser.cache_clear()
    outputs = []
    for argv in (with_set, without, with_set):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    with pytest.raises(SystemExit) as usage:
        main(["calibrate", "--synthetic"])  # --omega0z missing
    assert usage.value.code == 2
    assert main(["calibrate", "--omega0z", "5.979", "--omega", "0", "--synthetic"]) == 2
    assert main(without) == 0
    outputs.append(capsys.readouterr().out)
    fresh = {tuple(argv): _fresh_process(argv)[1] for argv in (with_set, without)}
    assert outputs[0] != outputs[1]
    assert outputs == [fresh[tuple(argv)] for argv in (with_set, without, with_set, without)]

    # module-level names the commands call stay patchable once the parser is built
    def fail(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(cli, "run_scan", fail)
    assert main(["scan", cfg, "--sweep", "xi", "--from", "1", "--to", "2", "--points", "2"]) == 3
    assert cli.build_parser.cache_info().misses == 1


def test_calibrate_tiny_zero_field_ratio_starts_at_the_j0_root(tmp_path, capsys):
    # the zero-field ratio is below J0(J0_FIRST_ROOT - 1e-9) ~ 5e-10: a start
    # bracketed short of the root finds no sign change there
    data = tmp_path / "ratios.csv"
    data.write_text("omega0x_kHz,ratio\n0,1e-12\n2,0.4\n4,0.6\n6,0.75\n8,0.82\n10,0.87\n")
    assert main(["calibrate", str(data), "--omega0z", "5.979"]) == 0
    out = capsys.readouterr().out
    xi = float(out.splitlines()[2].split(":")[1].split("+-")[0])
    assert xi == pytest.approx(J0_FIRST_ROOT, abs=1e-6)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_commands():
    """Each ``dressedspin ...`` line of the README's CLI block, with its
    continuation lines joined, as an argv list."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dressedspin ")]


def test_readme_cli_commands_parse():
    # parses only; a README command that the parser rejects exits 2 here
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == {"effective-field", "simulate", "scan", "calibrate"}
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert args.func.__name__ == "cmd_" + argv[0].replace("-", "_")


def test_every_cli_option_is_in_the_readme():
    # each --option of each subcommand appears in README.md as a whole token,
    # so --omega is not found inside --omega0z; argparse's own --help is exempt
    text = README.read_text(encoding="utf-8")
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{command} {option}"
        for command, parser in sub.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--") and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
    ]
    assert missing == []


def test_readme_library_example_runs():
    # the README's Python block runs as written, so API drift fails here
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md (Library example)", "exec"), namespace)
    assert namespace["qe"].omega_L_numeric > 0.0
    assert namespace["series"].times.size == 2048
