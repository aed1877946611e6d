"""The float-table CSV writer against Python's own %.12g, cell by cell."""

import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dressedspin
from dressedspin import cli
from dressedspin.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _per_cell(table):
    """The oracle: every cell through Python's %.12g."""
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in np.asarray(table).tolist())


def _adversarial(rng, n):
    """About 4n signed cells where a fast %.12g is most likely to go wrong."""
    e = rng.integers(-6, 2, n)  # decade of the cell: e = floor(log10|x|)
    digits = rng.integers(10**11, 10**12, n)  # 12 significant digits D
    power = 10.0 ** (11 - e)  # exact for these e, so each division below rounds once
    steps = rng.integers(-2, 3, n)  # ulps off the double nearest a rounding tie
    ties = (digits + 0.5) / power
    for k in (1, 2):
        ties = np.where(steps >= k, np.nextafter(ties, np.inf), ties)
        ties = np.where(steps <= -k, np.nextafter(ties, 0.0), ties)
    zeros = rng.integers(0, 12, n)  # trailing-zero patterns, D = 10**11 among them
    trailing = digits // 10**zeros * 10**zeros / power
    decades = 10.0 ** np.arange(-6, 3)  # decade edges, 1e-4 and 1 among them
    edges = [decades]
    for toward in (0.0, np.inf):
        near = decades
        for _ in range(3):  # 3 ulps either side
            near = np.nextafter(near, toward)
            edges.append(near)
    wide = 10.0 ** rng.uniform(-300, 300, n)  # almost all |x| >= 1 or |x| < 1e-4
    special = np.array([0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                        1.7976931348623157e308, 1.0, 1e-4, 0.1])
    subnormal = rng.integers(1, 2**52, n // 100) * 5e-324
    cells = np.concatenate([ties, trailing, digits / power, *edges, wide, special, subnormal])
    return cells * rng.choice([-1.0, 1.0], cells.size)


@pytest.mark.parametrize("n_cols", [1, 7])
def test_table_writer_matches_per_cell_format_on_adversarial_cells(n_cols):
    rng = np.random.default_rng(20281)
    cells = _adversarial(rng, 250_000)
    assert cells.size >= 10**6
    table = cells[: cells.size // n_cols * n_cols].reshape(-1, n_cols)
    assert cli._float_table_text(table) == _per_cell(table)


def test_table_writer_takes_the_fast_path_on_most_cells(monkeypatch):
    # a writer that sent every cell to %.12g would pass the other tests
    table = np.random.default_rng(5).uniform(-1.0, 1.0, (512, 7))
    flatnonzero, slow = np.flatnonzero, []

    def count(mask):
        index = flatnonzero(mask)
        slow.append(index.size)
        return index

    monkeypatch.setattr(np, "flatnonzero", count)
    assert cli._float_table_text(table) == _per_cell(table)
    assert len(slow) == 1 and slow[0] < 0.01 * table.size


_FAST = st.floats(1e-4, 1.0, exclude_max=True)


@st.composite
def _near_ties(draw):
    """A cell within a few ulps of a 12-digit rounding tie, or of a decade edge."""
    e = draw(st.integers(-6, 1))
    digits = draw(st.integers(10**11, 10**12 - 1))
    x = (digits + draw(st.sampled_from((0.5, 0.0)))) / 10.0 ** (11 - e)
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from((0.0, math.inf))))
    return x


_CELLS = st.floats() | _FAST | _near_ties() | st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324))


@settings(deadline=None, max_examples=300)
@given(n_cols=st.integers(1, 7), data=st.data())
def test_table_writer_matches_per_cell_format(n_cols, data):
    cells = data.draw(st.lists(st.builds(lambda v, neg: -v if neg else v, _CELLS, st.booleans()),
                               min_size=n_cols, max_size=12 * n_cols))
    table = np.array(cells[: len(cells) // n_cols * n_cols]).reshape(-1, n_cols)
    assert cli._float_table_text(table) == _per_cell(table)


def test_table_writer_spans_blocks(monkeypatch):
    # a table longer than one block joins its blocks at row ends
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 10)
    table = np.random.default_rng(3).normal(scale=1e-3, size=(23, 3))
    table[[0, 7, 22], 0] = [-0.0, math.nan, 12.5]
    assert cli._float_table_text(table) == _per_cell(table)
    assert cli._float_table_text(table[:0]) == _per_cell(table[:0]) == ""
    assert cli._float_table_text(table[:, :0]) == _per_cell(table[:, :0]) == "\n" * 23


@pytest.mark.parametrize("spin", ["half", "one"])
@pytest.mark.parametrize("method", ["analytic", "both"])
@pytest.mark.parametrize("name", ["anisotropy", "collapse", "even-harmonic", "odd-harmonic"])
def test_simulate_csv_equals_the_table_written_cell_by_cell(tmp_path, monkeypatch, name, method, spin):
    tables = []
    write = cli._write_csv

    def keep(path, comment_lines, header, rows):
        tables.append(rows)
        write(path, comment_lines, header, rows)

    monkeypatch.setattr(cli, "_write_csv", keep)
    out = tmp_path / "sim.csv"
    argv = ["simulate", str(CONFIGS / f"{name}.cfg"), "--t-end", "0.005", "--samples", "2048",
            "--method", method, "--out", str(out), "--set", f"spin={spin}"]
    assert main(argv) == 0
    (table,) = tables
    assert isinstance(table, np.ndarray) and table.shape == (2048, 7 if method == "both" else 4)
    text = out.read_text()
    n_head = 1 + sum(line.startswith("#") for line in text.splitlines())  # comments and the header
    body = text.split("\n", n_head)[n_head]
    expected = "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in table.tolist())
    assert body == expected


def test_cli_import_builds_no_digit_table():
    # the writer's tables are built on the first table written, not at import
    env = dict(os.environ, PYTHONPATH=str(Path(dressedspin.__file__).parents[1]))
    probe = "import dressedspin.cli as c; print(c._digit_tables.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
