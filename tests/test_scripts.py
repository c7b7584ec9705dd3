"""Smoke tests for the table generators under ``scripts/``."""

from __future__ import annotations

import csv
import importlib.util
from pathlib import Path

import pytest

from visco_impact.cli import SWEEP_ASYM_HEADER, SWEEP_HEADER, read_csv_rows

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_metric_sweeps_writes_every_table(tmp_path, capsys):
    script = _load_script("metric_sweeps")
    assert script.main(["--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert len(script.SWEEPS) == 7
    for name, model, sweep, _ in script.SWEEPS:
        param, steps = sweep.split(":")[0], int(sweep.split(":")[3])
        header = SWEEP_ASYM_HEADER if (model, param) == ("sls", "rho") else SWEEP_HEADER
        rows = read_csv_rows(tmp_path / name, header)
        assert rows.shape == (steps, len(header))
        assert f"wrote {tmp_path / name}" in out


def test_convergence_study_keeps_both_orders(tmp_path, capsys):
    """Step halving must keep RK4's ratio near 16, rho halving near 4."""
    script = _load_script("convergence_study")
    out = tmp_path / "convergence.csv"
    assert script.main(["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"wrote {out}" in printed
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ratios = {"step-halving": [], "rho-halving": []}
    for row in rows:
        if row["ratio"] != "nan":
            ratios[row["study"]].append(float(row["ratio"]))
    assert len(ratios["step-halving"]) == 3 * (len(script.DT_FRACTIONS) - 1)
    assert len(ratios["rho-halving"]) == 2 * (len(script.RHO_VALUES) - 1)
    assert all(12.0 < r < 20.0 for r in ratios["step-halving"])
    assert all(3.0 < r < 5.0 for r in ratios["rho-halving"])
    # The printed maxwell and sls step-halving rows to three significant
    # digits (error, then ratio), which a BLAS that sums in another order
    # leaves alone: work on the oracle keeps its convergence table.
    expected = {
        "maxwell zeta=0.3": [(1.82e-05,), (1.18e-06, 15.4), (7.50e-08, 15.8), (4.70e-09, 16.0)],
        "sls Lambda=0.25 rho=0.5": [(5.17e-08,), (3.30e-09, 15.6), (2.09e-10, 15.8),
                                    (1.31e-11, 15.9)],
    }
    for case, values in expected.items():
        lines = [line[26:].split() for line in printed.splitlines() if line.startswith(case)]
        assert [float(cells[0]) for cells in lines] == list(script.DT_FRACTIONS)
        for cells, quoted in zip(lines, values, strict=True):
            assert [float(c) for c in cells[1:]] == pytest.approx(quoted, rel=5e-3)
