"""Smoke tests for the table generators under ``scripts/``."""

from __future__ import annotations

import csv
import importlib.util
from pathlib import Path

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
    assert f"wrote {out}" in capsys.readouterr().out
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
