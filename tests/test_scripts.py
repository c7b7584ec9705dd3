"""Smoke tests for the table generators under ``scripts/``."""

from __future__ import annotations

import csv
import importlib.util
import json
import shutil
import subprocess
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


def _git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(SCRIPTS.parent), "rev-parse", "HEAD"],
                           capture_output=True)
    return probe.returncode == 0


@pytest.mark.skipif(not _git_checkout(), reason="needs git and a git checkout")
def test_ab_runs_one_pair_of_each_side(tmp_path, capsys):
    """HEAD against HEAD, one pair of three-case runs: every field, not the timings."""
    script = _load_script("ab")
    report = tmp_path / "ab.json"
    argv = ["--base", "HEAD", "--change", "HEAD", "--workload", "closed-form-grid",
            "--pairs", "1", "--seed", "1", "--seconds", "1", "--cases", "3",
            "--json", str(report)]
    assert script.main(argv) == 0
    printed = capsys.readouterr().out
    names = [m["name"] for m in json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
             ["end_to_end"]]
    result = json.loads(report.read_text())
    assert [pair["first"] for pair in result["pairs"]] == ["base"]
    for side in ("base", "change"):
        assert set(result["pairs"][0][side]) >= set(names)
    assert list(result["summary"]) == names
    for name, entry in result["summary"].items():
        assert entry["won"] in (0, 1) and entry["pairs"] == 1
        assert entry["base"]["median"] == result["pairs"][0]["base"][name]
        assert isinstance(entry["past_bound"], bool)
        assert isinstance(entry["unresolved"], bool)
        assert f"  {name}: " in printed
    assert printed.startswith("pair 1 (base first): ")


def test_ab_summary_flags_a_base_spread_wider_than_the_bound():
    """The base's quartiles 90 and 110 span 0.2 of its median 100: a bound of 0.25 is
    resolved, one of 0.1 is not, unless every change run beats every base run."""
    summarize = _load_script("ab").summarize
    base = [80.0, 90.0, 100.0, 110.0, 120.0]

    def summary(change, better, bound):
        pairs = [{"base": {"x": b}, "change": {"x": c}} for b, c in zip(base, change)]
        return summarize([{"name": "x", "better": better, "bound": bound}], pairs)["x"]

    same = [101.0, 91.0, 99.0, 111.0, 119.0]
    assert not summary(same, "higher", 0.25)["unresolved"]
    entry = summary(same, "higher", 0.1)
    assert entry["unresolved"] and not entry["past_bound"]
    assert entry["won"] == 3 and entry["base"] == {"median": 100.0, "q1": 90.0, "q3": 110.0}
    assert not summary([121.0, 125.0, 130.0, 122.0, 140.0], "higher", 0.1)["unresolved"]
    assert summary([121.0, 125.0, 130.0, 122.0, 140.0], "lower", 0.1)["unresolved"]
    assert not summary([1.0, 2.0, 3.0, 4.0, 79.0], "lower", 0.1)["unresolved"]
    slower = summary([60.0, 70.0, 75.0, 80.0, 85.0], "higher", 0.1)
    assert slower["past_bound"] and slower["unresolved"]
