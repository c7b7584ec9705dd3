"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

These run the real command on a few cases of each workload, so they take
about a minute.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import visco_impact  # noqa: E402
import visco_impact.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=5, cases=4):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--cases", str(cases)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _inputs(workload, seed, tmp):
    return [(c.kind, repr(c.args)) for c in workloads.generate(workload, seed, str(tmp))]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_sets_the_inputs(workload, tmp_path):
    assert _inputs(workload, 1, tmp_path) == _inputs(workload, 1, tmp_path)
    assert _inputs(workload, 1, tmp_path) != _inputs(workload, 2, tmp_path)


def _package_names():
    """Module attributes the benchmark may touch: public API plus wrapped names."""
    allowed = {("visco_impact", n) for n in visco_impact.__all__}
    allowed |= {("visco_impact.cli", n) for n in visco_impact.cli.__all__}
    for module, attr in tracing.WRAPPED_NAMES:
        allowed.add(("visco_impact." + module.split(".")[0], attr))
    allowed.add(("visco_impact.models", "Trajectory"))
    return allowed


def test_uses_only_public_api_and_wrapped_names():
    allowed = _package_names()
    for path in BENCH.glob("*.py"):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("visco_impact"):
                pytest.fail(f"{path.name}: from-import of {node.module}; use a module alias")
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("visco_impact"):
                        aliases[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
                if module is not None:
                    assert (module, node.attr) in allowed, f"{path.name}: {module}.{node.attr}"


def _snapshot(root):
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*")}


def test_never_writes_to_src():
    before = _snapshot(ROOT / "src")
    _run("cli-batch", 1, cases=12)
    assert _snapshot(ROOT / "src") == before
