"""CLI outputs compared byte for byte with the corpus in ``tests/golden/``.

The corpus holds the seven tables that ``scripts/metric_sweeps.py`` writes,
and the exit code, stdout and stderr of the edge sweeps in ``EDGE_SWEEPS``.
A mismatch names the first moved cell.  Regenerate the corpus with::

    PYTHONPATH=src python tests/test_cli_golden.py --update

Each regeneration is a test change: CHANGES.md records the cells it moved
and why.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from visco_impact.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TABLES = GOLDEN / "metric_sweeps"
EDGES = GOLDEN / "edge_sweeps.json"

# name: (sweep argv, the fixed groups of its --params file or None)
EDGE_SWEEPS = {
    # The last point's duration correction overflows: skipped, exit 2.
    "kv_eps0_overflow": (["sweep", "--model", "kv", "--sweep", "eps0:0:1e308:3"], None),
    # Subnormal loss factors, whose unit pair's dashpot 0.5 / zeta overflows.
    "mx_zeta_subnormal": (["sweep", "--model", "maxwell", "--sweep", "zeta:5e-324:1e-323:2"],
                          None),
    "mx_eps0_subnormal_zeta": (["sweep", "--model", "maxwell", "--sweep", "eps0:0:0.2:3"],
                               {"zeta": 5e-324}),
}


def _captured(fn, *args):
    """``fn(*args)`` with its stdout and stderr caught: ``(result, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


def metric_sweep_tables() -> dict[str, bytes]:
    """The bytes of each table ``scripts/metric_sweeps.py`` writes, by file name."""
    spec = importlib.util.spec_from_file_location("metric_sweeps",
                                                  ROOT / "scripts" / "metric_sweeps.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with tempfile.TemporaryDirectory() as tmp:
        rc, _, err = _captured(script.main, ["--outdir", tmp])
        if rc != 0:
            raise RuntimeError(f"scripts/metric_sweeps.py exited {rc}: {err}")
        return {name: (Path(tmp) / name).read_bytes() for name, *_ in script.SWEEPS}


def edge_sweeps() -> dict[str, dict]:
    """Exit code, stdout and stderr of each of ``EDGE_SWEEPS``."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, fixed) in EDGE_SWEEPS.items():
            if fixed is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(fixed))
                argv = [*argv, "--params", str(path)]
            code, out, err = _captured(cli_main, argv)
            runs[name] = {"exit": code, "stdout": out, "stderr": err}
    return runs


def first_moved(expected: str, actual: str) -> str | None:
    """Where ``actual`` first departs from ``expected``, by line and comma-separated
    cell, the cell named by the first line's header; None when they are equal."""
    if expected == actual:
        return None
    old, new = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    header = old[0].rstrip("\r\n").split(",") if old else []
    for i, (a, b) in enumerate(itertools.zip_longest(old, new, fillvalue="")):
        if a == b:
            continue
        cells = itertools.zip_longest(a.rstrip("\r\n").split(","), b.rstrip("\r\n").split(","))
        for j, (x, y) in enumerate(cells):
            if x != y:
                column = header[j] if j < len(header) else f"#{j + 1}"
                return f"line {i + 1}, cell {column}: expected {x!r}, got {y!r}"
        return f"line {i + 1}: expected {a!r}, got {b!r}"


@pytest.fixture(scope="module")
def tables():
    return metric_sweep_tables()


@pytest.mark.parametrize("name", sorted(p.name for p in TABLES.glob("*.csv")))
def test_metric_sweep_table_matches_the_corpus(tables, name):
    moved = first_moved((TABLES / name).read_bytes().decode(), tables[name].decode())
    assert moved is None, f"{name}: {moved}"


def test_corpus_holds_every_table(tables):
    assert sorted(tables) == sorted(p.name for p in TABLES.glob("*.csv"))


def test_edge_sweeps_match_the_corpus():
    golden, runs = json.loads(EDGES.read_text()), edge_sweeps()
    assert sorted(golden) == sorted(runs)
    for name, run in runs.items():
        for stream in ("exit", "stdout", "stderr"):
            want, got = golden[name][stream], run[stream]
            if stream == "exit":
                assert got == want, f"{name}: exit code {got}, expected {want}"
            else:
                moved = first_moved(want, got)
                assert moved is None, f"{name} {stream}: {moved}"


def test_first_moved_names_the_cell():
    old = "param,tc_scaled,e_star\r\n0.1,3.0,0.5\r\n"
    assert first_moved(old, old) is None
    moved = first_moved(old, old.replace("0.5", "0.50000000000000011"))
    assert moved == "line 2, cell e_star: expected '0.5', got '0.50000000000000011'"
    assert first_moved(old, old + "0.2,3.1,0.4\r\n").startswith("line 3, cell param")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the CLI output corpus; "
                                     "pytest checks it.")
    parser.add_argument("--update", action="store_true", required=True,
                        help="rewrite the corpus from the current code")
    parser.parse_args(argv)
    tables, runs = metric_sweep_tables(), edge_sweeps()
    TABLES.mkdir(parents=True, exist_ok=True)
    for name, data in tables.items():
        (TABLES / name).write_bytes(data)
    EDGES.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(tables)} tables and {len(runs)} edge sweeps to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
