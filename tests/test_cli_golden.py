"""CLI outputs compared byte for byte with the corpus in ``tests/golden/``.

The corpus holds the seven tables that ``scripts/metric_sweeps.py`` writes,
the exit code, stdout and stderr of the edge sweeps in ``EDGE_SWEEPS``, and
those of the runs in ``SIMULATIONS`` and ``COMMANDS`` with the file each writes
to ``--out``.  A mismatch names the first moved cell.  Text compares exactly,
except ``verify``'s ``max_error`` cells, which get the absolute budget
``ERROR_BUDGET``.  Regenerate the corpus with::

    PYTHONPATH=src python tests/test_cli_golden.py --update

Each regeneration is a test change: CHANGES.md records the cells it moved
and why; ``--update`` prints, for each entry that moved, how many numeric cells
moved and by how many ulps at most, and where each moved text cell is.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import itertools
import json
import math
import re
import struct
import sys
import tempfile
from pathlib import Path

import pytest

from visco_impact.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TABLES = GOLDEN / "metric_sweeps"
EDGES = GOLDEN / "edge_sweeps.json"
SIMULATED = GOLDEN / "simulate.json"
TRAJECTORIES = GOLDEN / "simulate"
COMMANDED = GOLDEN / "commands.json"

# name: (sweep argv, the fixed groups of its --params file or None)
EDGE_SWEEPS = {
    # The last point's duration correction overflows: skipped, exit 2.
    "kv_eps0_overflow": (["sweep", "--model", "kv", "--sweep", "eps0:0:1e308:3"], None),
    # Subnormal loss factors: the series pair's elastic limit, to the last place.
    "mx_zeta_subnormal": (["sweep", "--model", "maxwell", "--sweep", "zeta:5e-324:1e-323:2"],
                          None),
    "mx_eps0_subnormal_zeta": (["sweep", "--model", "maxwell", "--sweep", "eps0:0:0.2:3"],
                               {"zeta": 5e-324}),
}

# Each model at unit mass with g in its params file; the series layout for sls.
_SIMULATED_PARAMS = {
    "kv": {"m": 1.0, "k": 1.0, "b": 0.6, "v0": 1.0, "g": 0.1},
    "maxwell": {"m": 1.0, "k": 1.0, "b": 1.6, "v0": 1.0, "g": 0.1},
    "sls": {"m": 1.0, "k1": 1.0, "k2": 1.0, "b": 1.2, "v0": 1.0, "g": 0.1},
}
# name: (simulate argv, its --params file), each run with and without --gravity.
SIMULATIONS = {
    f"{model}{suffix}": (["simulate", model, "--dt", "0.05", *flags, "--out"], params)
    for model, params in _SIMULATED_PARAMS.items()
    for suffix, flags in (("", []), ("_gravity", ["--gravity"]))
}


# The reference cartilage layer of the biphasic-pipeline verify suite.
_LAYER = {"mu_s": 0.25e6, "lambda_s": 0.25e6, "kappa": 2e-15, "h": 0.5e-3, "a": 2.5e-3}
# name: (argv, its --params file or None)
COMMANDS = {
    "verify": (["verify"], None),
    "verify_out": (["verify", "--out"], None),
    "biphasic": (["biphasic", "--m", "0.2"], _LAYER),
    "biphasic_out": (["biphasic", "--m", "0.2", "--dt", "0.05", "--out"], _LAYER),
    # h / a = 0.4: the one-line thick-layer warning.
    "biphasic_thick": (["biphasic", "--m", "0.2"], {**_LAYER, "h": 1e-3}),
    "analyze": (["analyze"], None),
    "analyze_out": (["analyze", "--out"], None),
    # One refusal per exit code: 1, 2 and 3; the series pair at zeta >= 1 as its layer.
    "refuse_malformed_sweep": (["sweep", "--model", "kv", "--sweep", "eta:0:1:x"], None),
    "refuse_eta_out_of_range": (["sweep", "--model", "kv", "--sweep", "eta:0.5:1.5:3"], None),
    "refuse_overdamped_layer": (["biphasic", "--m", "0.2", "--out"], {**_LAYER, "kappa": 1e-8}),
    "refuse_overdamped_pair": (["simulate", "maxwell"], {"m": 1.0, "k": 1.0, "b": 0.4, "v0": 1.0}),
    # Every sweep form, on a small grid, to a file.
    "sweep_kv_eta_out": (["sweep", "--model", "kv", "--sweep", "eta:0.1:0.9:5", "--out"], None),
    "sweep_kv_eps0_out": (["sweep", "--model", "kv", "--sweep", "eps0:0:0.2:5", "--out"],
                          {"eta": 0.3}),
    "sweep_mx_zeta_out": (["sweep", "--model", "maxwell", "--sweep", "zeta:0.1:0.9:5", "--out"],
                          None),
    "sweep_mx_eps0_out": (["sweep", "--model", "maxwell", "--sweep", "eps0:0:0.2:5", "--out"],
                          {"zeta": 0.3}),
    "sweep_sls_rho_eta_out": (["sweep", "--model", "sls", "--sweep", "rho:0.01:0.5:5", "--out"],
                              {"eta": 0.3}),
    "sweep_sls_rho_zeta_out": (["sweep", "--model", "sls", "--sweep", "rho:0.01:0.5:5", "--out"],
                               {"zeta": 0.3}),
    "sweep_sls_Lambda_out": (["sweep", "--model", "sls", "--sweep", "Lambda:0.02:3.0:5", "--out"],
                             {"rho": 0.1}),
    # Each model's simulation at a fine spacing, without the weight.
    **{f"simulate_{model}_dt_0.01": (["simulate", model, "--dt", "0.01", "--out"], params)
       for model, params in _SIMULATED_PARAMS.items()},
}

# verify's max_error sits at rounding level (1e-16 to 1e-15), where another BLAS
# build may move it, as in test_oracle.py's TestContactEndPinned: an absolute budget.
ERROR_BUDGET = 1e-12
# A max_error in verify's stdout line or in its --out row.
_MAX_ERROR = re.compile(r"(?m)(max error |^[a-z-]+,)(\d[^,]*)")


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


def cli_runs(runs: dict) -> dict[str, dict]:
    """Exit code, stdout and stderr of each ``name: (argv, fixed)`` in ``runs``, with
    ``fixed`` written to the ``--params`` file when it is not None.  An ``argv``
    ending in ``--out`` is given a file there, and its text, or None when the run
    writes none, is the result's ``out``."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, fixed) in runs.items():
            out, writes = Path(tmp) / f"{name}.csv", argv[-1] == "--out"
            if writes:
                argv = [*argv, str(out)]
            if fixed is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(fixed))
                argv = [*argv, "--params", str(path)]
            code, stdout, stderr = _captured(cli_main, argv)
            results[name] = {"exit": code, "stdout": stdout, "stderr": stderr}
            if writes:
                results[name]["out"] = out.read_bytes().decode() if out.exists() else None
    return results


def _moved_cells(expected: str, actual: str):
    """``(where, old, new)`` for each comma-separated cell of ``actual`` that departs
    from ``expected``'s, named by line and the first line's header, or for the whole
    line when only its ending moved."""
    old, new = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    header = old[0].rstrip("\r\n").split(",") if old else []
    for i, (a, b) in enumerate(itertools.zip_longest(old, new, fillvalue="")):
        if a == b:
            continue
        cells = itertools.zip_longest(a.rstrip("\r\n").split(","), b.rstrip("\r\n").split(","))
        moved = [(j, x, y) for j, (x, y) in enumerate(cells) if x != y]
        for j, x, y in moved:
            column = header[j] if j < len(header) else f"#{j + 1}"
            yield f"line {i + 1}, cell {column}", x, y
        if not moved:
            yield f"line {i + 1}", a, b


def first_moved(expected: str, actual: str) -> str | None:
    """Where ``actual`` first departs from ``expected``, by line and comma-separated
    cell, the cell named by the first line's header; None when they are equal."""
    for where, x, y in _moved_cells(expected, actual):
        return f"{where}: expected {x!r}, got {y!r}"
    return None


def _ulps(x: str | None, y: str | None) -> int | None:
    """How many doubles apart the numbers written ``x`` and ``y`` are; None unless
    both are finite numbers."""
    try:
        a, b = float(x), float(y)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    # The bit patterns of doubles, negatives mirrored, count the doubles in order.
    i, j = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (a, b))
    i, j = (n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF) for n in (i, j))
    return abs(i - j)


def move_summary(expected: str, actual: str) -> str:
    """How many numeric cells of ``actual`` moved from ``expected`` and by how many
    ulps at most, and where each text cell that moved is."""
    numeric, most, text = 0, 0, []
    for where, x, y in _moved_cells(expected, actual):
        ulps = _ulps(x, y)
        if ulps is None:
            text.append(where)
        else:
            numeric, most = numeric + 1, max(most, ulps)
    parts = [f"{numeric} numeric cell{'s' * (numeric != 1)} moved, by at most {most} ulp"]
    if text:
        parts.append(f"text moved at {'; '.join(text)}")
    return "; ".join(parts)


def entry_moves(old: dict | None, new: dict) -> list[str]:
    """One line for each stream of a corpus entry that moved: the exit code's old and
    new values, or a text's :func:`move_summary`; ``["new"]`` when ``old`` is None."""
    if old is None:
        return ["new"]
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if isinstance(a, str) and isinstance(b, str):
            lines.append(f"{key}: {move_summary(a, b)}")
        else:
            lines.append(f"{key}: {a!r} -> {b!r}")
    return lines


@pytest.fixture(scope="module")
def tables():
    return metric_sweep_tables()


@pytest.mark.parametrize("name", sorted(p.name for p in TABLES.glob("*.csv")))
def test_metric_sweep_table_matches_the_corpus(tables, name):
    moved = first_moved((TABLES / name).read_bytes().decode(), tables[name].decode())
    assert moved is None, f"{name}: {moved}"


def test_corpus_holds_every_table(tables):
    assert sorted(tables) == sorted(p.name for p in TABLES.glob("*.csv"))


def budget_moved(expected: str, actual: str, budget: float) -> str | None:
    """Like :func:`first_moved`, but each verify ``max_error`` may move by ``budget``."""
    (old, old_errors), (new, new_errors) = (
        (_MAX_ERROR.sub(r"\1*", text), [float(m[2]) for m in _MAX_ERROR.finditer(text)])
        for text in (expected, actual))
    moved = first_moved(old, new)
    if moved is not None:
        return moved
    for i, (a, b) in enumerate(zip(old_errors, new_errors)):
        if not abs(a - b) <= budget:
            return f"max_error #{i + 1}: expected {a!r}, got {b!r}, beyond {budget:g}"
    return None


def _assert_same_run(name: str, want: dict, got: dict, budget: float = 0.0) -> None:
    """``got`` has ``want``'s exit code, and its streams and ``--out`` text match cell for
    cell, each verify ``max_error`` within ``budget`` when that is not 0."""
    assert got["exit"] == want["exit"], f"{name}: exit code {got['exit']}, expected {want['exit']}"
    assert sorted(got) == sorted(want), f"{name}: wrote {sorted(got)}, expected {sorted(want)}"
    for stream in ("stdout", "stderr", "out"):
        if want.get(stream) is None:
            assert got.get(stream) is None, f"{name}: wrote {stream}, expected none"
            continue
        if budget:
            moved = budget_moved(want[stream], got[stream], budget)
        else:
            moved = first_moved(want[stream], got[stream])
        assert moved is None, f"{name} {stream}: {moved}"


def test_edge_sweeps_match_the_corpus():
    golden, runs = json.loads(EDGES.read_text()), cli_runs(EDGE_SWEEPS)
    assert sorted(golden) == sorted(runs)
    for name, run in runs.items():
        _assert_same_run(name, golden[name], run)


def test_corpus_holds_every_simulation():
    assert sorted(json.loads(SIMULATED.read_text())) == sorted(SIMULATIONS)
    assert sorted(p.stem for p in TRAJECTORIES.glob("*.csv")) == sorted(SIMULATIONS)


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_simulation_matches_the_corpus(name):
    want = {**json.loads(SIMULATED.read_text())[name],
            "out": (TRAJECTORIES / f"{name}.csv").read_bytes().decode()}
    _assert_same_run(name, want, cli_runs({name: SIMULATIONS[name]})[name])


def test_corpus_holds_every_command():
    assert sorted(json.loads(COMMANDED.read_text())) == sorted(COMMANDS)


# A library warning reaches stderr as the CLI prints it, as in a plain interpreter.
@pytest.mark.filterwarnings("default::UserWarning")
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_the_corpus(name):
    budget = ERROR_BUDGET if COMMANDS[name][0][0] == "verify" else 0.0
    _assert_same_run(name, json.loads(COMMANDED.read_text())[name],
                     cli_runs({name: COMMANDS[name]})[name], budget)


def test_first_moved_names_the_cell():
    old = "param,tc_scaled,e_star\r\n0.1,3.0,0.5\r\n"
    assert first_moved(old, old) is None
    moved = first_moved(old, old.replace("0.5", "0.50000000000000011"))
    assert moved == "line 2, cell e_star: expected '0.5', got '0.50000000000000011'"
    assert first_moved(old, old + "0.2,3.1,0.4\r\n").startswith("line 3, cell param")
    assert first_moved(old, old.replace("\r\n", "\n")) == (
        "line 1: expected 'param,tc_scaled,e_star\\r\\n', got 'param,tc_scaled,e_star\\n'")


def test_move_summary_counts_cells_and_ulps():
    old = "param,tc_scaled,e_star\r\n0.1,3.0,0.5\r\n0.2,-2.0,0.25\r\n"
    up = lambda x, n: repr(functools.reduce(math.nextafter, [math.inf] * n, x))  # noqa: E731
    new = (old.replace("3.0", up(3.0, 1)).replace(",0.5", "," + up(0.5, 2))
           .replace("-2.0", up(-2.0, 3)))
    assert move_summary(old, new) == "3 numeric cells moved, by at most 3 ulp"
    assert move_summary(old, old.replace("0.25", "nan").replace("param", "value")) == (
        "0 numeric cells moved, by at most 0 ulp; "
        "text moved at line 1, cell param; line 3, cell e_star")
    assert _ulps("-0.0", "0.0") == 0 and _ulps(repr(-5e-324), repr(5e-324)) == 2
    assert entry_moves(None, {"exit": 0}) == ["new"]
    assert entry_moves({"exit": 0, "out": old}, {"exit": 2, "out": new}) == [
        "exit: 0 -> 2", "out: 3 numeric cells moved, by at most 3 ulp"]
    assert entry_moves({"exit": 0}, {"exit": 0}) == []


def test_budget_moves_only_max_error():
    line = "elastic-limit: pass (max error 1.332e-15, tolerance 1.0e-06)\n"
    row = "suite,max_error,tolerance,status\r\nelastic-limit,1.3322676295501878e-15,1e-06,pass\r\n"
    assert budget_moved(line, line.replace("1.332e-15", "4.441e-16"), 1e-12) is None
    assert budget_moved(row, row.replace("1.3322676295501878e-15", "0"), 1e-12) is None
    assert budget_moved(line, line.replace("1.332e-15", "2.000e-12"), 1e-12).startswith(
        "max_error #1: expected 1.332e-15")
    assert budget_moved(row, row.replace("pass", "FAIL"), 1e-12).startswith("line 2, cell status")


def _corpus() -> dict[str, dict]:
    """Every corpus entry on disk, by ``file: name``, as a dict of its streams."""
    def read(path):
        return json.loads(path.read_text()) if path.exists() else {}
    entries = {f"metric_sweeps/{p.name}: table": {"out": p.read_bytes().decode()}
               for p in TABLES.glob("*.csv")}
    entries.update({f"{EDGES.name}: {name}": run for name, run in read(EDGES).items()})
    for name, run in read(SIMULATED).items():
        path = TRAJECTORIES / f"{name}.csv"
        entries[f"{SIMULATED.name}: {name}"] = {
            **run, "out": path.read_bytes().decode() if path.exists() else None}
    entries.update({f"{COMMANDED.name}: {name}": run for name, run in read(COMMANDED).items()})
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the CLI output corpus; "
                                     "pytest checks it.")
    parser.add_argument("--update", action="store_true", required=True,
                        help="rewrite the corpus from the current code and report what moved")
    parser.parse_args(argv)
    before = _corpus()
    tables, runs, simulations = metric_sweep_tables(), cli_runs(EDGE_SWEEPS), cli_runs(SIMULATIONS)
    commands = cli_runs(COMMANDS)
    TABLES.mkdir(parents=True, exist_ok=True)
    for name, data in tables.items():
        (TABLES / name).write_bytes(data)
    EDGES.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    TRAJECTORIES.mkdir(parents=True, exist_ok=True)
    for name, run in simulations.items():
        (TRAJECTORIES / f"{name}.csv").write_bytes(run.pop("out").encode())
    SIMULATED.write_text(json.dumps(simulations, indent=1, sort_keys=True) + "\n")
    COMMANDED.write_text(json.dumps(commands, indent=1, sort_keys=True) + "\n")
    after = _corpus()
    for entry in sorted(before.keys() | after.keys()):
        for line in entry_moves(before.get(entry), after.get(entry, {})):
            print(f"{entry}: {line}")
    print(f"wrote {len(tables)} tables, {len(runs)} edge sweeps, {len(simulations)} "
          f"simulations and {len(commands)} commands to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
