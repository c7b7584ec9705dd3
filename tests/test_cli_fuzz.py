"""Fuzz of the command line: ``simulate``, ``sweep`` and ``biphasic`` parameter
files, ``analyze`` record tables, and the ``--dt`` of ``simulate`` and ``biphasic
--out``, drawn from the whole float range (NaN, +-inf, +-0, subnormals, negatives).

Every run returns an exit code in {0, 1, 2, 3} and lets no exception escape
``main``; a run that ends in an error prints exactly one ``error:`` line, and
a sweep that skips rows prints one skip line per NaN row instead.  A finished
run without weight, and every kept row of a sweep other than ``eps0``, is
finite with ``e*`` in [0, 1]; so is every number a finished ``analyze`` prints.
The weighted answers are not held to that:
near-elastic heavy drops (ROADMAP item 18) and ``eps0`` sweeps past the
embedding threshold (item 3) are wrong today, each pinned by a strict xfail
in ``tests/test_kelvin_voigt.py`` and ``tests/test_cli.py``.  A counterexample
outside those items is pinned here as a strict xfail; the draws stay as wide.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_impact.analysis import EXPERIMENT_HEADER
from visco_impact.cli import _MODELS, SWEEP_HEADER, main
from visco_impact.models import TRAJECTORY_HEADER, read_numeric_csv

# The whole float range, and a share of plain magnitudes so that runs get past
# the parameter checks.
FLOATS = st.one_of(st.floats(), st.floats(1e-3, 1e3))
BOUNDS = st.one_of(st.floats(), st.floats(0.0, 1.0), st.floats(0.0, 10.0))

PARAM_KEYS = {
    "kv": ("m", "k", "b", "v0"),
    "maxwell": ("m", "k", "b", "v0"),
    "sls": ("m", "k1", "k2", "b", "v0"),
    "sls-parallel": ("m", "kappa1", "kappa2", "beta", "v0"),
}
LAYER_KEYS = ("mu_s", "lambda_s", "kappa", "h", "a")
EXIT_CODES = {0, 1, 2, 3}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path, values: dict) -> str:
    path.write_text(json.dumps(values))  # NaN and +-inf as JSON's NaN / Infinity
    return str(path)


def _errors(err: str) -> list[str]:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def _check_run(code: int, err: str) -> None:
    """An exit code the CLI documents, and one ``error:`` line exactly when it failed."""
    assert code in EXIT_CODES
    assert len(_errors(err)) == (code != 0)


def _check_impact(err: str, out_path) -> None:
    """A finished impact: its printed restitution in [0, 1] and a finite trajectory."""
    e_star = [float(line.split("=")[1]) for line in err.splitlines()
              if line.strip().startswith("e_star =")]
    assert len(e_star) == 1 and 0.0 <= e_star[0] <= 1.0, e_star
    assert np.isfinite(read_numeric_csv(out_path, TRAJECTORY_HEADER)).all()


def _dt_option(dt) -> list[str]:
    # ``--dt=value`` so that argparse reads "-inf" as a value, not an option.
    return [] if dt is None else [f"--dt={dt!r}"]


@given(layout=st.sampled_from(sorted(PARAM_KEYS)), data=st.data(),
       g=st.one_of(st.none(), FLOATS), gravity=st.booleans(), dt=st.one_of(st.none(), FLOATS))
@settings(deadline=None, max_examples=250, derandomize=True)
def test_simulate(workdir, layout, data, g, gravity, dt):
    values = {key: data.draw(FLOATS, label=key) for key in PARAM_KEYS[layout]}
    if g is not None:
        values["g"] = g
    out = workdir / "simulate.csv"
    out.unlink(missing_ok=True)
    argv = ["simulate", layout.split("-")[0], "--params", _write(workdir / "p.json", values),
            "--out", str(out)] + ["--gravity"] * gravity + _dt_option(dt)
    code, _, err = _run(argv)
    _check_run(code, err)
    if code == 0 and not gravity:
        _check_impact(err, out)


def _check_sweep(workdir, model: str, param: str, fixed: dict, with_file: bool,
                 lo: float, hi: float, steps: int) -> None:
    argv = ["sweep", "--model", model, "--sweep", f"{param}:{lo!r}:{hi!r}:{steps}"]
    if fixed or with_file:
        argv += ["--params", _write(workdir / "fixed.json", fixed)]
    code, out, err = _run(argv)
    assert code in EXIT_CODES
    if not out:
        _check_run(code, err)
        return
    assert not _errors(err)
    header, *lines = out.splitlines()
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    assert tuple(header.split(",")[:len(SWEEP_HEADER)]) == SWEEP_HEADER
    skipped = np.isnan(rows[:, 1])
    assert err.count(" skipped: ") == skipped.sum()
    assert (code == 0) == (not skipped.any())
    kept = rows[~skipped]
    if param != "eps0":
        assert np.isfinite(kept).all()
        assert ((0.0 <= kept[:, 2]) & (kept[:, 2] <= 1.0)).all()


@given(model=st.sampled_from(sorted(_MODELS)), data=st.data(),
       # Two distinct bounds in order, though a NaN keeps its place.
       bounds=st.lists(BOUNDS, min_size=2, max_size=2, unique=True).map(sorted),
       steps=st.integers(2, 5))
@settings(deadline=None, max_examples=250, derandomize=True)
def test_sweep(workdir, model, data, bounds, steps):
    param = data.draw(st.sampled_from(sorted(_MODELS[model].sweeps)), label="param")
    reads = sorted(_MODELS[model].sweeps[param][0])
    keys = data.draw(st.lists(st.sampled_from(reads), unique=True), label="keys") if reads else []
    fixed = {key: data.draw(FLOATS, label=key) for key in keys}
    with_file = bool(fixed) or data.draw(st.booleans(), label="empty file")
    _check_sweep(workdir, model, param, fixed, with_file, *bounds, steps)


def test_sweep_up_to_the_largest_float(workdir):
    """A fuzz counterexample: ``np.linspace(0, 1.797e308, 4)`` overflows in an
    intermediate product, whose last value it then overwrites; the sweep's grid
    stores ``hi`` instead, so no warning is raised."""
    _check_sweep(workdir, "kv", "eps0", {}, False, 0.0, 1.7976931348623157e308, 4)


def _check_biphasic(workdir, layer: dict, m: float, v0, run: bool, dt=None) -> None:
    out = workdir / "biphasic.csv"
    out.unlink(missing_ok=True)
    # ``--m=value`` so that argparse reads "-inf" as a value, not an option.
    argv = ["biphasic", "--params", _write(workdir / "layer.json", layer), f"--m={m!r}"]
    argv += [] if v0 is None else [f"--v0={v0!r}"]
    argv += ["--out", str(out)] + _dt_option(dt) if run else []
    code, stdout, err = _run(argv)
    _check_run(code, err)
    if code == 0:
        printed = [line.split(" = ")[1].split()[0] for line in stdout.splitlines()]
        assert all(math.isfinite(float(value)) for value in printed), stdout
        if run:
            _check_impact(err, out)


@pytest.mark.filterwarnings("default::UserWarning")  # a thick layer's one-line warning
@given(data=st.data(), m=FLOATS, v0=st.one_of(st.none(), FLOATS), run=st.booleans(),
       dt=st.one_of(st.none(), FLOATS))
@settings(deadline=None, max_examples=150, derandomize=True)
def test_biphasic(workdir, data, m, v0, run, dt):
    layer = {key: data.draw(FLOATS, label=key) for key in LAYER_KEYS}
    _check_biphasic(workdir, layer, m, v0, run, dt)


@pytest.mark.filterwarnings("default::UserWarning")  # the thick layer's warning, as in test_biphasic
def test_biphasic_prints_a_finite_loss_factor(workdir):
    """A fuzz counterexample: ``k`` is 7.3e-231 N/m, so ``2 omega0 b`` underflows, yet
    ``zeta = k / (2 omega0 b)`` prints its value, about 1.75e115, not inf."""
    layer = {"mu_s": 1.0, "lambda_s": 0.0, "kappa": 1.0, "h": 1.0, "a": 4.447000157792487e-58}
    _check_biphasic(workdir, layer, 1.0, None, False)


@pytest.mark.filterwarnings("default::UserWarning")  # the thick layer's warning, as in test_biphasic
def test_biphasic_prints_a_loss_factor_at_the_largest_float(workdir):
    """A fuzz counterexample: at the rounded ``omega0``, ``k / (2 omega0 b)`` is 3.8e-17
    relative above the largest float, less than half its ulp, so it rounds to it;
    ``2 omega0 b`` rounds 7.3e-17 low, so one division would overflow to inf."""
    layer = {"mu_s": 479.0, "lambda_s": 0.0, "kappa": 9.968774450594074e191, "h": 1.0, "a": 1.0}
    _check_biphasic(workdir, layer, 5.657581520993281e228, None, False)


@pytest.mark.filterwarnings("default::UserWarning")  # the thick layer's warning, as in test_biphasic
@pytest.mark.parametrize("layer, m", [
    # The exact zeta is about 4.5e309.
    ({"mu_s": 1.0, "lambda_s": 0.0, "kappa": 3e307, "h": 1.0, "a": 1.0}, 1875.0),
    # The dashpot b = k tau_R underflows to 0.
    ({"mu_s": 1.0, "lambda_s": 0.0, "kappa": 3.3e199, "h": 1.0, "a": 1e-50}, 1.0),
], ids=["past-the-largest-float", "dashpot-underflows"])
def test_biphasic_refuses_a_loss_factor_past_the_float_range(workdir, layer, m):
    """Each printed ``zeta = inf`` and exited 0; no float holds this loss factor."""
    code, stdout, err = _run(["biphasic", "--params", _write(workdir / "layer.json", layer),
                              f"--m={m!r}"])
    assert (code, stdout) == (2, "")
    assert len(_errors(err)) == 1


def _numbers(text: str) -> list[float]:
    """Every token of ``text`` that ``float`` reads, inf and nan included."""
    numbers = []
    for token in re.split(r"[\s,=():%\[\]]+", text):
        with contextlib.suppress(ValueError):
            numbers.append(float(token))
    return numbers


def _check_analyze(workdir, rows) -> None:
    table = workdir / "records.csv"
    table.write_text(",".join(EXPERIMENT_HEADER) + "\n"
                     + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    code, out, err = _run(["analyze", str(table)])
    _check_run(code, err)
    if code == 0:
        assert all(math.isfinite(x) for x in _numbers(out)), out


@given(data=st.data(), n=st.integers(2, 6))
@settings(deadline=None, max_examples=60, derandomize=True)
def test_analyze(workdir, data, n):
    _check_analyze(workdir, [[data.draw(FLOATS, label=column) for column in EXPERIMENT_HEADER]
                             for _ in range(n)])


def test_analyze_prints_finite_numbers_for_huge_records(workdir):
    """Valid records, found by hand: ``sigma_max / eps_max`` of the first and the mean of
    ``E_max`` overflowed, so ``analyze`` warned, printed ``inf`` and ``relative spread nan``
    and exited 0; now the quotient past the float range exits 2."""
    _check_analyze(workdir, [
        [25.0, 0.7, 86.0, 22.0, 75.0, 13.0, 1e300, 2.9, 1e-5, 0.06, 0.64, 0.08, 2.2],
        [50.0, 0.99, 1e302, 32.0, 71.0, 16.0, 1e301, 3.5, 0.6, 0.13, 0.46, 0.14, 2.5],
    ])
