"""Every sweep point is its model's scaled closed form at the printed grid value, bit for bit."""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from visco_impact import cli, maxwell, standard_solid
from visco_impact.cli import EXIT_DOMAIN, EXIT_OK, SWEEP_ASYM_HEADER, SWEEP_HEADER, main
from visco_impact.errors import DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import kv_drop_metrics_asymptotic, kv_metrics
from visco_impact.maxwell import mx_metrics
from visco_impact.models import ImpactMetrics, KelvinVoigtParams, MaxwellParams
from visco_impact.standard_solid import sls_perturb_kv, sls_perturb_maxwell


def _kv(eta, eps0=0.0):
    return KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=1.0, g=eps0)


def _mx(zeta, eps0=0.0):
    return MaxwellParams(m=1.0, k=1.0, b=0.5 / zeta, v0=1.0, g=eps0)


# form: (model, swept group, fixed group, the metrics at (value, fixed)): the unit
# parallel pair's params path, whose loss factor 2 eta / 2 is eta exactly, and the
# series pair's closed form at the grid zeta.
PAIR_SWEEPS = {
    "kv-eta": ("kv", "eta", None, lambda v, q: kv_metrics(_kv(v))),
    "kv-eps0": ("kv", "eps0", "eta", lambda v, q: kv_drop_metrics_asymptotic(_kv(q, v))),
    "maxwell-zeta": ("maxwell", "zeta", None,
                     lambda v, q: ImpactMetrics(*maxwell._scaled_metrics(v))),
    "maxwell-eps0": ("maxwell", "eps0", "zeta",
                     lambda v, q: ImpactMetrics(*maxwell._scaled_drop_asymptotic(q, v))),
}
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _sweep(model, sweep, fixed=None, header=SWEEP_HEADER):
    """Exit code, rows and stderr of ``sweep --model model --sweep sweep``."""
    argv = ["sweep", "--model", model, "--sweep", sweep]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if fixed is not None:
            path = Path(tmp) / "fixed.json"
            path.write_text(json.dumps(fixed))
            argv += ["--params", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert tuple(rows[0]) == header
    return code, np.array([[float(v) for v in row] for row in rows[1:]]), err.getvalue()


@pytest.mark.parametrize("form", PAIR_SWEEPS)
@given(lo=st.one_of(st.just(0.0), _UNIT), hi=_UNIT, steps=st.integers(2, 5), fixed=_UNIT)
# The unit series pair's zeta, 1 / (2 (0.5 / zeta)), is the grid value 0.011372 off
# by an ulp, and 0.013087 so far off that its restitution moves too.
@example(lo=0.011372, hi=0.5, steps=2, fixed=0.011372)
@example(lo=0.013087, hi=0.5, steps=2, fixed=0.013087)
# At zeta = 0.999999 e0 underflows, and the expansion refuses every eps0 > 0.
@example(lo=0.0, hi=0.5, steps=3, fixed=0.999999)
def test_cells_equal_the_params_path(form, lo, hi, steps, fixed):
    model, group, fixed_name, reference = PAIR_SWEEPS[form]
    assume(lo < hi and (lo > 0.0 or group == "eps0"))
    code, rows, _ = _sweep(model, f"{group}:{lo!r}:{hi!r}:{steps}",
                           {fixed_name: fixed} if fixed_name else None)
    skipped = False
    for value, *cells in rows:
        try:
            met = reference(value, fixed)
        except DomainError:
            assert np.isnan(cells).all()
            skipped = True
            continue
        assert tuple(cells) == (met.t_c, met.e_star, met.t_m, met.t_M, met.x_m, met.F_M)
    assert code == (EXIT_DOMAIN if skipped else EXIT_OK)


def test_maxwell_row_is_solved_at_the_grid_loss_factor():
    """The grid value 0.012997 is swept at itself, not at the unit pair's zeta, whose
    restitution differs from the grid value's in the last place."""
    zeta = 0.012997
    assert _mx(zeta).derived.zeta != zeta
    _, rows, _ = _sweep("maxwell", f"zeta:{zeta!r}:0.5:2")
    assert rows[0, 2] == maxwell._scaled_metrics(zeta)[1] != mx_metrics(_mx(zeta)).e_star


def _sls_groups(form, value, fixed):
    """``(Lambda, rho, T)`` of an sls point: its groups and its relaxation time in the
    row's unit, by the formulas of ``params_from_groups``, ``params_near_kv`` and
    ``params_near_maxwell``."""
    if form == "Lambda":
        return value, fixed, math.sqrt(value)
    if form == "rho-eta":
        T = 2.0 * fixed * value * (1.0 - value)
        return 4.0 * fixed**2 * value * (1.0 - value) ** 2, value, T
    T = (1.0 - value) / (2.0 * fixed)
    return T * T, value, T


# form: (swept group, fixed group, the first-order expansion's columns or None)
SLS_SWEEPS = {
    "Lambda": ("Lambda", "rho", None),
    "rho-eta": ("rho", "eta", sls_perturb_kv),
    "rho-zeta": ("rho", "zeta", sls_perturb_maxwell),
}


@pytest.mark.parametrize("form", SLS_SWEEPS)
@given(lo=_UNIT, hi=_UNIT, steps=st.integers(2, 5), fixed=_UNIT)
# params_from_groups(0.3, 0.1) has Lambda = 0.2999999999999998.
@example(lo=0.3, hi=0.5, steps=2, fixed=0.1)
# Lambda * rho underflows at rho = 1e-320 near the parallel pair.
@example(lo=1e-320, hi=0.5, steps=2, fixed=0.3)
def test_sls_cells_are_the_closed_form_at_the_grid_groups(form, lo, hi, steps, fixed):
    """Each row is ``standard_solid._scaled_metrics`` at the grid value's groups, in
    relaxation times, scaled by ``T`` at unit mass and speed."""
    group, fixed_name, expansion = SLS_SWEEPS[form]
    assume(lo < hi)
    header = SWEEP_HEADER if expansion is None else SWEEP_ASYM_HEADER
    code, rows, _ = _sweep("sls", f"{group}:{lo!r}:{hi!r}:{steps}", {fixed_name: fixed}, header)
    want_code = EXIT_OK
    for value, *cells in rows.tolist():
        Lambda, rho, T = _sls_groups(form, value, fixed)
        try:
            tau_c, e_star, tau_m, xi_m, tau_M, f_M, *_ = standard_solid._scaled_metrics(Lambda, rho)
            want = [tau_c * T, e_star, tau_m * T, tau_M * T, T * xi_m, 1.0 / T * f_M]
            if not all(map(math.isfinite, want)):
                raise DomainError("a metric is not finite")
        except (DomainError, PlasticImpactError) as exc:
            assert np.isnan(cells).all()
            want_code = min(want_code or exc.exit_code, exc.exit_code)
            continue
        if expansion is not None:
            want += expansion(fixed, rho)
        assert cells == want
    assert code == want_code


def test_sls_points_walk_through_the_module_name(monkeypatch):
    """An sls point walks through ``standard_solid.first_force_zero``, looked up at call
    time, which the benchmark's traced pass wraps: t_c, t_m and t_M per point."""
    calls, walk = [], standard_solid.first_force_zero
    monkeypatch.setattr(standard_solid, "first_force_zero", lambda *a: calls.append(a) or walk(*a))
    code, rows, _ = _sweep("sls", "Lambda:0.5:1.0:2", {"rho": 0.5})
    assert code == EXIT_OK and np.isfinite(rows).all() and len(calls) == 3 * 2


def _called_names(node):
    """The name of every function that a call under ``node`` calls."""
    return {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)} - {None}


def test_no_sweep_point_builds_params_or_metrics():
    """No ``_MODELS`` sweep point, nor a ``cli`` function it calls, constructs a params
    object or :class:`ImpactMetrics`, or calls a ``params_*`` helper or a public
    ``*_metrics``: each is its model's scaled closed form."""
    tree = ast.parse(Path(cli.__file__).read_text())
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", "") == "_MODELS")
    points = [entry.elts[1] for model in table.values for kw in model.keywords
              if kw.arg == "sweeps" for entry in kw.value.values]
    assert len(points) == 6
    called, todo = set(), [helpers.get(getattr(p, "id", None), p) for p in points]
    while todo:
        for name in _called_names(todo.pop()) - called:
            called.add(name)
            if name in helpers:
                todo.append(helpers[name])
    forbidden = {name for name in called if name.endswith(("Params", "ImpactMetrics"))
                 or name.startswith("params_") or name.endswith("_metrics") and name[0] != "_"}
    assert forbidden == set()
    assert {"_scaled_metrics", "_scaled_drop_asymptotic", "rescaled"} <= called


@pytest.mark.parametrize("sweep, fixed", [
    ("zeta:5e-324:1e-323:2", None),
    ("eps0:0:0.2:3", {"zeta": 5e-324}),
], ids=["zeta", "eps0"])
def test_subnormal_loss_factor_writes_the_elastic_row(sweep, fixed):
    """At a subnormal zeta the series pair's closed form is its elastic limit to
    the last place: t_c = pi (plus 2 eps0), e* = 1."""
    code, rows, err = _sweep("maxwell", sweep, fixed)
    assert (code, err) == (EXIT_OK, "")
    half = 0.5 * math.pi
    for value, *cells in rows:
        t_c = math.pi + 2.0 * value if fixed else math.pi
        assert cells == [t_c, 1.0, half, half, 1.0, 1.0]


def test_overflowing_weight_point_is_skipped():
    code, rows, err = _sweep("kv", "eps0:0:1e308:3")
    assert code == EXIT_DOMAIN
    assert err == "eps0 = 1e+308 skipped: the metric t_c = inf must be finite\n"
    assert np.isfinite(rows[:2]).all() and np.isnan(rows[2, 1:]).all()
