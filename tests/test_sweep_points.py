"""kv and maxwell sweep points: the unit pair's scaled closed forms, bit for bit."""

from __future__ import annotations

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

from visco_impact.cli import EXIT_DOMAIN, EXIT_OK, SWEEP_HEADER, main
from visco_impact.errors import DomainError
from visco_impact.kelvin_voigt import kv_drop_metrics_asymptotic, kv_metrics
from visco_impact.maxwell import mx_drop_metrics_asymptotic, mx_metrics
from visco_impact.models import KelvinVoigtParams, MaxwellParams


def _kv(eta, eps0=0.0):
    return KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=1.0, g=eps0)


def _mx(zeta, eps0=0.0):
    return MaxwellParams(m=1.0, k=1.0, b=0.5 / zeta, v0=1.0, g=eps0)


# form: (model, swept group, fixed group, the params path's metrics at (value, fixed))
PAIR_SWEEPS = {
    "kv-eta": ("kv", "eta", None, lambda v, q: kv_metrics(_kv(v))),
    "kv-eps0": ("kv", "eps0", "eta", lambda v, q: kv_drop_metrics_asymptotic(_kv(q, v))),
    "maxwell-zeta": ("maxwell", "zeta", None, lambda v, q: mx_metrics(_mx(v))),
    "maxwell-eps0": ("maxwell", "eps0", "zeta",
                     lambda v, q: mx_drop_metrics_asymptotic(_mx(q, v))),
}
_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _sweep(model, sweep, fixed=None):
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
    assert tuple(rows[0]) == SWEEP_HEADER
    return code, np.array([[float(v) for v in row] for row in rows[1:]]), err.getvalue()


@pytest.mark.parametrize("form", PAIR_SWEEPS)
@given(lo=st.one_of(st.just(0.0), _UNIT), hi=_UNIT, steps=st.integers(2, 5), fixed=_UNIT)
# The series pair's round trip 1 / (2 (0.5 / zeta)) moves zeta = 0.011372 by an ulp,
# and zeta = 0.013087 so far that its restitution moves too.
@example(lo=0.011372, hi=0.5, steps=2, fixed=0.011372)
@example(lo=0.013087, hi=0.5, steps=2, fixed=0.013087)
# At zeta = 0.999999 e0 underflows, and the expansion refuses every eps0 > 0.
@example(lo=0.0, hi=0.5, steps=3, fixed=0.999999)
def test_cells_equal_the_params_path(form, lo, hi, steps, fixed):
    model, group, fixed_name, reference = PAIR_SWEEPS[form]
    assume(lo < hi and (lo > 0.0 or group == "eps0"))
    # Where the series pair's dashpot 0.5 / zeta overflows, only the sweep has a row.
    assume(model == "kv" or 0.5 / (fixed if group == "eps0" else lo) < math.inf)
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


def test_round_trip_moves_the_maxwell_loss_factor():
    """The grid value 0.013087 is swept at the unit pair's zeta, whose restitution
    differs from the grid value's in the last place."""
    zeta = 0.013087
    assert _mx(zeta).derived.zeta == 1.0 / (2.0 * (0.5 / zeta)) != zeta
    _, rows, _ = _sweep("maxwell", f"zeta:{zeta!r}:0.5:2")
    e_star = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
    assert rows[0, 2] == mx_metrics(_mx(zeta)).e_star != e_star


@pytest.mark.parametrize("sweep, fixed", [
    ("zeta:5e-324:1e-323:2", None),
    ("eps0:0:0.2:3", {"zeta": 5e-324}),
], ids=["zeta", "eps0"])
def test_subnormal_loss_factor_writes_the_elastic_row(sweep, fixed):
    """Below about 2.8e-309 the unit pair's dashpot 0.5 / zeta overflows and the
    round trip gives zeta = 0: the elastic limit, t_c = pi (plus 2 eps0), e* = 1."""
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
