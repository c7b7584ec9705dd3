"""The modal layer: every model's history starts exactly, and the pairs' modes
give the paper's closed-form metrics."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from visco_impact import _modal, kelvin_voigt, maxwell
from visco_impact.errors import DiscriminantError, DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import (
    kv_drop_metrics,
    kv_drop_metrics_asymptotic,
    kv_drop_trajectory,
    kv_metrics,
    kv_trajectory,
)
from visco_impact.maxwell import (
    mx_drop_metrics_asymptotic,
    mx_drop_trajectory,
    mx_metrics,
    mx_trajectory,
)
from visco_impact.models import KelvinVoigtParams, MaxwellParams, StandardSolidParams
from visco_impact.standard_solid import (
    params_from_groups,
    sls_drop_metrics,
    sls_drop_trajectory,
    sls_metrics,
    sls_perturb_kv,
    sls_perturb_maxwell,
    sls_trajectory,
)


def _log(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda u: 10.0**u)


def _pair(cls, loss, m, k, v0, eps0):
    omega0 = math.sqrt(k / m)
    b = 2.0 * loss * m * omega0 if cls is KelvinVoigtParams else k / (2.0 * omega0 * loss)
    return cls(m=m, k=k, b=b, v0=v0, g=eps0 * omega0 * v0)


@given(
    model=st.sampled_from(("kv", "maxwell", "sls")),
    loss=st.floats(0.01, 0.95),
    Lam=_log(-2.0, 2.0),
    rho=st.floats(0.05, 0.95),
    m=_log(-3.0, 3.0),
    k=_log(-3.0, 3.0),
    v0=_log(-3.0, 3.0),
    eps0=st.one_of(st.just(0.0), _log(-4.0, -1.0)),
)
@settings(deadline=None, max_examples=300, derandomize=True)
def test_histories_start_exactly(model, loss, Lam, rho, m, k, v0, eps0):
    """``x = 0`` and ``xdot = v0`` at ``t = 0`` for every model; the series pair
    and the three-element solid also start at ``F = 0`` and ``xddot = g``."""
    if model == "sls":
        try:
            free = params_from_groups(Lam, rho, m=m, v0=v0)
        except DiscriminantError:
            assume(False)
        params = StandardSolidParams(m=m, k1=free.k1, k2=free.k2, b=free.b, v0=v0,
                                     g=eps0 * v0 / free.derived.tau_R)
    else:
        cls = KelvinVoigtParams if model == "kv" else MaxwellParams
        params = _pair(cls, loss, m, k, v0, eps0)
    run = {
        "kv": (kv_trajectory, kv_drop_trajectory),
        "maxwell": (mx_trajectory, mx_drop_trajectory),
        "sls": (sls_trajectory, sls_drop_trajectory),
    }[model][eps0 > 0.0]
    try:
        traj = run(params, n_samples=3)
    except (PlasticImpactError, DiscriminantError):
        assume(False)
    assert traj.x[0] == 0.0
    assert traj.xdot[0] == v0
    if model != "kv":
        assert traj.F[0] == 0.0
        assert traj.xddot[0] == params.g


@given(loss=st.floats(0.01, 0.95))
@settings(deadline=None, max_examples=100, derandomize=True)
def test_pair_modes_give_the_closed_form_metrics(loss):
    """The layer's metrics on each pair's scaled modes, at unit m, k and v0,
    equal the paper's closed forms; from 1/2 on, kv's force peaks at t = 0."""
    for cls, module, closed in ((KelvinVoigtParams, kelvin_voigt, kv_metrics),
                                (MaxwellParams, maxwell, mx_metrics)):
        params = _pair(cls, loss, 1.0, 1.0, 1.0, 0.0)
        got, want = _modal.metrics(*module._model(params), params, 0.0), closed(params)
        for name in ("t_c", "e_star", "t_m", "x_m", "t_M", "F_M"):
            expected = pytest.approx(getattr(want, name), rel=1e-14, abs=0.0)
            assert getattr(got, name) == expected, name


def test_zeros_early_in_the_period_keep_their_digits():
    """A zero early in its sine's period: the walk's phase there must not lose
    ulp(pi), as ``phi - pi`` would.  The references are 50-digit roots."""
    params = KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * (1.0 - 1e-7), v0=1.0, g=1e-6)
    assert kv_drop_trajectory(params, n_samples=2).t_c == pytest.approx(
        2.0000084557921601105, rel=1e-15, abs=0.0)
    met = sls_metrics(params_from_groups(0.1793653, 0.05))
    assert met.t_c == pytest.approx(8.080828967198009962, rel=1e-15, abs=0.0)
    assert met.t_m == pytest.approx(4.1134336172011337226, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("perturb", [sls_perturb_kv, sls_perturb_maxwell])
@pytest.mark.parametrize("rho", [-5.0, -1e-300, 1.0, 7.0, math.nan, math.inf, -math.inf])
def test_expansions_refuse_rho_outside_zero_to_one(perturb, rho):
    with pytest.raises(DomainError, match=r"rho must lie in \[0, 1\)"):
        perturb(0.3, rho)


@pytest.mark.parametrize("perturb", [sls_perturb_kv, sls_perturb_maxwell])
def test_expansions_keep_the_pair_limit(perturb):
    assert perturb(0.3, 0.0) == perturb(0.3, -0.0)


@pytest.mark.parametrize(
    "params, run",
    [
        # A three-element fuzz input: v0 tau_R and m v0 / tau_R overflow.
        (StandardSolidParams(m=7.180750831670816e240, k1=2.8452084274228e58,
                             k2=1.0809254475856645e-08, b=3.2979756010946127e135,
                             v0=3.1790135901383877e295), sls_metrics),
        (StandardSolidParams(m=7.180750831670816e240, k1=2.8452084274228e58,
                             k2=1.0809254475856645e-08, b=3.2979756010946127e135,
                             v0=3.1790135901383877e295), sls_trajectory),
        # v0 / omega0 overflows.
        (KelvinVoigtParams(m=1e10, k=1e-10, b=0.6, v0=1e300), kv_trajectory),
        # The closed forms scale through the same check: x_m = inf before.
        (KelvinVoigtParams(m=1e10, k=1e-10, b=0.6, v0=1e300), kv_metrics),
        (KelvinVoigtParams(m=1e10, k=1e-10, b=0.6, v0=1e300), kv_drop_metrics_asymptotic),
        (MaxwellParams(m=1e10, k=1e-10, b=2.0, v0=1e300), mx_metrics),
        (MaxwellParams(m=1e10, k=1e-10, b=2.0, v0=1e300), mx_drop_metrics_asymptotic),
    ],
    ids=["sls-metrics", "sls-trajectory", "kv-trajectory", "kv-metrics", "kv-asymptotic",
         "mx-metrics", "mx-asymptotic"],
)
def test_scales_that_overflow_are_refused(params, run):
    """A length, speed or force scale that overflows would make every sample inf or NaN."""
    with pytest.raises(DomainError, match=r"^the scales v0 T = .* must be finite$"):
        run(params)


# Two finite-scale inputs whose answers overflow: the three-element force
# coefficient 4.7e75 times v0 / tau_R = 3.05e240, and the parallel pair's metrics
# when eta underflows to 0 under eps0 = 2.1e245.
SLS_OVERFLOW = StandardSolidParams(m=7.4547670406883e-243, k1=4.302636000876517e20,
                                   k2=4.74087973088285e-267, b=8.493115740269468e-36,
                                   v0=6.012859747615757e184, g=9.81)
KV_OVERFLOW = KelvinVoigtParams(m=1.7231091728062788e228, k=1.522582502149621e-88,
                                b=2.273619399013645e-251, v0=4.856383134518119e-87, g=9.81)


def test_sampled_coefficients_that_overflow_are_refused():
    """NaN cells before; the metrics, each finite, still stand."""
    message = r"^a mode coefficient times its scale .* must be finite$"
    with pytest.raises(DomainError, match=message):
        sls_drop_trajectory(SLS_OVERFLOW)
    assert all(map(math.isfinite, vars(sls_drop_metrics(SLS_OVERFLOW)).values()))


def test_metrics_that_overflow_are_refused():
    """``e_star = 5.4e238`` and ``x_m = inf`` before."""
    with pytest.raises(DomainError, match=r"^the metric x_m = inf must be finite$"):
        kv_drop_metrics(KV_OVERFLOW)


@pytest.mark.parametrize("module", [kelvin_voigt, maxwell], ids=["kelvin_voigt", "maxwell"])
def test_pair_closed_forms_read_only_derived_groups(module):
    """The pair modules work in omega0 units: only :mod:`._modal` reads the
    mass, stiffness, damping or speed, to scale its answers."""
    tree = ast.parse(Path(module.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & {"m", "k", "b", "v0"}
