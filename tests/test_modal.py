"""The modal layer: every model's history starts exactly, and the pairs' modes
give the paper's closed-form metrics."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from visco_impact import _modal, kelvin_voigt, maxwell
from visco_impact.errors import DiscriminantError, DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import kv_drop_trajectory, kv_metrics, kv_trajectory
from visco_impact.maxwell import mx_drop_trajectory, mx_metrics, mx_trajectory
from visco_impact.models import KelvinVoigtParams, MaxwellParams, StandardSolidParams
from visco_impact.standard_solid import (
    params_from_groups,
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
    equal the paper's closed forms; kv's force peaks inside only below 1/2."""
    for cls, module, closed in ((KelvinVoigtParams, kelvin_voigt, kv_metrics),
                                (MaxwellParams, maxwell, mx_metrics)):
        params = _pair(cls, loss, 1.0, 1.0, 1.0, 0.0)
        got, want = _modal.metrics(*module._model(params), params, 0.0), closed(params)
        fields = ["t_c", "e_star", "t_m", "x_m"]
        if cls is MaxwellParams or loss < 0.5:
            fields += ["t_M", "F_M"]
        for name in fields:
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
