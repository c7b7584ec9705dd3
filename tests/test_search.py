"""Contact end from the modal form: the half-period walk of ``_search``."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from visco_impact import _search, maxwell
from visco_impact.cli import EXIT_PLASTIC, main
from visco_impact.errors import DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import kv_drop_trajectory, kv_find_critical_eps0
from visco_impact.maxwell import mx_drop_metrics_asymptotic, mx_drop_trajectory, mx_metrics
from visco_impact.models import KelvinVoigtParams, MaxwellParams
from visco_impact.oracle import RelaxationKernel, integrate_impact
from visco_impact.standard_solid import (
    _scaled_solution,
    params_from_groups,
    sls_characteristic_roots,
    sls_metrics,
)

# Dense reference: this many samples per oscillation period, then Brent on
# the first sign change after the force turns positive.
_DENSE_PER_PERIOD = 20_000


def _dense_first_zero(force, period: float, horizon: float) -> float | None:
    """First zero of ``force`` after it turns positive, or None within ``horizon``."""
    t = np.linspace(0.0, horizon, int(_DENSE_PER_PERIOD * horizon / period) + 1)
    F = force(t)
    pos = np.flatnonzero(F > 0.0)
    if pos.size == 0:
        return None
    neg = np.flatnonzero(F[pos[0]:] <= 0.0)
    if neg.size == 0:
        return None
    j = pos[0] + neg[0]
    if F[j] == 0.0:
        return float(t[j])
    return brentq(lambda s: float(force(s)), t[j - 1], t[j], xtol=1e-30, rtol=1e-15)


def _kv_force(p: KelvinVoigtParams):
    """``k x + b xdot`` of ``m x'' + b x' + k x = m g``, ``x(0) = 0, x'(0) = v0``."""
    beta = p.b / (2.0 * p.m)
    omega = math.sqrt(p.k / p.m - beta**2)
    c1 = -p.m * p.g / p.k
    c2 = (p.v0 + beta * c1) / omega

    def force(t):
        e, s, c = np.exp(-beta * t), np.sin(omega * t), np.cos(omega * t)
        x = e * (c1 * c + c2 * s) - c1
        xdot = e * ((omega * c2 - beta * c1) * c - (omega * c1 + beta * c2) * s)
        return p.k * x + p.b * xdot

    return force, 2.0 * math.pi / omega


def _mx_force(p: MaxwellParams):
    """``F'' + (k/b) F' + (k/m) F = k g`` with ``F(0) = 0, F'(0) = k v0``."""
    beta = p.k / (2.0 * p.b)
    omega = math.sqrt(p.k / p.m - beta**2)
    mg = p.m * p.g

    def force(t):
        e = np.exp(-beta * t)
        return mg + e * (-mg * np.cos(omega * t) + (p.k * p.v0 - beta * mg) / omega * np.sin(omega * t))

    return force, 2.0 * math.pi / omega


def _separation(traj_fn, params):
    try:
        return traj_fn(params, n_samples=2).t_c
    except PlasticImpactError:
        return None


def _assert_same_end(walk, dense):
    assert (walk is None) == (dense is None), (walk, dense)
    if walk is not None:
        assert walk == pytest.approx(dense, rel=1e-12)


@st.composite
def _kv_drops(draw):
    """Loss factor and gravity ratio, half the draws within 1e-3 of the threshold."""
    eta = draw(st.floats(min_value=0.02, max_value=0.95))
    if draw(st.booleans()):
        eps0 = kv_find_critical_eps0(eta) * (1.0 + draw(st.sampled_from((-1e-3, 1e-3))))
    else:
        eps0 = 10.0 ** draw(st.floats(min_value=-4.0, max_value=0.0))
    return eta, eps0


class TestDenseReference:
    """The walk and a dense scan agree on the outcome, ``t_c`` and the peak times."""

    @given(drop=_kv_drops(), v0=st.floats(min_value=0.1, max_value=10.0))
    @settings(deadline=None, max_examples=60)
    def test_parallel_pair_drop(self, drop, v0):
        eta, eps0 = drop
        p = KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=v0, g=eps0 * v0)
        force, period = _kv_force(p)
        dense = _dense_first_zero(force, period, _search.SCAN_HORIZON_PERIODS * period)
        _assert_same_end(_separation(kv_drop_trajectory, p), dense)

    @given(
        zeta=st.floats(min_value=0.02, max_value=0.95),
        log_eps0=st.floats(min_value=-4.0, max_value=0.0),
        m=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_series_pair_drop(self, zeta, log_eps0, m):
        k, v0 = 4.0, 0.7
        omega0 = math.sqrt(k / m)
        p = MaxwellParams(m=m, k=k, b=m * omega0 / (2.0 * zeta), v0=v0,
                          g=10.0**log_eps0 * omega0 * v0)
        force, period = _mx_force(p)
        dense = _dense_first_zero(force, period, _search.SCAN_HORIZON_PERIODS * period)
        _assert_same_end(_separation(mx_drop_trajectory, p), dense)

    @given(
        log_lambda=st.floats(min_value=-2.0, max_value=2.0),
        rho=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(deadline=None, max_examples=60)
    def test_three_element_contact_end_and_peaks(self, log_lambda, rho):
        Lam = 10.0**log_lambda
        roots = np.roots([1.0, 1.0, Lam, Lam * rho])
        # Outside the dead window and the small-discriminant region.
        assume(np.max(np.abs(roots.imag)) >= 1e-2)
        _assert_three_element_roots(Lam, rho)


def _assert_three_element_roots(Lam: float, rho: float):
    """Contact end and both peak times against the dense reference."""
    params = params_from_groups(Lam, rho)
    r = sls_characteristic_roots(Lam, rho)
    _, xi_d, xi_dd = _scaled_solution(r)
    period = 2.0 * math.pi / r.zeta1
    tau_c = _dense_first_zero(lambda tau: -xi_dd(tau), period,
                              _search.SCAN_HORIZON_PERIODS * period)
    tau_m = _dense_first_zero(xi_d, period, tau_c)
    tau_M = _dense_first_zero(lambda tau: -xi_dd.derivative()(tau), period, tau_c)
    met, tau_R = sls_metrics(params), params.derived.tau_R
    assert met.t_c == pytest.approx(tau_c * tau_R, rel=1e-12)
    assert met.t_m == pytest.approx(tau_m * tau_R, rel=1e-12)
    assert met.t_M == pytest.approx(tau_M * tau_R, rel=1e-12)


@pytest.mark.parametrize("Lam, rho", [(1.68e-4, 4.8e-3), (3.75e-6, 0.842), (1.96e-5, 5.27e-5)])
def test_three_element_peaks_when_relaxation_is_fast(Lam, rho):
    """At small Lambda the exponential term of the force rate underflows by the
    sine's first zero; the force peak is at that zero, not a period later."""
    _assert_three_element_roots(Lam, rho)


def _small_discriminant_lattice():
    """Points just outside the ``D <= 0`` window, where ``zeta1`` is tiny."""
    points = []
    for rho in (0.005, 0.02, 0.05, 0.09):
        b = 1.0 + 18.0 * rho - 27.0 * rho**2
        root = math.sqrt(b * b - 64.0 * rho)
        lo, hi = (b - root) / 8.0, (b + root) / 8.0
        for d in (1e-2, 1e-4, 1e-6):
            for Lam in (lo * (1.0 - d), hi * (1.0 + d)):
                if sls_characteristic_roots(Lam, rho).zeta1 < 1e-2:
                    points.append((Lam, rho))
    return points


@pytest.mark.parametrize("Lam, rho", _small_discriminant_lattice())
def test_small_discriminant_matches_oracle(Lam, rho):
    """A half period spans about 1e4 relaxation times here; F underflows long before."""
    params = params_from_groups(Lam, rho)
    met = sls_metrics(params)
    traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
    assert met.t_c == pytest.approx(traj.t_c, abs=1e-9)
    assert met.e_star == pytest.approx(-traj.xdot[-1], abs=1e-9)


def test_small_discriminant_lattice_size():
    assert len(_small_discriminant_lattice()) == 18


class _CountingMode(_search.DampedMode):
    """A mode that counts its evaluations."""

    def __init__(self, mode):
        super().__init__(mode.beta, mode.omega, mode.A, mode.B, mode.c, mode.lam)
        self.evaluations = 0

    def __call__(self, t):
        self.evaluations += 1
        return super().__call__(t)

    def scaled(self, *args):
        self.evaluations += 1
        return super().scaled(*args)


@pytest.mark.parametrize("eps0", [1e-4, 1e-3])
def test_near_critical_embedding_is_proved_in_few_evaluations(monkeypatch, eps0):
    modes = []

    def counted(force, period, horizon):
        modes.append(_CountingMode(force))
        return _search.first_force_zero(modes[-1], period, horizon)

    monkeypatch.setattr(maxwell, "first_force_zero", counted)
    p = MaxwellParams(m=1.0, k=1.0, b=0.5 / 0.99, v0=1.0, g=eps0)
    with pytest.raises(PlasticImpactError, match="stays embedded"):
        mx_drop_trajectory(p, n_samples=50)
    assert len(modes) == 1
    assert 0 < modes[0].evaluations < 100


class TestCriticalDamping:
    """At zeta = 0.999999 the zero-gravity restitution underflows to 0."""

    @staticmethod
    def _params(eps0: float) -> MaxwellParams:
        return MaxwellParams(m=1.0, k=1.0, b=0.5 / 0.999999, v0=1.0, g=eps0)

    def test_zero_gravity_drop_matches_closed_form(self):
        t_c = mx_metrics(self._params(0.0)).t_c
        assert t_c == pytest.approx(2221.44, rel=1e-5)
        assert mx_drop_trajectory(self._params(0.0), n_samples=3).t_c == pytest.approx(
            t_c, rel=1e-12
        )

    def test_weight_embeds(self):
        with pytest.raises(PlasticImpactError):
            mx_drop_trajectory(self._params(1e-4), n_samples=3)

    def test_expansion_is_typed(self):
        assert mx_drop_metrics_asymptotic(self._params(0.0)) == mx_metrics(self._params(0.0))
        with pytest.raises(DomainError, match="underflows"):
            mx_drop_metrics_asymptotic(self._params(1e-4))

    def test_cli_exits_plastic_without_traceback(self, tmp_path, capsys):
        """The drop trajectory proves the impact plastic before the expansion fails."""
        path = tmp_path / "mx.json"
        path.write_text(json.dumps({"m": 1.0, "k": 1.0, "b": 0.5 / 0.999999, "v0": 1.0}))
        assert main(["simulate", "maxwell", "--params", str(path), "--gravity"]) == EXIT_PLASTIC
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
