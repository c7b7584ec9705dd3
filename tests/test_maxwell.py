"""Series spring-dashpot impact: relaxation, permanent set, and drop tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from visco_impact.errors import PlasticImpactError
from visco_impact.maxwell import (
    mx_drop_metrics_asymptotic,
    mx_drop_trajectory,
    mx_metrics,
    mx_trajectory,
)
from visco_impact.models import MaxwellParams

zetas = st.floats(min_value=1e-3, max_value=0.97)


def _params(zeta: float, m=1.0, k=1.0, v0=1.0, g=0.0) -> MaxwellParams:
    return MaxwellParams(m=m, k=k, b=math.sqrt(k * m) / (2.0 * zeta), v0=v0, g=g)


class TestMetrics:
    def test_reference_values_half(self):
        """Unit-scale metrics at zeta = 0.5, frozen from the closed forms."""
        met = mx_metrics(_params(0.5))
        assert met.t_c == pytest.approx(3.6275987284684357, rel=1e-13)
        assert met.e_star == pytest.approx(0.16303353482158048, rel=1e-13)
        assert met.t_m == pytest.approx(2.4183991523122907, rel=1e-13)
        assert met.x_m == pytest.approx(1.2984360591922748, rel=1e-13)
        assert met.F_m == pytest.approx(0.29843605919227484, rel=1e-13)
        assert met.t_M == pytest.approx(1.2091995761561452, rel=1e-13)
        assert met.F_M == pytest.approx(0.5462930158736014, rel=1e-13)
        assert met.x_M == pytest.approx(1.0, rel=1e-13)

    def test_reference_values_light(self):
        met = mx_metrics(_params(0.3))
        assert met.t_c == pytest.approx(3.293283941915154, rel=1e-13)
        assert met.e_star == pytest.approx(0.3723261049265864, rel=1e-13)
        assert met.t_M == pytest.approx(1.3272372818926783, rel=1e-13)

    @given(zeta=zetas)
    @settings(deadline=None)
    def test_contact_time_formula_bit_exact(self, zeta):
        params = _params(zeta)
        met = mx_metrics(params)
        assert met.t_c == math.pi / params.derived.omega

    @given(zeta=zetas)
    @settings(deadline=None)
    def test_restitution_closed_form(self, zeta):
        met = mx_metrics(_params(zeta))
        expected = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta**2))
        assert met.e_star == pytest.approx(expected, rel=1e-14)
        assert 0.0 < met.e_star < 1.0

    @given(zeta=zetas)
    @settings(deadline=None)
    def test_permanent_set_after_separation(self, zeta):
        """The dashpot keeps a residual indentation (2 zeta v0/omega0)(1+e)."""
        met = mx_metrics(_params(zeta))
        traj = mx_trajectory(_params(zeta), n_samples=50)
        assert traj.x[-1] == pytest.approx(2.0 * zeta * (1.0 + met.e_star), rel=1e-12)
        assert met.x_m > traj.x[-1]

    @given(
        zeta=zetas,
        m=st.floats(min_value=1e-2, max_value=1e2),
        k=st.floats(min_value=1e-2, max_value=1e4),
        v0=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(deadline=None, max_examples=60)
    def test_scaling_invariance(self, zeta, m, k, v0):
        unit = mx_metrics(_params(zeta))
        met = mx_metrics(_params(zeta, m=m, k=k, v0=v0))
        omega0 = math.sqrt(k / m)
        assert omega0 * met.t_c == pytest.approx(unit.t_c, rel=1e-9)
        assert met.e_star == pytest.approx(unit.e_star, rel=1e-9)
        assert omega0 * met.x_m / v0 == pytest.approx(unit.x_m, rel=1e-9)
        assert met.F_M / (m * v0 * omega0) == pytest.approx(unit.F_M, rel=1e-9)


class TestTrajectory:
    def test_equation_of_motion_residual(self):
        """The hereditary balance reduces to m xddot = -F with F dot = k xdot - F / tau_R."""
        params = _params(0.4, m=2.0, k=50.0, v0=1.3)
        traj = mx_trajectory(params, n_samples=800)
        assert np.max(np.abs(params.m * traj.xddot + traj.F)) < 1e-12 * params.k
        Fdot = np.gradient(traj.F, traj.times)
        target = params.k * traj.xdot - traj.F * params.k / params.b
        interior = slice(2, -2)
        scale = params.k * params.v0
        assert np.max(np.abs(Fdot[interior] - target[interior])) < 1e-3 * scale

    def test_boundary_conditions(self):
        params = _params(0.3, v0=2.0)
        met = mx_metrics(params)
        traj = mx_trajectory(params, n_samples=300)
        assert traj.x[0] == 0.0
        assert traj.xdot[0] == pytest.approx(params.v0, rel=1e-15)
        assert abs(traj.F[-1]) < 1e-12 * met.F_M
        assert traj.xdot[-1] == pytest.approx(-met.e_star * params.v0, rel=1e-12)

    def test_force_positive_during_contact(self):
        traj = mx_trajectory(_params(0.8), n_samples=500)
        assert np.all(traj.F[1:-1] > 0.0)


class TestDrop:
    def test_zero_gravity_matches_plain_trajectory(self):
        """With g = 0 the drop solver recovers the half-period contact.

        Its termination comes from a root search rather than the closed
        form, so agreement holds to solver precision, not bit-exactly.
        """
        params = _params(0.3)
        plain = mx_trajectory(params, n_samples=200)
        drop = mx_drop_trajectory(params, n_samples=200)
        assert drop.t_c == pytest.approx(plain.t_c, rel=1e-12)
        assert np.allclose(drop.x, plain.x, rtol=0.0, atol=1e-12)
        assert np.allclose(drop.F, plain.F, rtol=0.0, atol=1e-12)

    def test_initial_conditions_exact(self):
        params = _params(0.3, g=0.05)
        traj = mx_drop_trajectory(params, n_samples=200)
        assert traj.x[0] == 0.0
        assert traj.xdot[0] == params.v0
        assert traj.xddot[0] == params.g

    @given(
        zeta=st.floats(min_value=0.01, max_value=0.9, exclude_min=True, exclude_max=True),
        eps0=st.floats(min_value=1e-4, max_value=0.1),
        m=st.floats(min_value=1e-2, max_value=1e2),
        k=st.floats(min_value=1e-2, max_value=1e4),
        v0=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(deadline=None, max_examples=60)
    def test_superposition_starts_exactly(self, zeta, eps0, m, k, v0):
        """The free and the weight responses each vanish at t = 0.

        So the drop history starts at exactly ``x = 0, xdot = v0,
        xddot = g`` for any scales, not just to rounding.
        """
        params = _params(zeta, m=m, k=k, v0=v0, g=eps0 * math.sqrt(k / m) * v0)
        try:
            traj = mx_drop_trajectory(params, n_samples=3)
        except PlasticImpactError:
            assume(False)
        assert traj.x[0] == 0.0
        assert traj.xdot[0] == params.v0
        assert traj.xddot[0] == params.g

    def test_force_rate_balance(self):
        """F dot = k (xdot - F / b) must hold with the weight included."""
        params = _params(0.35, g=0.03)
        traj = mx_drop_trajectory(params, n_samples=4000)
        Fdot = np.gradient(traj.F, traj.times)
        target = params.k * (traj.xdot - traj.F / params.b)
        interior = slice(2, -2)
        assert np.max(np.abs(Fdot[interior] - target[interior])) < 1e-3 * params.k

    def test_asymptotic_tracks_numeric_drop(self):
        """Duration residual is quadratic in eps0, restitution only linear.

        The restitution correction still has to beat the zero-gravity
        value at every eps0 probed.
        """
        e0 = mx_metrics(_params(0.3)).e_star
        residuals_t = []
        for g in (0.02, 0.01):
            params = _params(0.3, g=g)
            traj = mx_drop_trajectory(params, n_samples=2000)
            met = mx_drop_metrics_asymptotic(params)
            residuals_t.append(abs(met.t_c - traj.t_c))
            e_num = -traj.xdot[-1] / params.v0
            assert abs(met.e_star - e_num) < abs(e0 - e_num)
        assert 3.0 < residuals_t[0] / residuals_t[1] < 5.0

    def test_weight_lowers_restitution(self):
        es = [
            -mx_drop_trajectory(_params(0.3, g=g), n_samples=50).xdot[-1]
            for g in (0.0, 0.02, 0.05, 0.1)
        ]
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_plastic_embedding_at_huge_weight(self):
        with pytest.raises(PlasticImpactError):
            mx_drop_trajectory(_params(0.5, g=9.81), n_samples=50)

    @pytest.mark.parametrize("zeta, eps0", [(0.99, 1e-3), (0.999, 1e-3)])
    def test_unbounded_scan_gives_up_typed(self, zeta, eps0):
        """Near zeta = 1 the weight outlasts the decaying oscillation: a proved embedding."""
        with pytest.raises(PlasticImpactError, match="stays embedded"):
            mx_drop_trajectory(_params(zeta, g=eps0), n_samples=50)
