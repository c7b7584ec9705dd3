"""Parallel spring-dashpot impact: closed forms, peaks, and drop tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from visco_impact.errors import DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import (
    kv_drop_metrics_asymptotic,
    kv_drop_trajectory,
    kv_find_critical_eps0,
    kv_fm_minimizer,
    kv_metrics,
    kv_trajectory,
)
from visco_impact.models import KelvinVoigtParams

etas = st.floats(min_value=1e-3, max_value=0.97)


def _params(eta: float, m=1.0, k=1.0, v0=1.0, g=0.0) -> KelvinVoigtParams:
    return KelvinVoigtParams(m=m, k=k, b=2.0 * eta * math.sqrt(k * m), v0=v0, g=g)


class TestMetrics:
    def test_reference_values(self):
        """Unit-scale metrics at eta = 0.3, frozen from the closed forms."""
        met = kv_metrics(_params(0.3))
        assert met.t_c == pytest.approx(2.6544745637853566, rel=1e-13)
        assert met.e_star == pytest.approx(0.45097545289312846, rel=1e-13)
        assert met.t_m == pytest.approx(met.t_c / 2.0, rel=1e-15)
        assert met.x_m == pytest.approx(0.6715470593288796, rel=1e-13)
        assert met.t_M == pytest.approx(0.6884279037629534, rel=1e-13)
        assert met.F_M == pytest.approx(0.8134031839634665, rel=1e-13)

    def test_elastic_limit(self):
        met = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=0.0, v0=1.0))
        assert met.e_star == pytest.approx(1.0, abs=1e-15)
        assert met.t_c == pytest.approx(math.pi, abs=1e-15)
        assert met.x_m == pytest.approx(1.0, abs=1e-15)

    @given(eta=etas)
    @settings(deadline=None)
    def test_midpoint_identity(self, eta):
        met = kv_metrics(_params(eta))
        assert met.t_m == pytest.approx(met.t_c / 2.0, rel=1e-14)

    @given(eta=etas)
    @settings(deadline=None)
    def test_restitution_from_decay(self, eta):
        met = kv_metrics(_params(eta))
        d = _params(eta).derived
        assert met.e_star == pytest.approx(math.exp(-d.beta * met.t_c), rel=1e-14)
        assert 0.0 < met.e_star < 1.0

    @given(
        eta=etas,
        m=st.floats(min_value=1e-2, max_value=1e2),
        k=st.floats(min_value=1e-2, max_value=1e4),
        v0=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(deadline=None, max_examples=60)
    def test_scaling_invariance(self, eta, m, k, v0):
        """Scaled metrics depend on the loss factor alone."""
        unit = kv_metrics(_params(eta))
        met = kv_metrics(_params(eta, m=m, k=k, v0=v0))
        omega0 = math.sqrt(k / m)
        assert omega0 * met.t_c == pytest.approx(unit.t_c, rel=1e-9)
        assert met.e_star == pytest.approx(unit.e_star, rel=1e-9)
        assert omega0 * met.x_m / v0 == pytest.approx(unit.x_m, rel=1e-9)
        assert met.F_M / (m * v0 * omega0) == pytest.approx(unit.F_M, rel=1e-9)

    def test_early_force_peak_branch(self):
        """Above eta = 1/2 the force peaks at first touch."""
        met = kv_metrics(_params(0.7))
        assert met.t_M == 0.0
        assert met.F_M == pytest.approx(2.0 * 0.7, rel=1e-14)
        assert met.x_M == 0.0

    def test_force_peak_continuous_at_branch(self):
        lo = kv_metrics(_params(0.5 - 1e-9))
        hi = kv_metrics(_params(0.5 + 1e-9))
        assert lo.F_M == pytest.approx(hi.F_M, rel=1e-6)
        assert lo.t_M == pytest.approx(0.0, abs=1e-3)


class TestTrajectory:
    def test_equation_of_motion_residual(self):
        params = _params(0.3, m=2.0, k=50.0, v0=1.3)
        traj = kv_trajectory(params, n_samples=400)
        residual = params.m * traj.xddot + params.k * traj.x + params.b * traj.xdot
        assert np.max(np.abs(residual)) < 1e-12 * params.k

    def test_force_is_spring_plus_dashpot(self):
        params = _params(0.45, k=3.0)
        traj = kv_trajectory(params, n_samples=200)
        assert np.allclose(traj.F, params.k * traj.x + params.b * traj.xdot,
                           rtol=0.0, atol=1e-14)

    def test_boundary_conditions(self):
        params = _params(0.3, v0=2.0)
        traj = kv_trajectory(params, n_samples=300)
        met = kv_metrics(params)
        assert traj.x[0] == 0.0
        assert traj.xdot[0] == pytest.approx(params.v0, rel=1e-15)
        assert traj.F[-1] == pytest.approx(0.0, abs=1e-12)
        assert traj.xdot[-1] == pytest.approx(-met.e_star * params.v0, rel=1e-12)

    def test_indentation_positive_during_contact(self):
        traj = kv_trajectory(_params(0.6), n_samples=500)
        assert np.all(traj.x[1:-1] > 0.0)


class TestForceMinimizer:
    def test_minimizer_location(self):
        eta_star, fm_star = kv_fm_minimizer()
        assert eta_star == pytest.approx(0.26493, abs=5e-4)
        assert fm_star == pytest.approx(0.8101247520032268, rel=1e-10)

    def test_is_interior_minimum(self):
        eta_star, fm_star = kv_fm_minimizer()
        for eta in (eta_star - 0.05, eta_star + 0.05):
            assert kv_metrics(_params(eta)).F_M > fm_star


class TestDrop:
    def test_zero_gravity_matches_plain_trajectory(self):
        params = _params(0.3)
        plain = kv_trajectory(params, n_samples=200)
        drop = kv_drop_trajectory(params, n_samples=200)
        assert np.array_equal(plain.x, drop.x)
        assert np.array_equal(plain.F, drop.F)

    def test_equation_of_motion_with_weight(self):
        params = _params(0.3, m=1.0, k=1.0, v0=1.0, g=0.02)
        traj = kv_drop_trajectory(params, n_samples=400)
        residual = traj.xddot - params.g + (params.k * traj.x + params.b * traj.xdot) / params.m
        assert np.max(np.abs(residual)) < 1e-12

    def test_asymptotic_reference_values(self):
        """eps0 = 0.02 at eta = 0.3: frozen small-gravity expansion."""
        met = kv_drop_metrics_asymptotic(_params(0.3, g=0.02))
        assert met.t_c == pytest.approx(2.7188228755874615, rel=1e-12)
        assert met.e_star == pytest.approx(0.4455637474584113, rel=1e-12)

    def test_asymptotics_track_numeric_drop(self):
        params = _params(0.3, g=0.01)
        traj = kv_drop_trajectory(params, n_samples=2000)
        met = kv_drop_metrics_asymptotic(params)
        assert met.t_c == pytest.approx(traj.t_c, abs=5e-4)
        e_num = -traj.xdot[-1] / params.v0
        assert met.e_star == pytest.approx(e_num, abs=5e-4)

    def test_weight_lowers_restitution(self):
        es = [
            -kv_drop_trajectory(_params(0.3, g=g), n_samples=50).xdot[-1]
            for g in (0.0, 0.02, 0.05, 0.1)
        ]
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_plastic_embedding_at_huge_weight(self):
        with pytest.raises(PlasticImpactError):
            kv_drop_trajectory(_params(0.5, g=50.0), n_samples=50)

    def test_critical_eps0_separates_regimes(self):
        eta = 0.5
        crit = kv_find_critical_eps0(eta, tol=1e-4)
        assert kv_find_critical_eps0(eta, tol=1e-6) == pytest.approx(crit, abs=1e-3)
        kv_drop_trajectory(_params(eta, g=0.9 * crit), n_samples=50)
        with pytest.raises(PlasticImpactError):
            kv_drop_trajectory(_params(eta, g=1.1 * crit), n_samples=50)

    def test_critical_eps0_decreases_with_damping(self):
        assert kv_find_critical_eps0(0.6) < kv_find_critical_eps0(0.3)

    def test_critical_eps0_tests_its_cap(self):
        """The doubling stops at eps0 = 1e6 and tests that value before refusing."""
        assert kv_find_critical_eps0(1e-13) == pytest.approx(892239.4291348865, abs=1e-6)
        with pytest.raises(DomainError, match="no embedding threshold found below eps0 = 1e6"):
            kv_find_critical_eps0(1e-14)

    @pytest.mark.parametrize("eta", [0.0, 1.2])
    def test_critical_eps0_domain(self, eta):
        with pytest.raises(DomainError, match=r"eta must lie in \(0, 1\)"):
            kv_find_critical_eps0(eta)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_critical_eps0_tolerance_refused(self, tol):
        """A bisection to a tolerance that is not positive and finite never ends well."""
        with pytest.raises(DomainError, match=r"tol must be positive and finite"):
            kv_find_critical_eps0(0.3, tol=tol)

    def test_critical_eps0_tolerance_below_float_spacing(self):
        """The bisection stops at adjacent floats rather than spin on them."""
        assert kv_find_critical_eps0(0.3, tol=1e-300) == pytest.approx(
            kv_find_critical_eps0(0.3, tol=1e-12), abs=1e-12
        )

    @given(
        eta=st.floats(min_value=0.0, max_value=0.99, exclude_max=True),
        eps0=st.floats(min_value=0.0, max_value=0.2),
        log_m=st.floats(min_value=-4.0, max_value=4.0),
        log_k=st.floats(min_value=-4.0, max_value=4.0),
        log_v0=st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(deadline=None, max_examples=100)
    def test_trajectories_start_exactly(self, eta, eps0, log_m, log_k, log_v0):
        """``xdot(0) = v0 (cos 0 - beta / omega sin 0)`` is exact, at any scales.

        So both histories start at exactly ``x = 0, xdot = v0``, as the
        series pair's do.
        """
        m, k, v0 = 10.0**log_m, 10.0**log_k, 10.0**log_v0
        free = kv_trajectory(_params(eta, m=m, k=k, v0=v0), n_samples=3)
        assert free.x[0] == 0.0
        assert free.xdot[0] == v0
        try:
            drop = kv_drop_trajectory(
                _params(eta, m=m, k=k, v0=v0, g=eps0 * math.sqrt(k / m) * v0), n_samples=3
            )
        except PlasticImpactError:
            assume(False)
        assert drop.x[0] == 0.0
        assert drop.xdot[0] == v0
