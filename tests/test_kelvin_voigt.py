"""Parallel spring-dashpot impact: closed forms, peaks, and drop tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from visco_impact.errors import DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import (
    _scaled_metrics,
    kv_drop_metrics_asymptotic,
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
        params = _params(eta)
        met = kv_metrics(params)
        beta = params.b / (2.0 * params.m)
        assert met.e_star == pytest.approx(math.exp(-beta * met.t_c), rel=1e-14)
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

    def test_minimizer_is_exact(self):
        # The root of 3 arccos(eta) - pi = 3 eta sqrt(1 - eta**2), to 21 digits.
        reference = 0.264932084602776862434
        eta_star, fm_star = kv_fm_minimizer()
        assert abs(eta_star - reference) <= 2.0 * math.ulp(reference)
        assert fm_star == _scaled_metrics(eta_star)[5]

    def test_is_interior_minimum(self):
        eta_star, fm_star = kv_fm_minimizer()
        for eta in (eta_star - 0.05, eta_star + 0.05):
            assert kv_metrics(_params(eta)).F_M > fm_star


class TestDrop:
    def test_zero_gravity_matches_plain_trajectory(self):
        """A vanishing weight's walk meets the closed form that ``g = 0`` takes."""
        plain, light = _params(0.3), _params(0.3, g=1e-12)
        for name, value in vars(kv_metrics(plain)).items():
            assert getattr(kv_metrics(light), name) == pytest.approx(value, rel=1e-10), name
        drop = kv_trajectory(light, n_samples=200)
        assert np.allclose(drop.F, kv_trajectory(plain, n_samples=200).F, rtol=0.0, atol=1e-11)

    def test_equation_of_motion_with_weight(self):
        params = _params(0.3, m=1.0, k=1.0, v0=1.0, g=0.02)
        traj = kv_trajectory(params, n_samples=400)
        residual = traj.xddot - params.g + (params.k * traj.x + params.b * traj.xdot) / params.m
        assert np.max(np.abs(residual)) < 1e-12

    def test_asymptotic_reference_values(self):
        """eps0 = 0.02 at eta = 0.3: frozen small-gravity expansion."""
        met = kv_drop_metrics_asymptotic(_params(0.3, g=0.02))
        assert met.t_c == pytest.approx(2.7188228755874615, rel=1e-12)
        assert met.e_star == pytest.approx(0.4455637474584113, rel=1e-12)

    def test_asymptotics_track_numeric_drop(self):
        params = _params(0.3, g=0.01)
        traj = kv_trajectory(params, n_samples=2000)
        met = kv_drop_metrics_asymptotic(params)
        assert met.t_c == pytest.approx(traj.t_c, abs=5e-4)
        e_num = -traj.xdot[-1] / params.v0
        assert met.e_star == pytest.approx(e_num, abs=5e-4)

    @given(eta=st.floats(0.5, 0.97), log_eps0=st.floats(-4.0, 0.0))
    @settings(deadline=None, max_examples=60)
    def test_weighted_force_peak_bounds_the_history(self, eta, log_eps0):
        """From eta = 1/2 on, no sample of a dense drop history exceeds F_M, and
        a force that falls at t = 0 (rate 1 - 4 eta**2 + 2 eta eps0 <= 0) peaks there."""
        eps0 = 10.0**log_eps0
        params = _params(eta, g=eps0)
        try:
            met = kv_metrics(params)
        except PlasticImpactError:
            assume(False)
        traj = kv_trajectory(params, n_samples=100_000)
        assert np.max(traj.F) <= met.F_M
        if 1.0 - 4.0 * eta * eta + 2.0 * eta * eps0 <= 0.0:
            assert met.t_M == 0.0
            assert met.x_M == 0.0

    def test_weight_lowers_restitution(self):
        es = [
            -kv_trajectory(_params(0.3, g=g), n_samples=50).xdot[-1]
            for g in (0.0, 0.02, 0.05, 0.1)
        ]
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_plastic_embedding_at_huge_weight(self):
        with pytest.raises(PlasticImpactError):
            kv_trajectory(_params(0.5, g=50.0), n_samples=50)

    def test_critical_eps0_separates_regimes(self):
        eta = 0.5
        crit = kv_find_critical_eps0(eta)
        kv_trajectory(_params(eta, g=0.9 * crit), n_samples=50)
        with pytest.raises(PlasticImpactError):
            kv_trajectory(_params(eta, g=1.1 * crit), n_samples=50)
        with pytest.raises(PlasticImpactError):
            kv_metrics(_params(eta, g=1.1 * crit))

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: the elastic-limit drop loses its "
                       "restitution under a large weight (ROADMAP item 18)")
    def test_undamped_drop_under_heavy_weight_keeps_restitution(self):
        """An undamped drop separates with e* = 1 whatever its weight."""
        met = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=0.0, v0=1.0, g=1e6))
        assert met.e_star == pytest.approx(1.0, abs=1e-8)

    def test_critical_eps0_decreases_with_damping(self):
        assert kv_find_critical_eps0(0.6) < kv_find_critical_eps0(0.3)

    def test_critical_eps0_tests_its_cap(self):
        """Thresholds up to eps0 = 1e6 are returned; eta = 1e-14's 2820947.9 is refused."""
        assert kv_find_critical_eps0(1e-13) == pytest.approx(892062.0580761195, rel=1e-14)
        with pytest.raises(DomainError, match="no embedding threshold found below eps0 = 1e6"):
            kv_find_critical_eps0(1e-14)

    @pytest.mark.parametrize("eta", [0.0, 1.2])
    def test_critical_eps0_domain(self, eta):
        with pytest.raises(DomainError, match=r"eta must lie in \(0, 1\)"):
            kv_find_critical_eps0(eta)

    # The zero of W = f0**2 - f0' fw between the first minimum of the free force
    # and its return to zero, by bisection at 80 digits in mpmath, and -f0 / fw
    # there, at each float eta; 120 digits agree.
    @pytest.mark.parametrize("eta, expected", [
        (1e-13, 892062.0580761195),
        (1e-11, 89206.20580497805),
        (1e-8, 2820.9478336124344),
        (1e-6, 282.09395111094346),
        (1e-4, 28.201133071339118),
        (0.01, 2.743880165229479),
        (0.3, 0.26566270825567045),
        (0.5, 0.14164915627782135),
        (0.6, 0.10870415710851254),
        (0.9, 0.05520642574282423),
        (0.999, 0.045413300700572666),
        (0.9999, 0.04533513353810037),
        # e**(-eta t) underflows at the free force's return to zero, t = 2.2e4.
        (0.99999999, 0.04532646000866605),
    ])
    def test_critical_eps0_reference_values(self, eta, expected):
        assert kv_find_critical_eps0(eta) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("eta", [1e-33, 1e-300, 5e-324])
    def test_critical_eps0_refuses_tiny_loss_factors(self, eta):
        """Where the free force's trough is lost to rounding, the threshold still
        comes out above the cap, and is refused."""
        with pytest.raises(DomainError, match="no embedding threshold found below eps0 = 1e6"):
            kv_find_critical_eps0(eta)

    def test_critical_eps0_is_where_the_drop_stops_separating(self):
        """The walk separates 1e-10 below the threshold and proves embedding 1e-10 above it."""
        rng = np.random.default_rng(23)
        for eta in 10.0 ** rng.uniform(-4.0, math.log10(0.98), 200):
            crit = kv_find_critical_eps0(float(eta))
            kv_trajectory(_params(float(eta), g=(1.0 - 1e-10) * crit), n_samples=2)
            with pytest.raises(PlasticImpactError):
                kv_trajectory(_params(float(eta), g=(1.0 + 1e-10) * crit), n_samples=2)

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
            drop = kv_trajectory(
                _params(eta, m=m, k=k, v0=v0, g=eps0 * math.sqrt(k / m) * v0), n_samples=3
            )
        except PlasticImpactError:
            assume(False)
        assert drop.x[0] == 0.0
        assert drop.xdot[0] == v0
