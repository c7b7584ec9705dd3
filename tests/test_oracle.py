"""Numeric reference integrator: validation, convergence, and agreement."""

from __future__ import annotations

import hashlib
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_impact import oracle
from visco_impact.cli import run_verification
from visco_impact.errors import ConfigError, NoSeparationError, ViscoImpactError
from visco_impact.kelvin_voigt import kv_drop_trajectory, kv_find_critical_eps0, kv_metrics
from visco_impact.maxwell import mx_metrics
from visco_impact.models import (
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
    Trajectory,
)
from visco_impact.oracle import (
    RelaxationKernel,
    integrate_impact,
    integrate_impact_with_gravity,
)
from visco_impact.standard_solid import params_from_groups, sls_metrics


def _grid(kernel, m=1.0, dt_scaled=None):
    """The step and horizon the oracle takes for ``kernel`` at mass ``m``."""
    A = None if kernel.kind == "table" else oracle._linear_system(kernel, m, 1.0, 0.0)[0]
    return oracle._resolve_grid(kernel, m, dt_scaled, A)


def _nominal_step(kernel, m):
    """``DEFAULT_DT_FRACTION`` of the nominal half period, as the oracle computes it."""
    return oracle.DEFAULT_DT_FRACTION * (math.pi / math.sqrt(kernel.alpha_per_mass / m))


def _rate(kernel, m=1.0):
    """Spectral radius of the kernel's state matrix."""
    return np.max(np.abs(np.linalg.eigvals(oracle._linear_system(kernel, m, 1.0, 0.0)[0])))


class TestKernelValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            RelaxationKernel(k0=1.0, tau_R=1.0, kind="power_law")

    @pytest.mark.parametrize("k0", [0.0, -1.0, math.nan])
    def test_scale_positivity(self, k0):
        with pytest.raises(ConfigError):
            RelaxationKernel(k0=k0, tau_R=1.0)
        with pytest.raises(ConfigError):
            RelaxationKernel(k0=1.0, tau_R=k0)

    def test_exp_sum_shape_checks(self):
        with pytest.raises(ConfigError, match="matching lengths"):
            RelaxationKernel(k0=1.0, tau_R=1.0, cs=(0.5,), thetas=())
        with pytest.raises(ConfigError, match="positive"):
            RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.5, cs=(0.5,), thetas=(0.0,))

    def test_psi_normalization_enforced(self):
        with pytest.raises(ConfigError, match="must equal 1"):
            RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.3, cs=(0.5,), thetas=(1.0,))
        with pytest.raises(ConfigError, match="must equal 1"):
            RelaxationKernel.from_table([0.0, 1.0], [0.9, 0.5], k0=1.0, tau_R=1.0)

    def test_table_abscissae_checks(self):
        with pytest.raises(ConfigError, match="increase from 0"):
            RelaxationKernel.from_table([0.5, 1.0], [1.0, 0.5], k0=1.0, tau_R=1.0)
        with pytest.raises(ConfigError, match="increase from 0"):
            RelaxationKernel.from_table([0.0, 1.0, 1.0], [1.0, 0.5, 0.4], k0=1.0, tau_R=1.0)
        with pytest.raises(ConfigError, match="1-d"):
            RelaxationKernel.from_table([0.0], [1.0], k0=1.0, tau_R=1.0)

    @pytest.mark.parametrize("terms, message", [
        ({"c_inf": math.nan, "cs": (0.5,), "thetas": (1.0,)}, "must equal 1"),
        ({"c_inf": 0.5, "cs": (math.nan,), "thetas": (1.0,)}, "must equal 1"),
        ({"c_inf": math.inf, "cs": (-math.inf,), "thetas": (1.0,)}, "must equal 1"),
        ({"c_inf": 0.5, "cs": (0.5,), "thetas": (math.nan,)}, "positive"),
    ])
    def test_nan_terms_refused(self, terms, message):
        """NaN fails every test, so the integrator never sees a NaN system."""
        with pytest.raises(ConfigError, match=message):
            RelaxationKernel(k0=1.0, tau_R=1.0, **terms)

    def test_infinite_time_constant_is_a_constant_term(self):
        kern = RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.5, cs=(0.5,), thetas=(math.inf,))
        assert np.all(kern.psi(np.array([0.0, 1.0, 1e9])) == 1.0)

    @pytest.mark.parametrize("tau, psi, message", [
        ([0.0, math.nan, 2.0], [1.0, 0.5, 0.4], "increase from 0"),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 0.4], "finite"),
        ([0.0, 1.0, 2.0], [1.0, 0.5, math.inf], "finite"),
    ])
    def test_non_finite_table_refused(self, tau, psi, message):
        """Refused when built, not after a whole horizon without separation."""
        with pytest.raises(ConfigError, match=message):
            RelaxationKernel.from_table(tau, psi, k0=1.0, tau_R=1.0)

    def test_increasing_kernel_warns(self):
        with pytest.warns(UserWarning, match="non-increasing"):
            RelaxationKernel(
                k0=1.0, tau_R=1.0, c_inf=1.5, cs=(-0.5,), thetas=(1.0,)
            )

    def test_kv_limit_needs_dashpot(self):
        with pytest.raises(ConfigError, match="b > 0"):
            RelaxationKernel.kv_limit(1.0, 0.0)

    @pytest.mark.parametrize(
        "extra", [{"c_inf": 0.5}, {"cs": (0.5,)}, {"thetas": (1.0,)}]
    )
    def test_kv_limit_takes_no_other_terms(self, extra):
        """``Psi = 1 + delta(tau)``; any other term would enter the force row unseen."""
        with pytest.raises(ConfigError, match="kv_limit"):
            RelaxationKernel(k0=1.0, tau_R=0.5, kind="kv_limit", **extra)

    def test_kv_limit_psi_refused(self):
        """The pair's kernel is singular; a finite Psi would be another kernel's."""
        with pytest.raises(ConfigError, match="singular"):
            RelaxationKernel.kv_limit(1.0, 0.5).psi(np.linspace(0.0, 1.0, 3))

    def test_sls_rho_range(self):
        with pytest.raises(ConfigError):
            RelaxationKernel.sls(1.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            RelaxationKernel.sls(1.0, 1.0, 1.0)

    def test_psi_values(self):
        kern = RelaxationKernel.sls(2.0, 0.5, 0.25)
        assert kern.psi(0.0) == pytest.approx(1.0, rel=1e-15)
        assert kern.psi(1e9) == pytest.approx(0.25, rel=1e-12)
        assert kern.alpha_per_mass == pytest.approx(2.0 * 0.25, rel=1e-15)

    def test_table_holds_last_value(self):
        kern = RelaxationKernel.from_table(
            [0.0, 1.0, 2.0], [1.0, 0.6, 0.4], k0=1.0, tau_R=1.0
        )
        assert kern.psi(5.0) == 0.4
        assert kern.psi(0.5) == pytest.approx(0.8, rel=1e-15)

    def test_from_params_dispatch(self):
        kv = RelaxationKernel.from_params(KelvinVoigtParams(m=1, k=4, b=0.8, v0=1))
        assert kv.kind == "kv_limit" and kv.k0 == 4.0
        el = RelaxationKernel.from_params(KelvinVoigtParams(m=1, k=4, b=0.0, v0=1))
        assert el.kind == "exp_sum" and el.c_inf == 1.0
        mx = RelaxationKernel.from_params(MaxwellParams(m=1, k=1, b=2.0, v0=1))
        assert mx.tau_R == 2.0
        sls = RelaxationKernel.from_params(params_from_groups(0.25, 0.5))
        assert sls.c_inf == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(ConfigError, match="no kernel mapping"):
            RelaxationKernel.from_params(object())


class TestClosedFormAgreement:
    """Default-step integration against the analytic metrics."""

    def test_parallel_pair(self):
        params = KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)
        met = kv_metrics(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
        assert -traj.xdot[-1] == pytest.approx(met.e_star, abs=1e-12)
        assert traj.t_c == pytest.approx(met.t_c, abs=1e-12)

    def test_series_pair(self):
        params = MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0)
        met = mx_metrics(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
        assert -traj.xdot[-1] == pytest.approx(met.e_star, abs=1e-12)
        assert traj.t_c == pytest.approx(met.t_c, abs=1e-12)

    def test_three_element(self):
        params = params_from_groups(0.25, 0.5)
        met = sls_metrics(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
        assert -traj.xdot[-1] == pytest.approx(met.e_star, abs=1e-12)
        assert traj.t_c == pytest.approx(met.t_c, abs=1e-12)
        # Node sampling misses the interior peak by O(dt**2).
        assert np.max(traj.x) == pytest.approx(met.x_m, abs=1e-7)
        assert np.max(traj.F) == pytest.approx(met.F_M, abs=1e-7)

    def test_elastic_limit(self):
        traj = integrate_impact(RelaxationKernel.elastic(4.0), 1.0, 1.0)
        omega0 = 2.0
        assert -traj.xdot[-1] == pytest.approx(1.0, abs=1e-12)
        assert omega0 * traj.t_c == pytest.approx(math.pi, abs=1e-12)

    def test_table_path_matches_aux_state_path(self):
        """History convolution and auxiliary states solve the same problem.

        A table kernel sampled at 2.5e-4 resolution keeps the interpolation
        error below the integrator difference budget of 1e-8.
        """
        kern = RelaxationKernel.sls(1.0, 0.5, 0.5)
        half_period = math.pi / math.sqrt(kern.alpha_per_mass)
        dt = 5e-5 * half_period
        tau_tab = np.arange(0.0, 15.0 + 2.5e-4, 2.5e-4)
        ktab = RelaxationKernel.from_table(
            tau_tab, 0.5 + 0.5 * np.exp(-tau_tab), k0=1.0, tau_R=0.5
        )
        aux = integrate_impact(kern, 1.0, 1.0, dt_scaled=dt)
        tab = integrate_impact(ktab, 1.0, 1.0, dt_scaled=dt)
        assert tab.xdot[-1] == pytest.approx(aux.xdot[-1], abs=1e-8)
        assert tab.t_c == pytest.approx(aux.t_c, abs=1e-8)

    def test_step_halving_fourth_order(self):
        """Halving the step must cut the restitution error about 16-fold."""
        kern = RelaxationKernel.maxwell(1.0, 1.0 / 0.6)
        half_period = math.pi / math.sqrt(kern.alpha_per_mass)
        exact = mx_metrics(MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0)).e_star
        errors = [
            abs(-integrate_impact(kern, 1.0, 1.0, dt_scaled=frac * half_period).xdot[-1] - exact)
            for frac in (0.04, 0.02)
        ]
        assert 12.0 < errors[0] / errors[1] < 20.0


class TestOneTimeUnit:
    """``dt_scaled`` is in relaxation times for every kernel kind."""

    @pytest.mark.parametrize(
        "kernel",
        [
            RelaxationKernel.elastic(3.0, 0.3),
            RelaxationKernel.kv_limit(3.0, 0.9),
            RelaxationKernel.maxwell(3.0, 0.3),
            RelaxationKernel.sls(3.0, 0.3, 0.3),
            RelaxationKernel(k0=3.0, tau_R=0.3, c_inf=0.2, cs=(0.3, 0.3, 0.2),
                             thetas=(0.5, 1.0, 4.0)),
            RelaxationKernel.from_table([0.0, 1.0, 10.0], [1.0, 0.5, 0.3], k0=3.0, tau_R=0.3),
        ],
        ids=["elastic", "kv_limit", "maxwell", "sls", "exp_sum3", "table"],
    )
    def test_node_spacing_is_step_times_tau_R(self, kernel):
        """With m = 0.5 the omega0 time unit would be sqrt(m / k0) = 0.41, not 0.3."""
        h = 1e-2
        traj = integrate_impact(kernel, 0.5, 1.5, dt_scaled=h)
        spacing = np.diff(traj.times)[:-1]  # the last interval is the partial step
        assert spacing.size > 100
        np.testing.assert_allclose(spacing, h * kernel.tau_R, rtol=1e-9)


class TestGravityAndTermination:
    def test_zero_gravity_bit_identity(self):
        kern = RelaxationKernel.maxwell(1.0, 1.0 / 0.6)
        plain = integrate_impact(kern, 1.0, 1.0)
        drop = integrate_impact_with_gravity(kern, 1.0, 1.0, 0.0)
        assert np.array_equal(plain.times, drop.times)
        assert np.array_equal(plain.x, drop.x)
        assert np.array_equal(plain.F, drop.F)

    def test_gravity_lowers_restitution(self):
        kern = RelaxationKernel.kv_limit(1.0, 0.6)
        es = [
            -integrate_impact_with_gravity(kern, 1.0, 1.0, g).xdot[-1]
            for g in (0.0, 0.05, 0.1)
        ]
        assert es[0] > es[1] > es[2]

    def test_embedding_raises_no_separation(self):
        kern = RelaxationKernel.maxwell(1.0, 1.0 / 0.6)
        with pytest.raises(NoSeparationError, match="never returned to zero"):
            integrate_impact_with_gravity(kern, 1.0, 1.0, 100.0)

    def test_argument_validation(self):
        kern = RelaxationKernel.elastic(1.0)
        with pytest.raises(ConfigError):
            integrate_impact(kern, 0.0, 1.0)
        with pytest.raises(ConfigError):
            integrate_impact(kern, 1.0, -1.0)
        with pytest.raises(ConfigError):
            integrate_impact_with_gravity(kern, 1.0, 1.0, -9.81)
        with pytest.raises(ConfigError):
            integrate_impact(kern, 1.0, 1.0, dt_scaled=-1e-4)
        # The horizon is ten nominal half periods, 10 pi here.
        with pytest.raises(ConfigError, match="must exceed the step size"):
            integrate_impact(kern, 1.0, 1.0, dt_scaled=100.0)
        with pytest.raises(ConfigError, match="RelaxationKernel"):
            integrate_impact("kernel", 1.0, 1.0)

    @pytest.mark.parametrize(
        "kern",
        [RelaxationKernel.maxwell(1.0, 1.0),
         RelaxationKernel.from_table([0.0, 1.0], [1.0, 0.5], k0=1.0, tau_R=1.0)],
        ids=["maxwell", "table"],
    )
    def test_grid_past_step_cap_rejected(self, kern):
        """A horizon too long for its step is refused before any state is built."""
        with pytest.raises(ConfigError) as info:
            integrate_impact(kern, 1.0, 1.0, dt_scaled=1e-9)
        assert "3.14e+10 steps" in str(info.value)
        assert "more than the 1e+07 allowed" in str(info.value)

    def test_entry_points_take_only_a_step(self):
        """The horizon comes from the kernel; the step is the one option."""
        assert str(inspect.signature(integrate_impact)) == (
            "(kernel: 'RelaxationKernel', m: 'float', v0: 'float', "
            "dt_scaled: 'float | None' = None) -> 'Trajectory'"
        )
        assert str(inspect.signature(integrate_impact_with_gravity)) == (
            "(kernel: 'RelaxationKernel', m: 'float', v0: 'float', g: 'float', "
            "dt_scaled: 'float | None' = None) -> 'Trajectory'"
        )

    @pytest.mark.parametrize("kern", [
        RelaxationKernel.elastic(1.0),
        RelaxationKernel.kv_limit(1.0, 0.6),
        RelaxationKernel.sls(1.0, 1.0, 0.5),
        RelaxationKernel(k0=2.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.2, 0.1), thetas=(0.5, 2.0, 7.0)),
    ], ids=["elastic", "kv_limit", "sls", "exp_sum"])
    def test_state_equation_built_once(self, monkeypatch, kern):
        """The grid and the march share one ``_linear_system`` build."""
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        build = oracle._linear_system
        monkeypatch.setattr(oracle, "_linear_system", counted)
        integrate_impact_with_gravity(kern, 1.3, 0.7, 0.05)
        assert calls == [(kern, 1.3, 0.7, 0.05)]

    @pytest.mark.parametrize(
        "m, v0, g",
        [
            (math.inf, 1.0, 0.0),
            (1.0, math.inf, 0.0),
            (1.0, math.nan, 0.0),
            (1.0, 1.0, math.inf),
            (1.0, 1.0, math.nan),
        ],
    )
    def test_non_finite_inputs_rejected(self, m, v0, g):
        kern = RelaxationKernel.maxwell(1.0, 1.0)
        with pytest.raises(ConfigError, match="finite"):
            integrate_impact_with_gravity(kern, m, v0, g)

    @pytest.mark.parametrize("kern, m", [
        (RelaxationKernel(k0=1e-300, tau_R=1e-100), 1.0),
        (RelaxationKernel.from_table([0.0, 1.0], [1.0, 0.5], k0=1e-300, tau_R=1e-100), 1.0),
        (RelaxationKernel(k0=1e300, tau_R=1e10), 1.0),
        (RelaxationKernel.maxwell(1.0, 1.0), 1e-320),
        (RelaxationKernel.elastic(1.0), 1e300),
    ], ids=["alpha-underflows", "table-alpha-underflows", "alpha-overflows", "subnormal-mass",
            "alpha-1e-300"])
    def test_alpha_outside_its_range_is_refused(self, monkeypatch, kern, m):
        """alpha = k0 tau_R**2 / m is refused before the grid or the state equation is built."""
        for name in ("_resolve_grid", "_linear_system"):
            monkeypatch.setattr(oracle, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        with pytest.raises(ConfigError, match="alpha"):
            integrate_impact(kern, m, 1.0)

    @pytest.mark.parametrize("kern, m", [
        (RelaxationKernel.elastic(1.0), 1.0 / oracle.ALPHA_RANGE[0]),
        (RelaxationKernel.elastic(1.0), 1.0 / oracle.ALPHA_RANGE[1]),
        # alpha = 4 eta**2 for the pair: at the high end it is too stiff for the step cap.
        (RelaxationKernel.kv_limit(1.0, 1.0), 1.0 / oracle.ALPHA_RANGE[0]),
        (RelaxationKernel.from_table([0.0, 1.0], [1.0, 0.5], k0=1.0, tau_R=1.0),
         1.0 / oracle.ALPHA_RANGE[0]),
        (RelaxationKernel.from_table([0.0, 1.0], [1.0, 0.5], k0=1.0, tau_R=1.0),
         1.0 / oracle.ALPHA_RANGE[1]),
    ], ids=["elastic-low", "elastic-high", "kv_limit-low", "table-low", "table-high"])
    def test_alpha_at_the_ends_of_its_range_integrates(self, kern, m):
        traj = integrate_impact(kern, m, 1.0)
        assert 0.99 < -traj.xdot[-1] <= 1.0 + 1e-12

    @pytest.mark.parametrize("table", [False, True], ids=["exp_sum", "table"])
    @pytest.mark.parametrize("k0, tau_R, alpha", [
        (1e-300, 1e200, 1e100),
        (1e-300, 1e155, 1e10),
        (1e-10, 1e160, math.inf),
        (1.0, 1e160, math.inf),
    ])
    def test_alpha_past_an_overflowing_tau_R_square(self, k0, tau_R, alpha, table):
        """Where ``tau_R**2`` overflows, alpha is ``(k0 tau_R) tau_R``: an elastic
        kernel in range lasts ``pi / sqrt(k0 / m)``, and one past it is refused."""
        kern = (RelaxationKernel.from_table([0.0, 1.0], [1.0, 1.0], k0=k0, tau_R=tau_R)
                if table else RelaxationKernel(k0=k0, tau_R=tau_R))
        assert kern.alpha_per_mass == pytest.approx(alpha, rel=1e-15)
        if math.isinf(alpha):
            with pytest.raises(ConfigError, match="alpha"):
                integrate_impact(kern, 1.0, 1.0)
        else:
            traj = integrate_impact(kern, 1.0, 1.0)
            assert traj.t_c == pytest.approx(math.pi / math.sqrt(k0), rel=1e-7)

    def test_default_step_respects_fast_relaxation(self):
        """Stiff kernels cap the default step at half the inverse fastest rate of ``A``."""
        kern = RelaxationKernel(
            k0=0.01, tau_R=1.0, c_inf=0.5, cs=(0.5,), thetas=(1e-3,)
        )
        rate = _rate(kern)
        assert _grid(kern)[0] == 0.5 / rate
        traj = integrate_impact(kern, 1.0, 1.0)
        dt = traj.times[1] - traj.times[0]
        assert dt == pytest.approx(0.5 / rate * kern.tau_R, rel=1e-12)


class TestVelocityInvariance:
    def test_scaled_outcomes_independent_of_velocity(self):
        """The oracle solves one scaled problem, so v0 changes only the units."""
        kern = RelaxationKernel.sls(1.0, 0.5, 0.5)
        omega0 = math.sqrt(kern.k0)  # m = 1
        runs = [(v0, integrate_impact(kern, 1.0, v0)) for v0 in (0.5, 1.0, 2.0)]
        assert len({-traj.xdot[-1] / v0 for v0, traj in runs}) == 1
        assert len({omega0 * traj.t_c for _, traj in runs}) == 1
        peaks = [np.max(traj.x) / v0 for v0, traj in runs]
        assert peaks == pytest.approx([peaks[0]] * 3, rel=1e-12)


DEFAULT_BLOCK = oracle._BLOCK


def _rk4_reference(A, c, y, h):
    """Textbook four-stage RK4 step of ``y' = A y + c``."""
    def rate(z):
        return A @ z + c

    k1 = rate(y)
    k2 = rate(y + 0.5 * h * k1)
    k3 = rate(y + 0.5 * h * k2)
    k4 = rate(y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _contact_end(kernel, dt_scaled):
    traj = integrate_impact(kernel, 1.0, 1.0, dt_scaled=dt_scaled)
    return traj.t_c, -traj.xdot[-1], traj.times.size


class TestPropagator:
    """The blocked step map reproduces classical RK4 on linear kernels."""

    def test_one_step_matches_four_stage_rk4(self):
        rng = np.random.default_rng(11)
        Q = rng.standard_normal((4, 4))
        # Negative-definite symmetric part plus a rotation: a stable system.
        A = -(Q @ Q.T) - 0.5 * np.eye(4) + (Q - Q.T)
        c, y = rng.standard_normal(4), rng.standard_normal(4)
        for h in (1e-3, 0.05):
            D, q = oracle._rk4_increment(A, c, h)
            expected = _rk4_reference(A, c, y, h)
            err = np.max(np.abs(y + (D @ y + q) - expected))
            assert err <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "nodes_before_end, kernel",
        [
            (40, RelaxationKernel.elastic(1.0)),  # inside the first block
            (DEFAULT_BLOCK, RelaxationKernel.elastic(1.0)),  # straddles its end
            (None, RelaxationKernel.sls(1.0, 0.5, 0.5)),  # default step
        ],
        ids=["first-block", "block-boundary", "default-dt"],
    )
    def test_block_size_does_not_change_contact_end(
        self, monkeypatch, nodes_before_end, kernel
    ):
        # The elastic contact ends near tau = pi, half a step past node
        # ``nodes_before_end``.
        dt = None if nodes_before_end is None else math.pi / (nodes_before_end + 0.5)
        blocked = _contact_end(kernel, dt)
        monkeypatch.setattr(oracle, "_BLOCK", 1)
        stepwise = _contact_end(kernel, dt)
        if nodes_before_end is not None:
            assert blocked[2] == stepwise[2] == nodes_before_end + 2
        assert blocked[0] == pytest.approx(stepwise[0], abs=1e-13)
        assert blocked[1] == pytest.approx(stepwise[1], abs=1e-13)

    def test_increment_form_keeps_rounding_below_truncation(self):
        """Default-step agreement with the closed forms stays near 1e-14.

        Applying the step as ``(I + D) y + q`` instead would round every
        step by an ulp of ``y`` and lift this error to about 1.4e-13.
        """
        cases = [
            (KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0), kv_metrics),
            (MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0), mx_metrics),
            (params_from_groups(0.25, 0.5), sls_metrics),
        ]
        for params, metrics in cases:
            met = metrics(params)
            traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
            assert abs(-traj.xdot[-1] - met.e_star) < 3e-14
            assert abs(traj.t_c - met.t_c) < 3e-14

    def test_horizon_inside_first_block_raises(self):
        """A plastic drop marched at a step that puts the horizon half a block in."""
        kern = RelaxationKernel.kv_limit(1.0, 0.6)
        _, horizon = _grid(kern)
        dt = horizon / (0.5 * DEFAULT_BLOCK)
        assert _grid(kern, dt_scaled=dt) == (dt, horizon)
        with pytest.raises(NoSeparationError, match=f"horizon \\({horizon:.6g} scaled"):
            integrate_impact_with_gravity(kern, 1.0, 1.0, 100.0, dt_scaled=dt)

    @pytest.mark.parametrize(
        "nodes_before_end",
        [DEFAULT_BLOCK * oracle._BATCH, 2 * DEFAULT_BLOCK * oracle._BATCH + 100],
        ids=["batch-boundary", "past-first-batch"],
    )
    def test_batching_does_not_change_contact_end(self, monkeypatch, nodes_before_end):
        kern = RelaxationKernel.sls(1.0, 1.0, 0.5)
        # Place the contact end half a step past node ``nodes_before_end``.
        t_c = integrate_impact(kern, 1.0, 1.0).t_c
        dt = t_c / (nodes_before_end + 0.5)
        blocked = _contact_end(kern, dt)
        monkeypatch.setattr(oracle, "_BLOCK", 1)
        stepwise = _contact_end(kern, dt)
        assert blocked[2] == stepwise[2] == nodes_before_end + 2
        assert blocked[0] == pytest.approx(stepwise[0], abs=1e-13)
        assert blocked[1] == pytest.approx(stepwise[1], abs=1e-13)

    def test_doubled_powers_match_sequential_recurrence(self):
        kern = RelaxationKernel(k0=2.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.3), thetas=(0.5, 2.0))
        A, c = oracle._linear_system(kern, 1.0, 1.0, 0.2)[:2]
        for dt in (1e-3, 0.05):
            D, q = oracle._rk4_increment(A, c, dt)
            Ds, Ss = oracle._step_powers(D, q)
            assert Ds.shape[0] == Ss.shape[0] == DEFAULT_BLOCK
            D_j, S_j = D, q
            for j in range(DEFAULT_BLOCK):
                assert np.max(np.abs(Ds[j] - D_j)) <= 1e-14 * np.max(np.abs(D_j))
                assert np.max(np.abs(Ss[j] - S_j)) <= 1e-14 * np.max(np.abs(S_j))
                D_j, S_j = D + D_j + D @ D_j, S_j + (D @ S_j + q)


def _heun_reference(kernel, m, v0, g, dt, horizon):
    """Step-by-step Heun loop with full trapezoid history sums per step."""
    alpha = kernel.alpha_per_mass / m
    gamma = g * kernel.tau_R / v0
    n_max = int(math.ceil(horizon / dt)) + 1
    psi = np.asarray(kernel.psi(np.arange(n_max + 2) * dt))
    xi, v, acc, fs = (np.zeros(n_max + 2) for _ in range(4))
    v[0] = 1.0
    acc[0] = gamma

    def history_force(k_idx, v_tail):
        w = psi[k_idx::-1]
        vs = v[: k_idx + 1]
        total = w[:-1] @ vs[:-1] + w[k_idx] * v_tail
        total -= 0.5 * (w[0] * vs[0] + w[k_idx] * v_tail)
        return dt * total

    started = False
    for k_idx in range(n_max + 1):
        v_pred = v[k_idx] + dt * acc[k_idx]
        acc_pred = gamma - alpha * history_force(k_idx + 1, v_pred)
        v[k_idx + 1] = v[k_idx] + 0.5 * dt * (acc[k_idx] + acc_pred)
        xi[k_idx + 1] = xi[k_idx] + 0.5 * dt * (v[k_idx] + v_pred)
        fs[k_idx + 1] = history_force(k_idx + 1, v[k_idx + 1])
        acc[k_idx + 1] = gamma - alpha * fs[k_idx + 1]
        if started and fs[k_idx + 1] <= 0.0:
            n = k_idx + 1
            s = fs[k_idx] / (fs[k_idx] - fs[n]) if fs[n] != fs[k_idx] else 1.0

            def lerp(a):
                return np.append(a[:n], a[n - 1] + s * (a[n] - a[n - 1]))

            forces = np.append(fs[:n], 0.0)
            tau_R = kernel.tau_R
            return {
                "times": np.append(np.arange(n) * dt, (k_idx + s) * dt) * tau_R,
                "x": v0 * tau_R * lerp(xi),
                "xdot": v0 * lerp(v),
                "xddot": v0 / tau_R * (gamma - alpha * forces),
                "F": kernel.k0 * v0 * tau_R * forces,
            }
        started = started or fs[k_idx + 1] > 0.0
    raise AssertionError("reference loop found no contact end")


def _sls_table(params, dt):
    """The three-element kernel of ``params`` tabulated at spacing ``dt``."""
    kern = RelaxationKernel.from_params(params)
    rho = params.derived.rho
    tau = np.arange(0.0, 40.0 + dt, dt)
    return RelaxationKernel.from_table(
        tau, rho + (1.0 - rho) * np.exp(-tau), k0=kern.k0, tau_R=kern.tau_R
    )


class TestTableScheme:
    """The blocked table path is the stepwise Heun loop, regrouped."""

    @pytest.mark.parametrize("g", [0.0, 0.05])
    @pytest.mark.parametrize(
        "nodes_before_end",
        [40, DEFAULT_BLOCK, 5 * DEFAULT_BLOCK + 17],
        ids=["first-block", "block-boundary", "several-blocks"],
    )
    def test_matches_stepwise_loop(self, g, nodes_before_end):
        table = _sls_table(params_from_groups(0.5, 0.4), 1e-3)
        # Place the contact end half a step past node ``nodes_before_end``.
        t_c = integrate_impact_with_gravity(table, 1.0, 1.0, g, dt_scaled=1e-3).t_c
        dt = t_c / table.tau_R / (nodes_before_end + 0.5)
        _, horizon = _grid(table, dt_scaled=dt)
        ref = _heun_reference(table, 1.0, 1.0, g, dt, horizon)
        traj = integrate_impact_with_gravity(table, 1.0, 1.0, g, dt_scaled=dt)
        assert traj.times.size == ref["times"].size == nodes_before_end + 2
        for name, expected in ref.items():
            got = getattr(traj, name)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected)), name

    def test_horizon_inside_first_block_raises(self, monkeypatch):
        """Nodes past the horizon are computed with their block, never used."""
        elastic = RelaxationKernel.from_table([0.0, 1.0], [1.0, 1.0], k0=1.0, tau_R=1.0)
        dt = math.pi / 40.5
        assert integrate_impact(elastic, 1.0, 1.0, dt_scaled=dt).times.size == 42
        # Thirty steps: the half period is pi.
        monkeypatch.setattr(oracle, "HORIZON_HALF_PERIODS", 30.0 / 40.5)
        with pytest.raises(NoSeparationError, match="never returned to zero"):
            integrate_impact(elastic, 1.0, 1.0, dt_scaled=dt)

    @pytest.mark.parametrize("Lam, rho", [(0.25, 0.5), (1.0, 0.3), (4.0, 0.7)])
    def test_step_halving_second_order(self, Lam, rho):
        """Halving the step must cut the contact-duration error about 4-fold."""
        params = params_from_groups(Lam, rho)
        exact = sls_metrics(params).t_c
        alpha = RelaxationKernel.from_params(params).alpha_per_mass / params.m
        errors = []
        for frac in (8e-3, 4e-3, 2e-3):
            # Tabulated on the step's own nodes, so interpolation adds nothing.
            dt = frac * math.pi / math.sqrt(alpha)
            traj = integrate_impact(_sls_table(params, dt), params.m, params.v0, dt_scaled=dt)
            errors.append(params.derived.omega0 * abs(traj.t_c - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 < coarse / fine < 5.0


@pytest.mark.parametrize("zeta", [0.996, 0.997])
def test_default_horizon_covers_near_critical_series_pair(zeta):
    """A contact longer than ten nominal half periods still ends in the horizon."""
    params = MaxwellParams(m=1.0, k=1.0, b=0.5 / zeta, v0=1.0)
    met = mx_metrics(params)
    traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
    assert traj.t_c == pytest.approx(met.t_c, abs=1e-9)
    assert -traj.xdot[-1] == pytest.approx(met.e_star, abs=1e-9)


def test_default_horizon_covers_three_element_without_oscillation():
    """At D <= 0 this contact lasts 242 relaxation times, past ten nominal half periods (212)."""
    params = params_from_groups(0.0219, 0.00212)
    met = sls_metrics(params)
    traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
    assert traj.t_c == pytest.approx(met.t_c, rel=1e-9)
    assert -traj.xdot[-1] == pytest.approx(met.e_star, rel=1e-9)


@pytest.mark.parametrize("kind", ["maxwell", "kv"])
def test_default_horizon_stays_within_step_cap(kind):
    """However slow the slowest mode, a default grid is never refused."""
    if kind == "maxwell":
        params = MaxwellParams(m=1.0, k=1.0, b=0.5 / (1.0 - 1e-12), v0=1.0)
        kern = RelaxationKernel.from_params(params)
    else:
        kern = RelaxationKernel.kv_limit(1.0, 2.0 * (1.0 - 1e-12))
    dt, horizon = _grid(kern)
    assert 0.99 * oracle.MAX_SCAN_SAMPLES < horizon / dt <= oracle.MAX_SCAN_SAMPLES


@pytest.mark.parametrize("eta, eps0", [(0.2, 0.01), (0.6, 0.05)])
def test_gravity_kv_limit_matches_drop_closed_form(eta, eps0):
    params = KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=1.0, g=eps0)
    exact = kv_drop_trajectory(params)
    traj = integrate_impact_with_gravity(
        RelaxationKernel.from_params(params), params.m, params.v0, params.g
    )
    assert -traj.xdot[-1] == pytest.approx(-exact.xdot[-1], abs=1e-12)
    assert traj.t_c == pytest.approx(exact.t_c, abs=1e-12)


def _weighted_loss_factor():
    """Loss factors in [0.01, 0.99], two thirds of the draws within 0.1 of either end."""
    edge = st.floats(-2.0, -1.0).map(lambda u: 10.0**u)
    return st.one_of(st.floats(0.01, 0.99), edge, edge.map(lambda d: 1.0 - d))


@given(
    m=st.floats(-4.0, 4.0).map(lambda u: 10.0**u),
    k=st.floats(-4.0, 4.0).map(lambda u: 10.0**u),
    v0=st.floats(-4.0, 4.0).map(lambda u: 10.0**u),
    eta=_weighted_loss_factor(),
    eps0_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@settings(deadline=None, max_examples=250, derandomize=True)
def test_kv_limit_matches_closed_form_at_every_scale(m, k, v0, eta, eps0_share):
    """The default-step oracle keeps t_c and e* of the pair to 1e-9 relative,
    with or without weight, over eight decades of m, k and v0."""
    if eps0_share > 0.0:
        lo, hi = 1e-4, 0.9 * kv_find_critical_eps0(eta)
        eps0 = lo + eps0_share * (hi - lo)
    else:
        eps0 = 0.0
    omega0 = math.sqrt(k / m)
    params = KelvinVoigtParams(m=m, k=k, b=2.0 * eta * m * omega0, v0=v0, g=eps0 * omega0 * v0)
    if eps0 == 0.0:
        met = kv_metrics(params)
        t_c, e_star = met.t_c, met.e_star
    else:
        exact = kv_drop_trajectory(params)
        t_c, e_star = exact.t_c, -exact.xdot[-1] / v0
    traj = integrate_impact_with_gravity(RelaxationKernel.from_params(params), m, v0, params.g)
    assert traj.t_c == pytest.approx(t_c, rel=1e-9)
    assert -traj.xdot[-1] / v0 == pytest.approx(e_star, rel=1e-9)



_decades = st.floats(-4.0, 4.0).map(lambda u: 10.0**u)


def _assert_zero_gravity_oracle_matches(params, met):
    """The default-step oracle at g = 0 keeps t_c and e* to 1e-9 relative."""
    traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
    assert traj.t_c == pytest.approx(met.t_c, rel=1e-9)
    assert -traj.xdot[-1] / params.v0 == pytest.approx(met.e_star, rel=1e-9)


@given(m=_decades, k=_decades, v0=_decades, zeta=_weighted_loss_factor())
@settings(deadline=None, max_examples=250, derandomize=True)
def test_maxwell_kernel_matches_closed_form_at_every_scale(m, k, v0, zeta):
    """The series pair's companion of the kv_limit test above, at g = 0."""
    params = MaxwellParams(m=m, k=k, b=k / (2.0 * zeta * math.sqrt(k / m)), v0=v0)
    _assert_zero_gravity_oracle_matches(params, mx_metrics(params))


@given(
    m=_decades,
    k=_decades,
    v0=_decades,
    Lambda=st.floats(-2.0, 2.0).map(lambda u: 10.0**u),
    rho=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
)
@settings(deadline=None, max_examples=250, derandomize=True)
def test_sls_kernel_matches_closed_form_at_every_scale(m, k, v0, Lambda, rho):
    """The three-element companion of the kv_limit test above, at g = 0: k is the
    instantaneous stiffness k0, and k2, b realize rho and Lambda."""
    tau_R = math.sqrt(Lambda * m / k)
    params = StandardSolidParams(
        m=m, k1=k, k2=k * rho / (1.0 - rho), b=tau_R * k / (1.0 - rho), v0=v0
    )
    _assert_zero_gravity_oracle_matches(params, sls_metrics(params))


def _heun_block_map_stepwise(psi, dt, alpha, B):
    """The table scheme's block map built one Heun step at a time."""

    def step(v, acc, xi, gamma, hist):
        v_pred = v + dt * acc
        acc_pred = gamma - alpha * (dt * (hist + 0.5 * psi[0] * v_pred))
        dv = 0.5 * dt * (acc + acc_pred)
        F = dt * (hist + 0.5 * psi[0] * (v + dv))
        return dv, gamma - alpha * F, 0.5 * dt * (v + v_pred), F

    P = np.array(step(*np.eye(5)))
    w = psi[B:0:-1].copy()
    basis = np.eye(B + 4)
    X = basis[:5].copy()
    rows = np.empty((4, B, B + 4))
    for r in range(B):
        X[4] = basis[4 + r] + w[B - r :] @ rows[0, :r]
        out = P @ X
        out[0] += X[0]
        out[2] += X[2]
        rows[:, r] = out
        X[:3] = out[:3]
    return rows


class TestDoubling:
    """The doubled block-level maps are the step-by-step ones, regrouped."""

    def test_block_powers_match_sequential_blocks(self):
        kern = RelaxationKernel(k0=2.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.3), thetas=(0.5, 2.0))
        A, c = oracle._linear_system(kern, 1.0, 1.0, 0.2)[:2]
        for dt in (1e-3, 0.05):
            Ds, Ss = oracle._step_powers(*oracle._rk4_increment(A, c, dt), DEFAULT_BLOCK)
            D, q = Ds[-1], Ss[-1]
            P, R = oracle._step_powers(D, q, oracle._BATCH)
            assert P.shape[0] == R.shape[0] == oracle._BATCH
            y = np.array([0.0, 1.0, 0.0, 0.0])
            z = y
            for k in range(oracle._BATCH):
                z = z + (D @ z + q)
                assert np.max(np.abs(y + (P[k] @ y + R[k]) - z)) <= 1e-14 * np.max(np.abs(z))

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_heun_block_map_matches_stepwise_build(self, gamma):
        table = _sls_table(params_from_groups(0.5, 0.4), 1e-3)
        alpha = table.alpha_per_mass
        dt = 4e-3
        psi = table.psi(np.arange(DEFAULT_BLOCK + 1) * dt)
        doubled = oracle._heun_block_map(psi, dt, alpha).reshape(4, DEFAULT_BLOCK, -1)
        stepwise = _heun_block_map_stepwise(psi, dt, alpha, DEFAULT_BLOCK)
        # A block start mid-contact: v, acc, xi, gamma and the lagged history sums.
        u = np.concatenate([[-0.3, -0.5, 0.8, gamma], 0.7 + 0.01 * np.arange(DEFAULT_BLOCK)])
        for got, expected in zip(doubled, stepwise):
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
            assert np.max(np.abs(got @ u - expected @ u)) <= 1e-13 * np.max(np.abs(expected @ u))

    @pytest.mark.parametrize("kind", ["sls", "kv_limit"])
    def test_batch_size_does_not_change_contact_end(self, monkeypatch, kind):
        kern = (RelaxationKernel.sls(1.0, 1.0, 0.5) if kind == "sls"
                else RelaxationKernel.kv_limit(1.0, 0.6))
        # Place the contact end half a step past a node three batches in;
        # the step is in relaxation times.
        nodes_before_end = 3 * DEFAULT_BLOCK * oracle._BATCH + 100
        dt = integrate_impact(kern, 1.0, 1.0).t_c / kern.tau_R / (nodes_before_end + 0.5)
        batched = _contact_end(kern, dt)
        monkeypatch.setattr(oracle, "_BATCH", 1)
        unbatched = _contact_end(kern, dt)
        assert batched[2] == unbatched[2] == nodes_before_end + 2
        assert batched[0] == pytest.approx(unbatched[0], abs=1e-13)
        assert batched[1] == pytest.approx(unbatched[1], abs=1e-13)


class TestFirstReturn:
    """The contact-end rule shared by the linear and table paths."""

    def test_force_that_never_rises(self):
        assert oracle._first_return(np.array([0.0, -1.0, 0.0, -2.0]), False) == (None, False)

    def test_rise_at_last_node(self):
        assert oracle._first_return(np.array([0.0, -1.0, 2.0]), False) == (None, True)

    def test_zero_before_rise_is_not_a_return(self):
        assert oracle._first_return(np.array([0.0, 1.0, 2.0]), False) == (None, True)
        assert oracle._first_return(np.array([0.0, -1.0, 1.0, -0.5]), False) == (3, True)

    def test_zero_after_rise_is_a_return(self):
        assert oracle._first_return(np.array([1.0, 0.0, 1.0]), False) == (1, True)
        assert oracle._first_return(np.array([-1.0, 2.0, 3.0, 0.0, -1.0]), False) == (3, True)

    def test_started_on_entry(self):
        assert oracle._first_return(np.array([0.0, 1.0]), True) == (0, True)
        assert oracle._first_return(np.array([2.0, 1.0]), True) == (None, True)
        assert oracle._first_return(np.array([2.0, -1.0, 0.0]), True) == (1, True)


class TestKernelProbe:
    """The monotonicity probe runs only where an increase is possible."""

    def test_increasing_table_warns(self):
        with pytest.warns(UserWarning, match="non-increasing"):
            RelaxationKernel.from_table([0.0, 1.0, 2.0], [1.0, 0.5, 0.7], k0=1.0, tau_R=1.0)

    def test_table_rising_past_ten_warns(self):
        """The table's own samples are checked, not a probe on [0, 10]."""
        with pytest.warns(UserWarning, match="after tau = 10;"):
            RelaxationKernel.from_table([0.0, 10.0, 20.0], [1.0, 0.5, 0.9], k0=1.0, tau_R=1.0)

    def test_sum_rising_late_warns(self):
        """``0.5 + 0.6 exp(-tau/20) - 0.1 exp(-tau/1000)`` rises from tau near 116."""
        with pytest.warns(UserWarning, match="non-increasing"):
            RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.5, cs=(0.6, -0.1), thetas=(20.0, 1000.0))

    def test_fast_rise_warns(self):
        """``0.5 + 0.6 exp(-tau/1e-5) - 0.1 exp(-tau/1e-4)`` dips to about 0.4 by
        tau 5e-5 and rises back to 0.5, all within the first 0.01 of tau."""
        with pytest.warns(UserWarning, match="increases after tau = "):
            RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.5, cs=(0.6, -0.1), thetas=(1e-5, 1e-4))

    def test_subnormal_time_constant_is_probed(self):
        """A tenth of 5e-324 underflows to 0; the grid starts at the smallest normal float."""
        with pytest.warns(UserWarning, match="non-increasing") as record:
            RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.5, cs=(0.6, -0.1), thetas=(5e-324, 1.0))
        assert [w.category for w in record] == [UserWarning]

    def test_probe_past_the_float_range_warns_only_of_the_rise(self):
        """Probing to 1e308 overflows tau / theta of the fast term, which is then 0."""
        with pytest.warns(UserWarning, match="non-increasing") as record:
            RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.5, cs=(0.6, -0.1), thetas=(1e-5, 1e307))
        assert [w.category for w in record] == [UserWarning]

    def test_negative_coefficient_is_probed(self, monkeypatch):
        def refuse(self, tau):
            raise AssertionError("probed")

        monkeypatch.setattr(RelaxationKernel, "psi", refuse)
        with pytest.raises(AssertionError, match="probed"):
            RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.7, cs=(0.5, -0.2), thetas=(1.0, 3.0))

    def test_non_negative_sum_is_not_probed(self, monkeypatch):
        def refuse(self, tau):
            raise AssertionError("probed")

        monkeypatch.setattr(RelaxationKernel, "psi", refuse)
        RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.0, 0.3), thetas=(0.5, 1.0, 2.0))
        RelaxationKernel.sls(1.0, 1.0, 0.5)
        RelaxationKernel.maxwell(1.0, 2.0)
        RelaxationKernel.elastic(1.0)
        RelaxationKernel.kv_limit(1.0, 0.5)


def _row_major_reference(kernel, m, v0, g, dt, horizon):
    """The linear RK4 march with row-major batches kept in a list, then stacked."""
    A, c, fvec = oracle._linear_system(kernel, m, v0, g)
    n = c.size
    Ds, Ss = oracle._step_powers(*oracle._rk4_increment(A, c, dt), oracle._BLOCK)
    D_blk = Ds.reshape(-1, n)
    P, R = oracle._step_powers(Ds[-1], Ss[-1], oracle._BATCH)
    n_max = int(math.ceil(horizon / dt)) + 1
    y = np.zeros(n)
    y[1] = 1.0
    started = fvec @ y > 0.0
    batches = [y[None, :]]
    i = 0
    while i < n_max:
        ends = y + (P @ y + R)
        starts = np.concatenate([y[None], ends[:-1]])
        ys = starts[:, None, :] + ((starts @ D_blk.T).reshape(-1, oracle._BLOCK, n) + Ss)
        ys[:, -1] = ends
        ys = ys.reshape(-1, n)[: n_max - i]
        fs = ys @ fvec
        hit = fs <= 0.0
        if not started:
            risen = np.logical_or.accumulate(fs > 0.0)
            hit &= risen
            started = bool(risen[-1])
        if hit.any():
            j = int(hit.argmax())
            y0 = ys[j - 1] if j else y
            s = oracle._step_zero(A, c, fvec, y0, dt)
            end = (i + j) * dt + s * dt
            nodes = np.vstack(batches + [ys[:j]])
            # An end that rounds onto node i + j takes that node's place.
            if not kernel.tau_R * end > kernel.tau_R * ((i + j) * dt):
                nodes = nodes[:-1]
            D_s, q_s = oracle._rk4_increment(A, c, s * dt)
            states = np.vstack([nodes, y0 + (D_s @ y0 + q_s)])
            tau = np.append(np.arange(len(nodes)) * dt, end)
            return oracle._trajectory(kernel, m, v0, c[1], tau, states[:, 0], states[:, 1],
                                      states @ fvec)
        batches.append(ys)
        y = ys[-1]
        i += len(ys)
    raise AssertionError("no contact end")


class TestStateMajorNodes:
    """Nodes written once into a state-major array are the row-major march's."""

    @staticmethod
    def _assert_matches_row_major(kernel, m=1.0, v0=1.0, g=0.0, dt_scaled=None):
        dt, horizon = _grid(kernel, m, dt_scaled)
        expected = _row_major_reference(kernel, m, v0, g, dt, horizon)
        got = integrate_impact_with_gravity(kernel, m, v0, g, dt_scaled=dt_scaled)
        assert got.times.size == expected.times.size
        names = ("times", "x", "xdot", "xddot", "F")
        nbytes = sum(getattr(got, name).nbytes for name in names)
        for name in names:
            col, ref = getattr(got, name), getattr(expected, name)
            # No column keeps an array larger than the trajectory alive.
            assert (col if col.base is None else col.base).nbytes <= nbytes
            assert np.max(np.abs(col - ref)) <= 1e-15 * np.max(np.abs(ref))
        return got.times.size

    @pytest.mark.parametrize(
        "nodes_before_end",
        [1000, DEFAULT_BLOCK * oracle._BATCH - 1, DEFAULT_BLOCK * oracle._BATCH,
         3 * DEFAULT_BLOCK * oracle._BATCH],
        ids=["first-batch", "ends-at-batch-end", "ends-at-next-batch-start", "grows"],
    )
    def test_contact_end_placement(self, nodes_before_end):
        kern = RelaxationKernel.sls(1.0, 1.0, 0.5)
        # The first node at or below zero force is ``nodes_before_end + 1``.
        dt = integrate_impact(kern, 1.0, 1.0).t_c / (nodes_before_end + 0.5)
        assert self._assert_matches_row_major(kern, dt_scaled=dt) == nodes_before_end + 2

    def test_near_critical_series_pair(self):
        # Maxwell at zeta 0.996 runs about 1.1e5 nodes, 27 batches.
        kern = RelaxationKernel.from_params(MaxwellParams(m=1.0, k=1.0, b=1.0 / 1.992, v0=1.0))
        assert self._assert_matches_row_major(kern) > 1e5

    def test_spring_dashpot_under_gravity(self):
        self._assert_matches_row_major(RelaxationKernel.kv_limit(2.0, 0.8), m=0.5, v0=1.0, g=0.05)

    def test_many_exponentials(self):
        kern = RelaxationKernel(k0=2.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.2, 0.1),
                                thetas=(0.5, 2.0, 1.0))
        self._assert_matches_row_major(kern, m=1.5, v0=2.0, g=0.4)

    def test_single_step_blocks_and_batches(self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK", 1)
        monkeypatch.setattr(oracle, "_BATCH", 1)
        kern = RelaxationKernel.sls(1.0, 1.0, 0.5)
        dt = integrate_impact(kern, 1.0, 1.0).t_c / 300.5
        assert self._assert_matches_row_major(kern, dt_scaled=dt) == 302


class TestContactEndPinned:
    """The contact end and every node of the linear march, pinned to the last bit.

    The nodes are written as output columns, but the contact end is found
    from states rebuilt in increment form from their block start, so any
    change in how a node state is rounded shows here.  The values were
    taken with OpenBLAS 0.3.31; a BLAS that sums small products in another
    order may move them in the last bit.
    """

    @pytest.mark.parametrize("kernel, m, v0, g, t_c, e_star", [
        (RelaxationKernel.elastic(1.0), 1.0, 1.0, 0.0,
         "0x1.921fb54442d15p+1", "0x1.0000000000001p+0"),
        (RelaxationKernel.kv_limit(2.0, 0.8), 0.5, 1.0, 0.0,
         "0x1.43cf04eaa983ap+0", "0x1.744062a8e27aep-2"),
        (RelaxationKernel.kv_limit(2.0, 0.8), 0.5, 1.0, 0.05,
         "0x1.504a388409eddp+0", "0x1.6bfd42a70ee12p-2"),
        (RelaxationKernel.maxwell(1.0, 0.6), 1.0, 1.0, 0.0,
         "0x1.6bbc166717e58p+2", "0x1.1f7561c7be37ap-7"),
        (RelaxationKernel.from_params(params_from_groups(1.0, 0.5)), 1.0, 1.0, 0.0,
         "0x1.ba0e72f85a24bp+1", "0x1.5d3c63ae54938p-1"),
        (RelaxationKernel(k0=2.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.2, 0.1),
                          thetas=(0.5, 2.0, 1.0)), 1.5, 2.0, 0.4,
         "0x1.0582d35f8eeb9p+2", "0x1.9dcf6ffc01be8p-2"),
        # zeta 0.996: about 1.1e5 nodes, 27 batches.
        (RelaxationKernel.from_params(MaxwellParams(m=1.0, k=1.0, b=1.0 / 1.992, v0=1.0)),
         1.0, 1.0, 0.0, "0x1.19462520afcc6p+5", "0x1.64c32fe03c589p-51"),
    ], ids=["elastic", "kv_limit", "kv_limit-gravity", "maxwell", "sls", "exp-sum-3",
            "maxwell-zeta-0.996"])
    def test_contact_end_bits(self, kernel, m, v0, g, t_c, e_star):
        traj = integrate_impact_with_gravity(kernel, m, v0, g)
        assert traj.t_c.hex() == t_c
        assert float(-traj.xdot[-1] / v0).hex() == e_star
        assert traj.x[0] == 0.0
        assert traj.xdot[0] == v0

    @pytest.mark.parametrize("kernel, m, v0, g, nodes, digest", [
        (RelaxationKernel.elastic(1.0), 1.0, 1.0, 0.0, 10001, "6bd673c47903ab2f"),
        (RelaxationKernel.kv_limit(2.0, 0.8), 0.5, 1.0, 0.0, 8054, "8d1b08f2ad1a0347"),
        (RelaxationKernel.kv_limit(2.0, 0.8), 0.5, 1.0, 0.05, 8364, "8a4db5660d53057b"),
        (RelaxationKernel.maxwell(1.0, 0.6), 1.0, 1.0, 0.0, 18092, "36586b57fde0c2c9"),
        (RelaxationKernel.from_params(params_from_groups(1.0, 0.5)), 1.0, 1.0, 0.0,
         10995, "89409419a493e716"),
        (RelaxationKernel(k0=2.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.2, 0.1),
                          thetas=(0.5, 2.0, 1.0)), 1.5, 2.0, 0.4, 15020, "8cd2de4e122ae785"),
        (RelaxationKernel.from_params(MaxwellParams(m=1.0, k=1.0, b=1.0 / 1.992, v0=1.0)),
         1.0, 1.0, 0.0, 111917, "3749e7fb0c572ea0"),
    ], ids=["elastic", "kv_limit", "kv_limit-gravity", "maxwell", "sls", "exp-sum-3",
            "maxwell-zeta-0.996"])
    def test_every_node_digest(self, kernel, m, v0, g, nodes, digest):
        """SHA-256 of the five columns' bytes, in the order times, x, xdot, xddot, F."""
        traj = integrate_impact_with_gravity(kernel, m, v0, g)
        sha = hashlib.sha256()
        for col in (traj.times, traj.x, traj.xdot, traj.xddot, traj.F):
            sha.update(col.tobytes())
        assert traj.times.size == nodes
        assert sha.hexdigest()[:16] == digest


class TestBoundedMemory:
    """The march keeps little beside the trajectory it returns (ROADMAP item 8)."""

    @staticmethod
    def _traced_peak(call):
        """Peak bytes traced while ``call()`` runs, and its result or its typed error."""
        tracemalloc.start()
        try:
            out = call()
        except ViscoImpactError as exc:
            out = exc
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return out, peak

    def test_near_critical_series_pair_peaks_near_its_columns(self):
        kern = RelaxationKernel.from_params(MaxwellParams(m=1.0, k=1.0, b=1.0 / 1.992, v0=1.0))
        traj, peak = self._traced_peak(lambda: integrate_impact(kern, 1.0, 1.0))
        columns = sum(getattr(traj, name).nbytes for name in ("times", "x", "xdot", "xddot", "F"))
        assert columns > 4e6
        assert peak <= 1.1 * columns

    def test_march_that_never_separates_keeps_no_nodes(self):
        # A weighted overdamped pair at eta 100 runs to the end of its horizon.
        kern = RelaxationKernel.kv_limit(1.0, 200.0)
        out, peak = self._traced_peak(lambda: integrate_impact_with_gravity(kern, 1.0, 1.0, 0.01))
        assert isinstance(out, NoSeparationError)
        assert peak < 10e6


class TestStepZero:
    """The linear contact end is a zero of the partial RK4 step's own force."""

    @pytest.mark.parametrize("dt_scaled", [None, 0.005 * math.pi, 0.04 * math.pi],
                             ids=["default", "dt-0.005pi", "dt-0.04pi"])
    @pytest.mark.parametrize("kernel, m, v0, g", [
        (RelaxationKernel.elastic(1.0), 1.0, 1.0, 0.0),
        (RelaxationKernel.kv_limit(2.0, 0.8), 0.5, 1.0, 0.0),
        (RelaxationKernel.kv_limit(2.0, 0.8), 0.5, 1.0, 0.05),
        (RelaxationKernel.maxwell(1.0, 0.6), 1.0, 1.0, 0.0),
        (RelaxationKernel.sls(1.0, 1.0, 0.5), 1.0, 1.0, 0.0),
        (RelaxationKernel(k0=2.0, tau_R=1.0, c_inf=0.3, cs=(0.4, 0.2, 0.1),
                          thetas=(0.5, 2.0, 1.0)), 1.5, 2.0, 0.4),
    ], ids=["elastic", "kv_limit", "kv_limit-gravity", "maxwell", "sls", "exp-sum-3"])
    def test_last_force_is_zero_to_rounding(self, kernel, m, v0, g, dt_scaled):
        traj = integrate_impact_with_gravity(kernel, m, v0, g, dt_scaled=dt_scaled)
        assert abs(traj.F[-1]) <= 1e-15 * np.max(np.abs(traj.F))
        assert np.all(np.diff(traj.times) > 0.0)

    # The three-element system at rho 0.5, and a state [xi, xi', z] whose
    # force 0.275 falls at rate 1.125.
    SYSTEM = oracle._linear_system(RelaxationKernel.sls(1.0, 1.0, 0.5), 1.0, 1.0, 0.0)
    FALLING = np.array([0.3, -1.0, 0.25])

    def test_root_zeroes_the_partial_step(self):
        A, c, fvec = self.SYSTEM
        dt = 0.5
        s = oracle._step_zero(A, c, fvec, self.FALLING, dt)
        assert 0.0 < s < 1.0
        D, q = oracle._rk4_increment(A, c, s * dt)
        assert abs(fvec @ (self.FALLING + (D @ self.FALLING + q))) <= 1e-16

    def test_force_not_positive_at_the_start_ends_there(self):
        A, c, fvec = self.SYSTEM
        for y in (np.array([0.0, -1.0, 0.0]), np.array([0.3, -1.0, -0.4])):
            assert oracle._step_zero(A, c, fvec, y, 0.5) == 0.0

    def test_force_positive_at_the_end_ends_there(self):
        A, c, fvec = self.SYSTEM
        assert oracle._step_zero(A, c, fvec, self.FALLING, 0.01) == 1.0

    @pytest.mark.parametrize("s", [0.0, 1.0], ids=["step-start", "step-end"])
    def test_an_end_at_a_node_repeats_no_time(self, monkeypatch, s):
        kern = RelaxationKernel.sls(1.0, 1.0, 0.5)
        inside = integrate_impact(kern, 1.0, 1.0, dt_scaled=0.01)
        monkeypatch.setattr(oracle, "_step_zero", lambda *args: s)
        traj = integrate_impact(kern, 1.0, 1.0, dt_scaled=0.01)
        # At s = 0 the end takes the place of the last positive node.
        assert traj.times.size == inside.times.size - (s == 0.0)
        assert np.array_equal(traj.times[:-1], inside.times[: traj.times.size - 1])
        assert np.all(np.diff(traj.times) > 0.0)
        if s == 0.0:
            assert traj.times[-1] == inside.times[-2]


def test_table_abscissae_must_be_finite():
    # Interpolating toward tau = inf would hold 0.5 forever, never the last value 0.3.
    with pytest.raises(ConfigError, match="abscissae must be finite"):
        RelaxationKernel.from_table([0.0, 1.0, math.inf], [1.0, 0.5, 0.3], 1.0, 1.0)


@pytest.mark.xfail(strict=True, reason="the 4096-step batch powers lose digits on the stiff, "
                   "non-normal system of an overdamped pair (ROADMAP item 6)")
def test_overdamped_pair_converges_below_the_default_step():
    """At eta 200 a sixteenth of the default step should bring t_c within 1e-9 of
    ``2 ln(eta + kappa) / kappa``, ``kappa = sqrt(eta**2 - 1)`` (40 digits).  It
    does one step at a time; the batched march stays near 1e-7."""
    reference = 0.05991533191682377834576187752261632897967
    kern = RelaxationKernel.kv_limit(1.0, 400.0)
    dt, _ = _grid(kern)
    traj = integrate_impact(kern, 1.0, 1.0, dt_scaled=dt / 16.0)
    assert traj.t_c == pytest.approx(reference, rel=1e-9)


def _stiff_pair_t_c(eta):
    """``2 ln(eta + kappa) / kappa``, ``kappa = sqrt(eta**2 - 1)``: t_c of the pair at unit m, k."""
    kappa = math.sqrt(eta * eta - 1.0)
    return 2.0 * math.log(eta + kappa) / kappa


class TestStepRule:
    """One default step for every exp-sum and spring-dashpot kernel: the nominal
    step, capped at half the inverse of the state matrix's fastest rate."""

    @pytest.mark.parametrize("eta", [2e3, 5e3, 1e4, 3e4])
    def test_stiff_pair_matches_closed_form(self, eta):
        kern = RelaxationKernel.kv_limit(1.0, 2.0 * eta)
        assert _grid(kern)[0] == 0.5 / _rate(kern)
        assert integrate_impact(kern, 1.0, 1.0).t_c == pytest.approx(_stiff_pair_t_c(eta), rel=2e-3)

    @pytest.mark.parametrize("eta", [1e5, 1e6])
    def test_stiff_pair_past_the_step_cap_is_refused(self, eta):
        with pytest.raises(ConfigError, match="more than the 1e\\+07 allowed"):
            integrate_impact(RelaxationKernel.kv_limit(1.0, 2.0 * eta), 1.0, 1.0)

    def test_explicit_step_past_stability_is_refused(self):
        kern = RelaxationKernel.kv_limit(1.0, 4e3)
        rate = _rate(kern)
        assert _grid(kern, dt_scaled=2.4 / rate)[0] == 2.4 / rate
        message = f"step {2.6 / rate:.6g} at the state equation's fastest rate {rate:.6g} is past"
        with pytest.raises(ConfigError, match=re.escape(message)):
            integrate_impact(kern, 1.0, 1.0, dt_scaled=2.6 / rate)

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        calls = []

        def counted(A):
            calls.append(A)
            return eigvals(A)

        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        integrate_impact(RelaxationKernel.kv_limit(1.0, 4e3), 1.0, 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("dt_scaled", [None, 0.01], ids=["default", "explicit"])
    def test_rate_beyond_the_float_range_is_refused(self, dt_scaled):
        """1 / theta overflows at a subnormal time constant."""
        with pytest.warns(UserWarning, match="increases"):
            kern = RelaxationKernel(k0=1.0, tau_R=1.0, c_inf=0.4, cs=(0.7, -0.1),
                                    thetas=(5e-324, 1.0))
        with pytest.raises(ConfigError, match="beyond the float range"):
            integrate_impact(kern, 1.0, 1.0, dt_scaled=dt_scaled)

    def test_stiff_sweep_returns_or_refuses(self):
        """Every call gives a trajectory or a typed error, and NumPy never warns.

        Spring-dashpot pairs at unit m, k and v0 take loss factors
        log-uniform on [1, 1e6], some of them under weight; exponential sums
        take time constants down to 1e-6 of the nominal half period."""
        rng = np.random.default_rng(7)
        calls = [(RelaxationKernel.kv_limit(1.0, 2.0 * eta), 0.0)
                 for eta in 10.0 ** rng.uniform(0.0, 6.0, 30)]
        # A weighted march that never separates runs to the step cap, 1e7 steps.
        calls += [(RelaxationKernel.kv_limit(1.0, 2.0 * eta), 0.01)
                  for eta in 10.0 ** rng.uniform(0.0, 6.0, 4)]
        for _ in range(16):
            alpha = 10.0 ** rng.uniform(-1.0, 1.0)
            terms = int(rng.integers(1, 4))
            c_inf = rng.uniform(0.0, 0.9)
            thetas = math.pi / math.sqrt(alpha) * 10.0 ** rng.uniform(-6.0, 0.0, terms)
            cs = rng.dirichlet(np.ones(terms)) * (1.0 - c_inf)
            kern = RelaxationKernel(k0=1.0, tau_R=math.sqrt(alpha), c_inf=c_inf,
                                    cs=tuple(cs.tolist()), thetas=tuple(thetas.tolist()))
            calls.append((kern, 0.0))
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kern, g in calls:
                try:
                    traj = integrate_impact_with_gravity(kern, 1.0, 1.0, g)
                except ViscoImpactError as exc:
                    outcomes.add(type(exc).__name__)
                else:
                    assert isinstance(traj, Trajectory) and np.all(np.isfinite(traj.F))
                    outcomes.add("Trajectory")
        assert outcomes == {"Trajectory", "ConfigError", "NoSeparationError"}


class TestBenchmarkSteps:
    """The benchmark's oracle traffic keeps the nominal default step bit for bit.

    The kernels follow the oracle-crossval ranges stated in
    ``perfbench/workloads.py``: loss factors 0.05 to 0.95; Lambda and alpha
    log-uniform on [0.1, 10], rho in [0.1, 0.9]; 2 to 4 exponential terms
    with c_inf in [0.2, 0.7] and time constants log-uniform on [0.1, 10];
    m, k and v0 log-uniform on [0.1, 10], [1e2, 1e5] and [10**-0.5, 10**0.7];
    and the edge kernels, a series pair at zeta 0.996 and the three-element
    solids at (0.2, 0.05) and (0.1793653, 0.05)."""

    @staticmethod
    def _kernels(rng, n=100):
        def dims():
            return 10.0 ** rng.uniform([-1.0, 2.0, -0.5], [1.0, 5.0, 0.7])

        for _ in range(n):
            loss = rng.uniform(0.05, 0.95)
            m, k, v0 = dims()
            omega0 = math.sqrt(k / m)
            yield m, RelaxationKernel.elastic(k, 1.0 / omega0)
            for params in (
                KelvinVoigtParams(m=m, k=k, b=2.0 * loss * m * omega0, v0=v0),
                MaxwellParams(m=m, k=k, b=k / (2.0 * omega0 * loss), v0=v0),
                params_from_groups(10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.1, 0.9),
                                   m=m, v0=v0),
            ):
                yield m, RelaxationKernel.from_params(params)
            terms = int(rng.integers(2, 5))
            c_inf = rng.uniform(0.2, 0.7)
            cs = rng.dirichlet(np.ones(terms)) * (1.0 - c_inf)
            alpha = 10.0 ** rng.uniform(-1.0, 1.0)
            yield m, RelaxationKernel(k0=k, tau_R=math.sqrt(alpha * m / k), c_inf=c_inf,
                                      cs=tuple(cs.tolist()),
                                      thetas=tuple((10.0 ** rng.uniform(-1.0, 1.0, terms)).tolist()))
        for params in (MaxwellParams(m=1.0, k=1.0, b=0.5 / 0.996, v0=1.0),
                       params_from_groups(0.2, 0.05), params_from_groups(0.1793653, 0.05)):
            yield params.m, RelaxationKernel.from_params(params)

    def test_oracle_crossval_kernels_keep_the_nominal_step(self):
        for m, kern in self._kernels(np.random.default_rng(1)):
            assert _grid(kern, m)[0] == _nominal_step(kern, m)

    def test_verify_kernels_keep_the_nominal_step(self, monkeypatch):
        grids = []

        def recorded(kernel, m, dt_scaled, A):
            grid = resolve(kernel, m, dt_scaled, A)
            grids.append((kernel, m, dt_scaled, grid[0]))
            return grid

        resolve = oracle._resolve_grid
        monkeypatch.setattr(oracle, "_resolve_grid", recorded)
        run_verification()
        assert len(grids) == 13
        for kern, m, dt_scaled, dt in grids:
            assert dt_scaled is None and dt == _nominal_step(kern, m)
