"""Three-element solid: characteristic cubic, metrics, and pair limits."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from visco_impact.errors import DiscriminantError, DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import kv_metrics
from visco_impact.maxwell import mx_metrics
from visco_impact.models import (
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
    load_sls_params,
)
from visco_impact.oracle import (
    NoSeparationError,
    RelaxationKernel,
    integrate_impact,
    integrate_impact_with_gravity,
)
from visco_impact.standard_solid import (
    params_from_groups,
    params_near_kv,
    params_near_maxwell,
    sls_characteristic_roots,
    sls_metrics,
    sls_perturb_kv,
    sls_perturb_maxwell,
    sls_trajectory,
)

lambdas = st.floats(min_value=1e-3, max_value=10.0)
rhos = st.floats(min_value=1e-3, max_value=0.97)


def _roots_or_skip(Lambda, rho):
    try:
        return sls_characteristic_roots(Lambda, rho)
    except DiscriminantError:
        assume(False)


class TestCharacteristicRoots:
    def test_reference_roots(self):
        """Frozen roots at Lambda = 1/4, rho = 1/2."""
        r = sls_characteristic_roots(0.25, 0.5)
        assert r.lambda1 == pytest.approx(0.8774388331233465, rel=1e-13)
        assert r.beta1 == pytest.approx(0.06128058343832676, rel=1e-13)
        assert r.zeta1 == pytest.approx(0.3724308833098721, rel=1e-13)
        assert r.D == 0.359375

    @given(Lambda=lambdas, rho=rhos)
    @settings(deadline=None, max_examples=300)
    def test_vieta_relations(self, Lambda, rho):
        """Root symmetric functions must reproduce the cubic coefficients."""
        r = _roots_or_skip(Lambda, rho)
        assert r.lambda1 + 2.0 * r.beta1 == pytest.approx(1.0, abs=1e-10)
        mod2 = r.beta1**2 + r.zeta1**2
        assert 2.0 * r.beta1 * r.lambda1 + mod2 == pytest.approx(Lambda, rel=1e-9)
        assert r.lambda1 * mod2 == pytest.approx(Lambda * rho, rel=1e-9)

    @given(Lambda=lambdas, rho=rhos)
    @settings(deadline=None, max_examples=300)
    def test_cubic_residuals(self, Lambda, rho):
        r = _roots_or_skip(Lambda, rho)

        def cubic(z):
            return z**3 + z**2 + Lambda * z + Lambda * rho

        scale = 1.0 + Lambda + Lambda * rho
        assert abs(cubic(-r.lambda1)) < 1e-10 * scale
        assert abs(cubic(complex(-r.beta1, r.zeta1))) < 1e-10 * scale

    @given(Lambda=lambdas, rho=rhos)
    @settings(deadline=None, max_examples=200)
    def test_rates_positive(self, Lambda, rho):
        r = _roots_or_skip(Lambda, rho)
        assert r.lambda1 > 0.0
        assert r.beta1 > 0.0
        assert r.zeta1 > 0.0
        assert r.D > 0.0

    def test_discriminant_error_message(self):
        with pytest.raises(DiscriminantError, match="discriminant"):
            sls_characteristic_roots(0.315, 0.1)

    def test_double_root_within_rounding(self):
        """On D = 0 the rates are 0.2 and 0.4 twice; D computes to +5.6e-17 there,
        so the pair comes back as a near-double root."""
        r = sls_characteristic_roots(0.32, 0.1)
        assert r.lambda1 == pytest.approx(0.2, rel=1e-14)
        assert r.beta1 == pytest.approx(0.4, rel=1e-14)
        assert 0.0 < r.zeta1 < 1e-7

    @pytest.mark.parametrize(
        "Lambda, rho, lam, beta, zeta",
        [
            (2e-4, 1e-4, 0.9997999799959991999104698,
             1.000100020004000447651035e-4, 1.000100030011004299576944e-4),
            (1e6, 1e-4, 1.000000000099990047941731e-4,
             0.4999499999999950004976029, 999.9998749749959343716802),
            (5.8e-4, 1.5e-4, 0.9994197503608673139943447,
             2.901248195663430028276493e-4, 5.364792725918677881334799e-5),
            # lam << 1/3, where 1/3 - y cancels.
            (1e4, 1e-5, 1.000000000999990083803004e-5,
             0.499994999999995000049581, 99.99874996718746481292785),
            (100, 1e-6, 1.000000009999990154747616e-6,
             0.4999994999999950000049226, 9.987492152687818007085771),
            (10, 1e-8, 1.000000001000000012922561e-8,
             0.4999999949999999949999999, 3.122498998398558345004335),
        ],
    )
    def test_edge_roots_match_references(self, Lambda, rho, lam, beta, zeta):
        """Rates far apart at either end of Lambda, against a 50-digit solve."""
        r = sls_characteristic_roots(Lambda, rho)
        for got, ref in zip((r.lambda1, r.beta1, r.zeta1), (lam, beta, zeta)):
            assert abs(got / ref - 1.0) < 1e-11

    @pytest.mark.parametrize("Lambda, rho", [(1e4, 1e-5), (100, 1e-6), (10, 1e-8), (1e4, 1e-3)])
    def test_small_real_rate_matches_oracle(self, Lambda, rho):
        """A slow real rate, lam ~ rho, keeps t_c and e* to the oracle's rounding."""
        params = params_from_groups(Lambda, rho)
        met = sls_metrics(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
        assert traj.t_c == pytest.approx(met.t_c, rel=1e-13)
        assert -traj.xdot[-1] / params.v0 == pytest.approx(met.e_star, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sls_characteristic_roots(-1.0, 0.5)
        with pytest.raises(DomainError):
            sls_characteristic_roots(0.0, 0.5)
        with pytest.raises(DomainError):
            sls_characteristic_roots(0.25, 0.0)
        with pytest.raises(DomainError):
            sls_characteristic_roots(0.25, 1.0)
        # Both groups pass, but the real rate, about rho, rounds to 0.
        message = r"rounding at Lambda = 4\.59801e\+161, rho = 4\.73626e-156 \(real rate 0\)"
        with pytest.raises(DomainError, match=message):
            sls_characteristic_roots(4.598013541890046e161, 4.736258723475849e-156)

    def test_branch_continuity_at_one_third(self):
        """The switch from cosh to sinh at Lambda = 1/3 must be removable."""
        below = sls_characteristic_roots(1.0 / 3.0 - 1e-9, 0.05)
        at = sls_characteristic_roots(1.0 / 3.0, 0.05)
        above = sls_characteristic_roots(1.0 / 3.0 + 1e-9, 0.05)
        for field in ("lambda1", "beta1", "zeta1"):
            lo, mid, hi = (getattr(r, field) for r in (below, at, above))
            assert abs(hi - lo) < 1e-6
            assert abs(mid - lo) < 1e-6


class TestMetricsAndTrajectory:
    def test_reference_metrics(self):
        """Frozen metrics at (Lambda, rho) = (1/4, 1/2), unit scales.

        The peak times are the exact roots of the analytic derivatives of
        the indentation, found by ``brentq`` independently of the package.
        """
        met = sls_metrics(params_from_groups(0.25, 0.5))
        assert met.t_c == pytest.approx(3.8467851624465403, rel=1e-10)
        assert met.e_star == pytest.approx(0.7026422505652281, rel=1e-10)
        assert met.t_m == pytest.approx(1.951060926139032, rel=1e-12)
        assert met.x_m == pytest.approx(1.1756238753202426, rel=1e-10)
        assert met.t_M == pytest.approx(1.5837675485448082, rel=1e-12)
        assert met.F_M == pytest.approx(0.6899915735927215, rel=1e-10)
        assert met.x_M == pytest.approx(1.1300399922729358, rel=1e-12)
        assert met.F_m == pytest.approx(0.6619303005527061, rel=1e-12)

    def test_trajectory_boundaries_and_force(self):
        params = params_from_groups(0.25, 0.5, m=0.2, v0=1.2)
        met = sls_metrics(params)
        traj = sls_trajectory(params, n_samples=400)
        assert traj.x[0] == 0.0
        assert traj.xdot[0] == pytest.approx(params.v0, rel=1e-14)
        assert np.array_equal(traj.F, -params.m * traj.xddot)
        assert abs(traj.F[0]) < 1e-12 * met.F_M
        assert abs(traj.F[-1]) < 1e-9 * met.F_M
        assert traj.xdot[-1] == pytest.approx(-met.e_star * params.v0, rel=1e-9)

    def test_trajectory_satisfies_scaled_cubic_ode(self):
        """xi''' + xi'' + Lambda xi' + Lambda rho xi = 0 in relaxation units."""
        Lambda, rho = 0.25, 0.5
        params = params_from_groups(Lambda, rho)
        tau_R = params.derived.tau_R
        traj = sls_trajectory(params, n_samples=6000)
        tau = traj.times / tau_R
        xi = traj.x / (params.v0 * tau_R)
        xi_d = traj.xdot / params.v0
        xi_dd = traj.xddot * tau_R / params.v0
        xi_ddd = np.gradient(xi_dd, tau)
        residual = xi_ddd + xi_dd + Lambda * xi_d + Lambda * rho * xi
        assert np.max(np.abs(residual[2:-2])) < 1e-3

    def test_peaks_dominate_sampled_trajectory(self):
        params = params_from_groups(0.8, 0.3, v0=2.0)
        met = sls_metrics(params)
        traj = sls_trajectory(params, n_samples=2000)
        assert met.x_m >= np.max(traj.x) - 1e-12
        assert met.F_M >= np.max(traj.F) - 1e-12
        assert 0.0 < met.t_M < met.t_m < met.t_c

    @given(
        Lambda=st.floats(min_value=0.02, max_value=0.28),
        rho=st.floats(min_value=0.05, max_value=0.9),
        m=st.floats(min_value=0.1, max_value=10.0),
        v0=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(deadline=None, max_examples=40)
    def test_restitution_in_unit_interval(self, Lambda, rho, m, v0):
        """Either sign of D: the draws cover the window at rho < 1/9."""
        met = sls_metrics(params_from_groups(Lambda, rho, m=m, v0=v0))
        assert 0.0 < met.e_star < 1.0


class TestParameterMakers:
    def test_groups_round_trip(self):
        params = params_from_groups(0.37, 0.42, m=2.5, v0=0.7)
        d = params.derived
        assert d.Lambda == pytest.approx(0.37, rel=1e-14)
        assert d.rho == pytest.approx(0.42, rel=1e-14)
        assert d.omega0 == pytest.approx(1.0, rel=1e-14)

    def test_near_kv_derived_groups(self):
        d = params_near_kv(0.3, 0.2).derived
        assert d.tau_R == pytest.approx(2.0 * 0.3 * 0.2 * 0.8, rel=1e-14)
        assert d.Lambda == pytest.approx(4.0 * 0.3**2 * 0.2 * 0.8**2, rel=1e-14)

    def test_near_maxwell_derived_groups(self):
        d = params_near_maxwell(0.3, 0.2).derived
        assert d.tau_R == pytest.approx(0.8 / 0.6, rel=1e-14)
        assert d.Lambda == pytest.approx(0.8**2 / (4.0 * 0.09), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            params_from_groups(0.0, 0.5)
        with pytest.raises(DomainError):
            params_from_groups(0.25, 1.5)


    def test_weight_is_optional_and_nonnegative(self, tmp_path):
        assert params_from_groups(0.25, 0.5).g == 0.0
        for g in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                StandardSolidParams(m=1.0, k1=1.0, k2=1.0, b=1.0, v0=1.0, g=g)
        for keys in ({"k1": 2.0, "k2": 1.0, "b": 0.5}, {"kappa1": 1.0, "kappa2": 1.0, "beta": 1.0}):
            path = tmp_path / "sls.json"
            path.write_text(json.dumps({"m": 1.0, "v0": 1.0, "g": 0.5, **keys}))
            assert load_sls_params(path).g == 0.5


class TestPairLimits:
    def test_exact_metrics_converge_to_parallel_pair(self):
        pair = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0))
        met = sls_metrics(params_near_kv(0.3, 1e-4))
        assert met.t_c == pytest.approx(pair.t_c, abs=5e-4)
        assert met.e_star == pytest.approx(pair.e_star, abs=5e-4)

    def test_exact_metrics_converge_to_series_pair(self):
        pair = mx_metrics(MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0))
        met = sls_metrics(params_near_maxwell(0.3, 1e-4))
        assert met.t_c == pytest.approx(pair.t_c, abs=5e-4)
        assert met.e_star == pytest.approx(pair.e_star, abs=5e-4)

    def test_perturbation_reduces_to_pair_at_zero(self):
        pair = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0))
        tc, e = sls_perturb_kv(0.3, 0.0)
        assert tc == pytest.approx(pair.t_c, rel=1e-14)
        assert e == pytest.approx(pair.e_star, rel=1e-14)
        pair = mx_metrics(MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0))
        tc, e = sls_perturb_maxwell(0.3, 0.0)
        assert tc == pytest.approx(pair.t_c, rel=1e-14)
        assert e == pytest.approx(pair.e_star, rel=1e-14)

    @pytest.mark.parametrize(
        ("maker", "perturb"),
        [(params_near_kv, sls_perturb_kv), (params_near_maxwell, sls_perturb_maxwell)],
        ids=["parallel", "series"],
    )
    def test_perturbation_residual_is_second_order(self, maker, perturb):
        """Halving rho must cut the first-order residual about fourfold."""
        residuals = []
        for rho in (0.05, 0.025):
            exact = sls_metrics(maker(0.3, rho))
            tc, e = perturb(0.3, rho)
            residuals.append((abs(exact.t_c - tc), abs(exact.e_star - e)))
        for first, second in zip(residuals[0], residuals[1]):
            assert 3.0 < first / second < 5.0

    def test_perturbation_domain_errors(self):
        with pytest.raises(DomainError):
            sls_perturb_kv(1.5, 0.1)
        with pytest.raises(DomainError):
            sls_perturb_maxwell(0.0, 0.1)

    @pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: sls_perturb_kv returns a negative "
                       "contact time once the first-order term outgrows tc0 (ROADMAP item 19)")
    def test_perturbation_contact_time_stays_positive(self):
        tc, _ = sls_perturb_kv(0.98, 0.9)
        assert tc > 0.0


def _dead_window(rho):
    """``(Lambda_lo, Lambda_hi)``, the ends of the ``D <= 0`` window at ``rho``."""
    b = 1.0 + 18.0 * rho - 27.0 * rho**2
    root = math.sqrt(b * b - 64.0 * rho)
    return (b - root) / 8.0, (b + root) / 8.0


_LO = _dead_window(0.05)[0]


def _sampled_peak(values):
    """Peak of a sampled curve, from the parabola through its three top samples."""
    i = int(np.argmax(values))
    a, b, c = values[i - 1 : i + 2]
    return b - (a - c) ** 2 / (8.0 * (a - 2.0 * b + c))


def _oracle_metrics(params, g=0.0):
    """``(t_c, e_star, x_m, F_M)`` from the oracle, or None without separation."""
    kernel = RelaxationKernel.from_params(params)
    try:
        traj = integrate_impact_with_gravity(kernel, params.m, params.v0, g)
    except NoSeparationError:
        return None
    return traj.t_c, -traj.xdot[-1] / params.v0, _sampled_peak(traj.x), _sampled_peak(traj.F)


def _assert_matches_oracle(met, params, rel, g=0.0):
    ref = _oracle_metrics(params, g)
    assert ref is not None
    got = (met.t_c, met.e_star, met.x_m, met.F_M)
    for name, value, expected in zip(("t_c", "e_star", "x_m", "F_M"), got, ref):
        assert value == pytest.approx(expected, rel=rel), name


class TestBothSignsOfD:
    """One modal closed form on either side of ``D = 0``, checked by the oracle."""

    @pytest.mark.parametrize("Lambda, rho", [(0.2, 0.05), (0.316, 0.1)])
    def test_dead_window_matches_oracle(self, Lambda, rho):
        params = params_from_groups(Lambda, rho)
        with pytest.raises(DiscriminantError):
            sls_characteristic_roots(Lambda, rho)
        met = sls_metrics(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
        assert met.t_c == pytest.approx(traj.t_c, rel=1e-9)
        assert met.e_star == pytest.approx(-traj.xdot[-1], rel=1e-9)
        _assert_matches_oracle(met, params, rel=1e-9)

    def test_dead_window_reference_restitution(self):
        assert sls_metrics(params_from_groups(0.2, 0.05)).e_star == pytest.approx(
            0.1617788981, abs=1e-10
        )

    @pytest.mark.parametrize("delta", [1e-10, 1e-7, 1e-4])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    @pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
    def test_continuity_across_window_ends(self, end, side, delta):
        """Just inside and just outside either end of the window at rho = 0.05."""
        Lambda = _dead_window(0.05)[end] * (1.0 + side * delta)
        params = params_from_groups(Lambda, 0.05)
        _assert_matches_oracle(sls_metrics(params), params, rel=1e-8)

    def test_slow_pair_matches_oracle(self):
        """At small Lambda the pair decays 1e4 times slower than the real mode."""
        params = params_from_groups(2e-4, 1e-4)
        met = sls_metrics(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
        assert met.t_c == pytest.approx(traj.t_c, rel=1e-11)
        assert met.e_star == pytest.approx(-traj.xdot[-1], rel=1e-11)

    @pytest.mark.parametrize("Lambda, rho", [(0.32, 0.1), (0.3125, 0.1)])
    def test_double_root_matches_oracle(self, Lambda, rho):
        """At D = 0 exactly two rates coincide, and the pair becomes ``C + S t``."""
        params = params_from_groups(Lambda, rho)
        _assert_matches_oracle(sls_metrics(params), params, rel=1e-8)

    @pytest.mark.parametrize("eps0", [0.01, 0.05])
    @pytest.mark.parametrize(
        "Lambda, rho",
        [
            (4.0, 0.2),
            (_LO * (1.0 - 1e-3), 0.05),
            (_LO * (1.0 + 1e-3), 0.05),
            (0.2, 0.05),
        ],
        ids=["D>0", "D>0 near 0", "D<0 near 0", "D<0"],
    )
    def test_drop_matches_oracle(self, Lambda, rho, eps0):
        """Unit m, k0 and v0, so ``g = eps0``; a plastic drop is plastic for both."""
        params = dataclasses.replace(params_from_groups(Lambda, rho), g=eps0)
        if _oracle_metrics(params, eps0) is None:
            with pytest.raises(PlasticImpactError):
                sls_metrics(params)
            with pytest.raises(PlasticImpactError):
                sls_trajectory(params)
            return
        met = sls_metrics(params)
        _assert_matches_oracle(met, params, rel=1e-9, g=eps0)
        traj = sls_trajectory(params, n_samples=50)
        assert traj.t_c == met.t_c
        assert traj.xdot[-1] == pytest.approx(-met.e_star, rel=1e-15)
        assert abs(traj.F[0]) < 1e-12 * met.F_M
        assert np.array_equal(traj.F, params.m * (eps0 - traj.xddot))

    def test_drop_separates_on_both_sides(self):
        """At eps0 = 0.01 the drops near D = 0 separate, so the comparison above is not vacuous."""
        for Lambda in (_LO * (1.0 - 1e-3), _LO * (1.0 + 1e-3), 0.2):
            params = dataclasses.replace(params_from_groups(Lambda, 0.05), g=0.01)
            assert 0.0 < sls_metrics(params).e_star < 1.0

    @pytest.mark.parametrize("Lambda, rho", [(0.25, 0.5), (0.2, 0.05)])
    def test_drop_at_zero_gravity_is_the_impact(self, Lambda, rho):
        """A vanishing weight's drop tends to the impact at ``g = 0``."""
        params = params_from_groups(Lambda, rho)
        light = dataclasses.replace(params, g=1e-12)
        for name, value in vars(sls_metrics(params)).items():
            assert getattr(sls_metrics(light), name) == pytest.approx(value, rel=1e-9), name
        drop = sls_trajectory(light, 50)
        assert np.allclose(drop.F, sls_trajectory(params, 50).F, rtol=0.0, atol=1e-10)


class TestTripleRoot:
    """Next to ``Lambda = 1/3, rho = 1/9`` all three rates meet and the partial
    fractions cancel; there the closed form refuses rather than answer wrong."""

    def test_lattice_is_right_or_refused(self):
        """The refused sliver lies within 1e-11 relative of the triple root."""
        for k in range(3, 17):
            for a in (-1, 0, 1):
                for b in (-1, 0, 1):
                    params = params_from_groups((1.0 / 3.0) * (1.0 + a * 10.0**-k),
                                                (1.0 / 9.0) * (1.0 + b * 10.0**-k))
                    try:
                        met = sls_metrics(params)
                    except DiscriminantError:
                        assert k >= 12 or a == b == 0, (a, b, k)
                        continue
                    _assert_matches_oracle(met, params, rel=1e-8)

    def test_exact_triple_root_refused(self):
        with pytest.raises(DiscriminantError, match="coincide"):
            sls_metrics(params_from_groups(1.0 / 3.0, 1.0 / 9.0))

    def test_just_off_the_triple_root(self):
        params = params_from_groups((1.0 / 3.0) * (1.0 + 1e-9), 1.0 / 9.0)
        _assert_matches_oracle(sls_metrics(params), params, rel=1e-9)


class TestHugeLambda:
    """Far above the contact's time scale the dashpot locks and the solid is
    the spring k0: with unit m, k0 and v0 the impact is the elastic one."""

    @pytest.mark.parametrize("Lambda", [1e61, 1e69, 1e120, 1e160, 1e250])
    def test_metrics_are_the_elastic_limit(self, Lambda):
        # The scaled contact lasts pi / sqrt(Lambda), below 1e-30 here.
        met = sls_metrics(params_from_groups(Lambda, 0.5))
        assert met.e_star == pytest.approx(1.0, rel=1e-14)
        assert met.t_c == pytest.approx(math.pi, rel=1e-14)
        assert met.t_M == pytest.approx(0.5 * math.pi, rel=1e-14)
        assert met.F_M == pytest.approx(1.0, rel=1e-14)
        assert met.x_m == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("Lambda", [1e61, 1e69, 1e120, 1e160, 1e250])
    def test_roots_are_finite(self, Lambda):
        # The roots tend to -rho and -(1 - rho) / 2 +- i sqrt(Lambda).
        r = sls_characteristic_roots(Lambda, 0.5)
        assert r.D > 0.0
        assert r.lambda1 == pytest.approx(0.5, rel=1e-14)
        assert r.beta1 == pytest.approx(0.25, rel=1e-14)
        assert r.zeta1 == pytest.approx(math.sqrt(Lambda), rel=1e-14)
