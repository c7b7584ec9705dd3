"""Acceptance gate: one test per release criterion.

Each test states its tolerance in the docstring and asserts exactly the
numbers the criterion names, so ``pytest -v`` reads as a pass/fail
checklist for the whole package.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from visco_impact import _modal, kelvin_voigt
from visco_impact.analysis import (
    SampleGeometry,
    bundled_experiments_path,
    dynamic_modulus,
    energy_dissipation,
    ingest_table,
    linearity_report,
)
from visco_impact.kelvin_voigt import (
    kv_drop_metrics_asymptotic,
    kv_fm_minimizer,
    kv_metrics,
    kv_trajectory,
)
from visco_impact.maxwell import (
    mx_drop_metrics_asymptotic,
    mx_metrics,
    mx_trajectory,
)
from visco_impact.biphasic import (
    BiphasicLayer,
    biphasic_force,
    pressure_profile,
    reduce_to_maxwell,
    validity_window,
)
from visco_impact.models import KelvinVoigtParams, MaxwellParams
from visco_impact.oracle import RelaxationKernel, integrate_impact
from visco_impact.standard_solid import (
    params_from_groups,
    params_near_kv,
    params_near_maxwell,
    sls_metrics,
    sls_perturb_kv,
    sls_perturb_maxwell,
    sls_trajectory,
)

# (Lambda, rho) samples with three real characteristic rates, spanning the
# stiffness-ratio range from nearly fluid to nearly elastic.
SLS_SAMPLES = ((0.25, 0.5), (0.1, 0.3), (1.0, 0.7), (0.05, 0.9), (2.0, 0.2))

GEOM = SampleGeometry(a=2.5e-3, h=1.5e-3)

REFERENCE_LAYER = BiphasicLayer(mu_s=0.25e6, lambda_s=0.0, kappa=2e-15, h=1e-3, a=5e-3)


def _kv(eta: float, v0: float = 1.0, g: float = 0.0) -> KelvinVoigtParams:
    return KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=v0, g=g)


def _mx(zeta: float, v0: float = 1.0, g: float = 0.0) -> MaxwellParams:
    return MaxwellParams(m=1.0, k=1.0, b=0.5 / zeta, v0=v0, g=g)


def test_criterion_01_elastic_limits():
    """Zero damping gives e_star = 1 and omega0 t_c = pi to 1e-10 in closed
    form for both pair models; the integrator reproduces both to 1e-6.
    Runs in under 1 s."""
    start = time.perf_counter()

    met = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=0.0, v0=1.0))
    assert abs(met.e_star - 1.0) < 1e-10
    assert abs(met.t_c - math.pi) < 1e-10

    # The series pair has no b = inf representation; a dashpot twelve
    # orders stiffer than the spring leaves a loss factor of 5e-13.
    met = mx_metrics(MaxwellParams(m=1.0, k=1.0, b=1e12, v0=1.0))
    assert abs(met.e_star - 1.0) < 1e-10
    assert abs(met.t_c - math.pi) < 1e-10

    for params in (
        KelvinVoigtParams(m=1.0, k=1.0, b=0.0, v0=1.0),
        MaxwellParams(m=1.0, k=1.0, b=1e12, v0=1.0),
    ):
        traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
        assert abs(-traj.xdot[-1] - 1.0) < 1e-6
        assert abs(traj.t_c - math.pi) < 1e-6

    assert time.perf_counter() - start < 1.0


def test_criterion_02_parallel_pair_midpoint_identity():
    """Maximum depth falls at exactly half the contact duration, to 1e-12
    relative, for 50 loss factors across (0, 0.99): the walk's first zero of
    the velocity against half the closed-form duration."""
    for eta in np.linspace(0.01, 0.98, 50):
        params = _kv(eta)
        t_c = kv_metrics(params).t_c
        xi_d = kelvin_voigt._scaled_solution(params.derived.eta)[1]
        t_m = _modal._first_zero(xi_d, kelvin_voigt.first_force_zero)
        assert abs(t_m - t_c / 2.0) <= 1e-12 * t_c


def test_criterion_03_peak_force_minimum():
    """One Brent solve of the stationarity condition puts the scaled
    peak-force minimum at a loss factor of 0.26493 +/- 5e-4, in under 1 s."""
    start = time.perf_counter()
    eta_star, fm_star = kv_fm_minimizer()
    assert eta_star == pytest.approx(0.26493, abs=5e-4)
    # The minimum is interior: both neighbours sit higher.
    for eta in (eta_star - 0.05, eta_star + 0.05):
        assert kv_metrics(_kv(eta)).F_M > fm_star
    assert time.perf_counter() - start < 1.0


def test_criterion_04_series_pair_termination():
    """Contact ends at exactly pi over the damped frequency (bit-for-bit)
    and the terminal force is below 1e-12 of the peak, for 50 loss
    factors."""
    for zeta in np.linspace(0.01, 0.98, 50):
        params = _mx(zeta)
        met = mx_metrics(params)
        d = params.derived
        assert met.t_c == math.pi / (d.omega0 * math.sqrt((1.0 - d.zeta) * (1.0 + d.zeta)))
        traj = mx_trajectory(params)
        assert abs(traj.F[-1]) < 1e-12 * met.F_M


def test_criterion_05_analytic_vs_integrator():
    """Closed-form restitution and scaled duration agree with the direct
    integrator to 1e-6 over damping grids {0.05..0.95} and five
    three-element samples; halving the step shrinks the restitution error
    by 16 +/- 4. Runs in under 30 s."""
    start = time.perf_counter()

    cases = [(_kv(eta), kv_metrics) for eta in np.arange(0.05, 0.951, 0.1)]
    cases += [(_mx(zeta), mx_metrics) for zeta in np.arange(0.05, 0.951, 0.1)]
    cases += [(params_from_groups(lam, rho), sls_metrics) for lam, rho in SLS_SAMPLES]
    # Unit mass and stiffness throughout, so omega0 = 1 and times are
    # already scaled.
    for params, metrics_fn in cases:
        met = metrics_fn(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
        assert abs(-traj.xdot[-1] / params.v0 - met.e_star) < 1e-6
        assert abs(traj.t_c - met.t_c) < 1e-6

    params = params_from_groups(0.25, 0.5)
    kernel = RelaxationKernel.from_params(params)
    exact = sls_metrics(params).e_star
    errs = []
    for frac in (0.04, 0.02, 0.01):
        traj = integrate_impact(kernel, params.m, params.v0, dt_scaled=frac * math.pi)
        errs.append(abs(-traj.xdot[-1] / params.v0 - exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0

    assert time.perf_counter() - start < 30.0


def test_criterion_06_perturbation_convergence():
    """Both first-order expansions of the three-element metrics converge
    at second order: halving the stiffness ratio from 0.05 shrinks the
    duration and restitution errors by a factor in [3.5, 4.5] at damping
    0.3, and at rho = 0.1 the errors at damping 0.9 exceed those at 0.3."""

    def errors(make_params, expand, damping, rho):
        met = sls_metrics(make_params(damping, rho))
        tc_asym, e_asym = expand(damping, rho)
        return abs(met.t_c - tc_asym), abs(met.e_star - e_asym)

    for make_params, expand in (
        (params_near_kv, sls_perturb_kv),
        (params_near_maxwell, sls_perturb_maxwell),
    ):
        coarse = errors(make_params, expand, 0.3, 0.05)
        fine = errors(make_params, expand, 0.3, 0.025)
        for c, f in zip(coarse, fine):
            assert 3.5 <= c / f <= 4.5
        mild = errors(make_params, expand, 0.3, 0.1)
        harsh = errors(make_params, expand, 0.9, 0.1)
        assert harsh[0] > mild[0]
        assert harsh[1] > mild[1]


def test_criterion_07_drop_weight_asymptotics():
    """Gravity trajectories match the small-eps0 expansions with residual
    second order in eps0 (the residual at eps0 = 0.02 stays below 4x the
    residual at 0.01); the duration correction coefficient
    (1 + e0) / e0 is shared by both pair models to 1e-12; restitution
    falls with eps0 and rises with impact speed."""

    def residual(make, traj_fn, asym_fn, damping, g):
        params = make(damping, g=g)
        traj, asym = traj_fn(params), asym_fn(params)
        e_num = -traj.xdot[-1] / params.v0
        return max(abs(traj.t_c - asym.t_c), abs(e_num - asym.e_star))

    for make, traj_fn, asym_fn in (
        (_kv, kv_trajectory, kv_drop_metrics_asymptotic),
        (_mx, mx_trajectory, mx_drop_metrics_asymptotic),
    ):
        r_coarse = residual(make, traj_fn, asym_fn, 0.05, 0.02)
        r_fine = residual(make, traj_fn, asym_fn, 0.05, 0.01)
        assert r_coarse < 4.0 * r_fine

    for damping in (0.05, 0.3, 0.6):
        g = 0.01
        kv0, mx0 = kv_metrics(_kv(damping)), mx_metrics(_mx(damping))
        kv_corr = kv_drop_metrics_asymptotic(_kv(damping, g=g)).t_c - kv0.t_c
        mx_corr = mx_drop_metrics_asymptotic(_mx(damping, g=g)).t_c - mx0.t_c
        c_kv = kv_corr * kv0.e_star / (g * (1.0 + kv0.e_star))
        c_mx = mx_corr * mx0.e_star / (g * (1.0 + mx0.e_star))
        assert c_kv == pytest.approx(1.0, abs=1e-12)
        assert abs(c_kv - c_mx) < 1e-12

    e_by_g = [
        -kv_trajectory(_kv(0.3, g=g)).xdot[-1] for g in (0.005, 0.01, 0.02)
    ]
    assert e_by_g[0] > e_by_g[1] > e_by_g[2]
    e_by_v0 = [
        -mx_trajectory(_mx(0.3, v0=v0, g=0.01)).xdot[-1] / v0
        for v0 in (0.5, 1.0, 2.0)
    ]
    assert e_by_v0[0] < e_by_v0[1] < e_by_v0[2]


def test_criterion_08_porous_layer_numbers():
    """A 1 mm layer with 0.5 MPa aggregate modulus and 2e-15 m^4/Ns
    permeability has a 1000 s +/- 1e-9 consolidation time; the contact
    pressure vanishes at the patch edge, and its disk integral equals the
    relaxation-integral force to 1e-6 relative."""
    tau_D, _ = validity_window(REFERENCE_LAYER)
    assert tau_D == pytest.approx(1000.0, abs=1e-9)

    reduced = reduce_to_maxwell(REFERENCE_LAYER, m=0.1, v0=1.0)
    traj = mx_trajectory(reduced)
    force = biphasic_force(REFERENCE_LAYER, traj.times, traj.x)

    nodes, weights = np.polynomial.legendre.leggauss(60)
    r = 0.5 * REFERENCE_LAYER.a * (nodes + 1.0)
    w = 0.5 * REFERENCE_LAYER.a * weights
    for idx in (len(traj.times) // 4, len(traj.times) // 2, len(traj.times) - 1):
        t = traj.times[idx]
        profile = pressure_profile(REFERENCE_LAYER, traj.times, traj.x, r, t)
        edge = pressure_profile(
            REFERENCE_LAYER, traj.times, traj.x, np.array([REFERENCE_LAYER.a]), t
        )
        assert edge[0] == 0.0
        disk = float(np.sum(profile * 2.0 * math.pi * r * w))
        assert disk == pytest.approx(force[idx], rel=1e-6)


def test_criterion_09_velocity_invariance():
    """Restitution, scaled duration, and the modulus-vs-time curve are
    invariant under impact speeds {0.5, 1, 2} m/s to 1e-8, while maximum
    depth and peak force scale linearly in speed to 1e-8 relative."""
    cases = (
        (lambda v0: _kv(0.3, v0=v0), kv_metrics, kv_trajectory),
        (lambda v0: _mx(0.3, v0=v0), mx_metrics, mx_trajectory),
        (
            lambda v0: params_from_groups(0.25, 0.5, v0=v0),
            sls_metrics,
            sls_trajectory,
        ),
    )
    speeds = (0.5, 1.0, 2.0)
    for make, metrics_fn, traj_fn in cases:
        mets = [metrics_fn(make(v0)) for v0 in speeds]
        ref = mets[1]
        curves = [dynamic_modulus(traj_fn(make(v0)), GEOM, make(v0)) for v0 in speeds]
        for v0, met, curve in zip(speeds, mets, curves):
            assert abs(met.e_star - ref.e_star) < 1e-8
            assert abs(met.t_c - ref.t_c) < 1e-8
            assert abs(met.x_m / v0 - ref.x_m) < 1e-8 * ref.x_m
            assert abs(met.F_M / v0 - ref.F_M) < 1e-8 * ref.F_M
            mask = np.isnan(curve)
            assert np.array_equal(mask, np.isnan(curves[1]))
            scale = np.nanmax(np.abs(curves[1]))
            assert np.nanmax(np.abs(curve - curves[1])) < 1e-8 * scale


def test_criterion_10_energy_identity():
    """One minus the squared restitution equals the integrator's
    kinetic-energy loss fraction to 1e-8 for 20 random parameter sets."""
    rng = np.random.default_rng(20260816)
    cases = []
    for _ in range(7):
        m, k = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 2)
        b = 2.0 * rng.uniform(0.05, 0.9) * math.sqrt(k * m)
        cases.append((KelvinVoigtParams(m=m, k=k, b=b, v0=rng.uniform(0.3, 3.0)), kv_metrics))
    for _ in range(7):
        m, k = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-1, 2)
        b = math.sqrt(k * m) / (2.0 * rng.uniform(0.05, 0.9))
        cases.append((MaxwellParams(m=m, k=k, b=b, v0=rng.uniform(0.3, 3.0)), mx_metrics))
    for lam, rho in SLS_SAMPLES + ((0.5, 0.6),):
        params = params_from_groups(
            lam, rho, m=10.0 ** rng.uniform(-1, 1), v0=rng.uniform(0.3, 3.0)
        )
        cases.append((params, sls_metrics))

    assert len(cases) == 20
    for params, metrics_fn in cases:
        met = metrics_fn(params)
        traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
        loss = 1.0 - (traj.xdot[-1] / params.v0) ** 2
        assert abs(energy_dissipation(met.e_star) - loss) < 1e-8


def test_criterion_11_measured_record_analysis():
    """The bundled drop-test records give the restitution sequence
    {0.64, 0.46, 0.47, 0.41}, fail the constant-restitution prediction,
    and show a strictly increasing peak-stress to peak-strain ratio."""
    records = ingest_table(bundled_experiments_path())
    assert tuple(r.e_star for r in records) == (0.64, 0.46, 0.47, 0.41)
    report = linearity_report(records)
    restitution = next(v for v in report.verdicts if v.name == "restitution-constant")
    assert not restitution.passed
    assert not report.all_pass
    assert report.ratio_increasing
    assert all(a < b for a, b in zip(report.ratio, report.ratio[1:]))
