"""Stress-strain pipeline, modulus extraction, and record ingestion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_impact.analysis import (
    DEFAULT_SIGMA_TARGET,
    EXPERIMENT_HEADER,
    REL_CONSTANCY_TOL,
    STANDARD_GRAVITY,
    ExperimentRecord,
    SampleGeometry,
    bundled_experiments_path,
    dynamic_modulus,
    energy_dissipation,
    ingest_table,
    linearity_report,
    solve_e10,
    stress_strain,
)
from visco_impact.errors import (
    DomainError,
    NoCrossingError,
    ParseError,
    SingularityError,
)
from visco_impact.kelvin_voigt import kv_trajectory
from visco_impact.maxwell import mx_trajectory
from visco_impact.models import (
    KelvinVoigtParams,
    MaxwellParams,
    Trajectory,
)
from visco_impact.standard_solid import params_from_groups, sls_trajectory

GEOM = SampleGeometry(a=2.5e-3, h=1.5e-3)


def _record(**overrides) -> ExperimentRecord:
    values = dict(
        h0=0.05,
        v0=0.99,
        E_max=100e6,
        E_max_sd=30e6,
        E_10=70e6,
        E_10_sd=15e6,
        sigma_max=24.5e6,
        sigma_max_sd=3.5e6,
        eps_max=0.6,
        eps_max_sd=0.13,
        e_star=0.46,
        e_star_sd=0.14,
        delta_m=2.5,
    )
    values.update(overrides)
    return ExperimentRecord(**values)


class TestGeometryAndRecords:
    def test_area(self):
        assert GEOM.area == math.pi * 2.5e-3**2

    def test_geometry_positivity(self):
        with pytest.raises(DomainError):
            SampleGeometry(a=0.0, h=1e-3)
        with pytest.raises(DomainError):
            SampleGeometry(a=1e-3, h=-1.0)

    def test_velocity_consistency_flag(self):
        free_fall = math.sqrt(2.0 * STANDARD_GRAVITY * 0.05)
        assert _record(v0=free_fall).v0_consistent
        assert _record(v0=0.99).v0_consistent
        assert not _record(v0=1.2).v0_consistent

    def test_record_positivity(self):
        with pytest.raises(DomainError):
            _record(h0=0.0)
        with pytest.raises(DomainError):
            _record(v0=-1.0)


class TestStressStrain:
    def test_elementwise_definitions(self):
        params = KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)
        traj = kv_trajectory(params, n_samples=100)
        sigma, eps = stress_strain(traj, GEOM)
        assert np.array_equal(sigma, traj.F / GEOM.area)
        assert np.array_equal(eps, traj.x / GEOM.h)


class TestDynamicModulus:
    def test_initial_value_parallel_pair(self):
        """E_dyn(0) = (h / pi a**2) k (1 - 4 eta**2) for the parallel pair."""
        params = KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)
        E = dynamic_modulus(kv_trajectory(params, n_samples=50), GEOM, params)
        expected = params.k * (1.0 - 4.0 * 0.3**2) * GEOM.h / GEOM.area
        assert E[0] == pytest.approx(expected, rel=1e-12)

    def test_initial_value_series_pair(self):
        """E_dyn(0) = (h / pi a**2) k: the dashpot has not yet relaxed."""
        params = MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0)
        E = dynamic_modulus(mx_trajectory(params, n_samples=50), GEOM, params)
        assert E[0] == pytest.approx(params.k * GEOM.h / GEOM.area, rel=1e-12)

    def test_initial_value_three_element(self):
        """E_dyn(0) uses the instantaneous stiffness k0 = k1."""
        params = params_from_groups(0.25, 0.5)
        E = dynamic_modulus(sls_trajectory(params, n_samples=50), GEOM, params)
        assert E[0] == pytest.approx(params.k1 * GEOM.h / GEOM.area, rel=1e-12)

    def test_velocity_invariance_is_exact(self):
        """The modulus curve is a material property, independent of v0."""
        curves = []
        for v0 in (0.5, 1.0, 2.0):
            params = MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=v0)
            curves.append(dynamic_modulus(mx_trajectory(params, n_samples=200), GEOM, params))
        assert np.array_equal(curves[0], curves[1], equal_nan=True)
        assert np.array_equal(curves[1], curves[2], equal_nan=True)

    def test_turning_point_masked(self):
        params = KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)
        E = dynamic_modulus(kv_trajectory(params, n_samples=2001), GEOM, params)
        assert np.isnan(E).sum() == 1

    def test_sampled_rate_matches_model_rate(self):
        """Finite differences agree with the analytic rate away from edges."""
        params = KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)
        traj = kv_trajectory(params, n_samples=2001)
        E_fd = dynamic_modulus(traj, GEOM)
        E_model = dynamic_modulus(traj, GEOM, params)
        ok = ~np.isnan(E_fd) & ~np.isnan(E_model)
        rel = np.abs((E_fd[ok] - E_model[ok]) / E_model[ok])
        assert np.max(rel) < 1e-7

    def test_sampled_rate_needs_uniform_grid(self):
        times = np.array([0.0, 0.1, 0.2, 0.35, 0.5])
        arr = np.linspace(0.0, 1.0, 5)
        traj = Trajectory(times=times, x=arr, xdot=arr + 1.0, xddot=arr, F=arr)
        with pytest.raises(DomainError, match="uniform"):
            dynamic_modulus(traj, GEOM)

    def test_sampled_rate_needs_five_points(self):
        times = np.array([0.0, 0.1, 0.2])
        arr = np.zeros(3)
        traj = Trajectory(times=times, x=arr, xdot=arr + 1.0, xddot=arr, F=arr)
        with pytest.raises(DomainError, match="5 samples"):
            dynamic_modulus(traj, GEOM)

    def test_unsupported_params_type(self):
        traj = kv_trajectory(KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0), n_samples=50)
        with pytest.raises(DomainError, match="unsupported parameter type 'object'"):
            dynamic_modulus(traj, GEOM, params=object())

    def test_all_masked_raises_singularity(self):
        times = np.linspace(0.0, 1.0, 10)
        zero = np.zeros(10)
        traj = Trajectory(times=times, x=zero, xdot=zero, xddot=zero, F=zero)
        with pytest.raises(SingularityError, match="vanishes"):
            dynamic_modulus(traj, GEOM)


class TestSolveE10:
    PARAMS = MaxwellParams(m=0.1, k=1e6, b=500.0, v0=1.2)

    def test_reference_solution(self):
        """Frozen stress-level crossing for a stiff series pair."""
        t10, E10 = solve_e10(self.PARAMS, GEOM)
        assert t10 == pytest.approx(0.00021917631720426653, rel=1e-12)
        assert E10 == pytest.approx(45118787.793639615, rel=1e-12)

    def test_crossing_residual(self):
        """The returned time satisfies the rise equation to round-off."""
        t10, _ = solve_e10(self.PARAMS, GEOM)
        d = self.PARAMS.derived
        rhs = GEOM.area * d.omega * DEFAULT_SIGMA_TARGET / (self.PARAMS.k * self.PARAMS.v0)
        residual = math.exp(-d.beta * t10) * math.sin(d.omega * t10) - rhs
        assert abs(residual) < 1e-14

    def test_modulus_below_instantaneous(self):
        _, E10 = solve_e10(self.PARAMS, GEOM)
        assert E10 < self.PARAMS.k * GEOM.h / GEOM.area

    def test_monotone_in_velocity(self):
        """Faster impacts cross the stress level earlier and stiffer."""
        out = [
            solve_e10(MaxwellParams(m=0.1, k=1e6, b=500.0, v0=v0), GEOM)
            for v0 in (1.2, 1.5, 2.0)
        ]
        t10s = [t for t, _ in out]
        E10s = [E for _, E in out]
        assert t10s[0] > t10s[1] > t10s[2]
        assert E10s[0] < E10s[1] < E10s[2]

    def test_zero_target_degenerates(self):
        t10, E10 = solve_e10(self.PARAMS, GEOM, sigma_target=0.0)
        assert t10 == 0.0
        assert E10 == self.PARAMS.k * GEOM.h / GEOM.area

    def test_negative_target_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            solve_e10(self.PARAMS, GEOM, sigma_target=-1.0)

    def test_nan_target_rejected(self):
        """A NaN target is refused before it reaches the root solve."""
        with pytest.raises(DomainError, match="sigma_target must be nonnegative, got nan"):
            solve_e10(self.PARAMS, GEOM, sigma_target=math.nan)

    def test_unreachable_target(self):
        soft = MaxwellParams(m=1.0, k=1.0, b=1.0, v0=1.0)
        with pytest.raises(NoCrossingError, match="peak force"):
            solve_e10(soft, GEOM)


class TestEnergy:
    def test_closed_form(self):
        assert energy_dissipation(0.46) == pytest.approx(1.0 - 0.46**2, rel=1e-15)
        assert energy_dissipation(0.0) == 1.0
        assert energy_dissipation(1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            energy_dissipation(-0.1)
        with pytest.raises(DomainError):
            energy_dissipation(1.1)

    @given(e=st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None)
    def test_partition_of_energy(self, e):
        loss = energy_dissipation(e)
        assert 0.0 <= loss <= 1.0
        assert loss + e**2 == pytest.approx(1.0, abs=1e-15)


class TestIngestTable:
    def test_bundled_table(self):
        path = bundled_experiments_path()
        assert path.is_file()
        records = ingest_table(path)
        assert len(records) == 4
        first = records[0]
        assert first.h0 == 0.025
        assert first.v0 == 0.70
        assert first.E_max == 86e6
        assert first.sigma_max == 15.6e6
        assert first.e_star == 0.64
        assert all(r.v0_consistent for r in records)

    def test_header_mismatch_details(self, tmp_path):
        path = tmp_path / "table.csv"
        header = list(EXPERIMENT_HEADER)
        header.remove("estar")
        header.append("bounce")
        path.write_text(",".join(header) + "\n")
        with pytest.raises(ParseError, match="missing column 'estar'; unknown column 'bounce'"):
            ingest_table(path)

    def test_header_order_enforced(self, tmp_path):
        path = tmp_path / "table.csv"
        header = list(EXPERIMENT_HEADER)
        header[0], header[1] = header[1], header[0]
        path.write_text(",".join(header) + "\n")
        with pytest.raises(ParseError, match="out of order"):
            ingest_table(path)

    def test_row_diagnostics(self, tmp_path):
        path = tmp_path / "table.csv"
        good = ",".join(["50", "0.99"] + ["1"] * 11)
        path.write_text(",".join(EXPERIMENT_HEADER) + "\n" + good + ",9\n")
        with pytest.raises(ParseError, match="expected 13 fields"):
            ingest_table(path)
        bad_value = ",".join(["50", "abc"] + ["1"] * 11)
        path.write_text(",".join(EXPERIMENT_HEADER) + "\n" + bad_value + "\n")
        with pytest.raises(ParseError, match="non-numeric value 'abc'"):
            ingest_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            ingest_table(path)


class TestLinearityReport:
    def test_bundled_records_fail_linearity(self):
        """The measured records violate every constant-parameter prediction."""
        report = linearity_report(ingest_table(bundled_experiments_path()))
        assert not report.all_pass
        assert [v.passed for v in report.verdicts] == [False, False, False]
        names = [v.name for v in report.verdicts]
        assert names == [
            "restitution-constant",
            "peak-modulus-constant",
            "stiffness-ratio-constant",
        ]
        assert report.ratio_increasing
        assert report.ratio == pytest.approx(
            (32.5e6, 24.5e6 / 0.6, 34.2e6 / 0.62, 40.5e6 / 0.68), rel=1e-12
        )

    def test_report_lines_format(self):
        report = linearity_report(ingest_table(bundled_experiments_path()))
        lines = report.lines()
        assert len(lines) == 4
        assert lines[0].startswith("restitution-constant: FAIL")
        assert f"tolerance {REL_CONSTANCY_TOL}" in lines[0]
        assert "strictly increasing" in lines[-1]

    def test_synthetic_linear_records_pass(self):
        records = [
            _record(h0=h0, v0=math.sqrt(2.0 * STANDARD_GRAVITY * h0),
                    sigma_max=24.5e6 * s, eps_max=0.6 * s)
            for h0, s in ((0.05, 1.0), (0.08, 1.26), (0.1, 1.41))
        ]
        report = linearity_report(records)
        assert report.all_pass
        assert not report.ratio_increasing

    def test_needs_two_records(self):
        with pytest.raises(DomainError, match="at least 2"):
            linearity_report([_record()])

    def test_records_sorted_by_velocity(self):
        records = [_record(h0=0.1, v0=1.40), _record(h0=0.025, v0=0.70)]
        report = linearity_report(records)
        assert report.v0 == (0.70, 1.40)
