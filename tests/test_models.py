"""Parameter containers, derived groups, conversions, and serialization."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_impact._search import MAX_SCAN_SAMPLES
from visco_impact.errors import ConfigError, DomainError, ParseError
from visco_impact.kelvin_voigt import kv_drop_trajectory, kv_find_critical_eps0, kv_trajectory
from visco_impact.maxwell import mx_drop_trajectory, mx_trajectory
from visco_impact.models import (
    _GROUP_DOMAINS,
    DerivedGroups,
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
    Trajectory,
    convert_configurations,
    derive_kv,
    derive_maxwell,
    derive_sls,
    invert_configurations,
    load_flat_json,
    load_kv_params,
    load_maxwell_params,
    load_sls_params,
)
from visco_impact.standard_solid import (
    params_from_groups,
    params_near_kv,
    params_near_maxwell,
    sls_characteristic_roots,
    sls_drop_trajectory,
    sls_perturb_kv,
    sls_perturb_maxwell,
    sls_trajectory,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


class TestDerivedGroups:
    def test_kv_groups(self):
        p = KelvinVoigtParams(m=2.0, k=8.0, b=2.4, v0=1.0)
        d = p.derived
        assert d.omega0 == pytest.approx(2.0, rel=1e-15)
        assert d.eta == pytest.approx(2.4 / (2.0 * math.sqrt(8.0 * 2.0)), rel=1e-15)
        assert d.beta == pytest.approx(d.eta * d.omega0, rel=1e-15)
        assert d.omega == pytest.approx(d.omega0 * math.sqrt(1.0 - d.eta**2), rel=1e-15)
        assert d.zeta is None and d.rho is None and d.Lambda is None

    def test_kv_elastic_allows_zero_dashpot(self):
        p = KelvinVoigtParams(m=1.0, k=1.0, b=0.0, v0=1.0)
        assert p.derived.eta == 0.0
        assert p.derived.omega == p.derived.omega0

    def test_kv_overdamped_rejected(self):
        with pytest.raises(DomainError):
            KelvinVoigtParams(m=1.0, k=1.0, b=2.0, v0=1.0)

    def test_mx_groups(self):
        p = MaxwellParams(m=1.0, k=1.0, b=1.0, v0=1.0)
        d = p.derived
        assert d.zeta == pytest.approx(0.5, rel=1e-15)
        assert d.tau_R == pytest.approx(1.0, rel=1e-15)
        assert d.beta == pytest.approx(0.5, rel=1e-15)
        assert d.eta is None

    def test_mx_gravity_group(self):
        p = MaxwellParams(m=1.0, k=100.0, b=20.0, v0=2.0, g=9.81)
        assert p.derived.eps0 == pytest.approx(9.81 / (10.0 * 2.0), rel=1e-15)

    def test_mx_overdamped_rejected(self):
        # zeta = sqrt(km) / (2b) >= 1 means no oscillatory rebound
        with pytest.raises(DomainError):
            MaxwellParams(m=1.0, k=1.0, b=0.4, v0=1.0)

    def test_mx_requires_dashpot(self):
        with pytest.raises(DomainError):
            MaxwellParams(m=1.0, k=1.0, b=0.0, v0=1.0)

    def test_sls_groups(self):
        p = StandardSolidParams(m=1.0, k1=1.0, k2=1.0, b=0.5, v0=1.0)
        d = p.derived
        assert p.k0 == 1.0
        assert p.k_inf == pytest.approx(0.5, rel=1e-15)
        assert d.rho == pytest.approx(0.5, rel=1e-15)
        assert d.tau_R == pytest.approx(0.25, rel=1e-15)
        assert d.Lambda == pytest.approx(1.0 * 0.25**2, rel=1e-15)
        assert d.omega0 == pytest.approx(1.0, rel=1e-15)

    def test_sls_relaxation_stiffness_limits(self):
        p = StandardSolidParams(m=1.0, k1=2.0, k2=1.0, b=0.5, v0=1.0)
        assert p.relaxation_stiffness(0.0) == pytest.approx(p.k0, rel=1e-15)
        assert p.relaxation_stiffness(1e3) == pytest.approx(p.k_inf, rel=1e-12)
        t = 0.37
        tau_R = p.b / (p.k1 + p.k2)
        expected = p.k_inf + (p.k0 - p.k_inf) * math.exp(-t / tau_R)
        assert p.relaxation_stiffness(t) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("field", ["m", "k", "v0"])
    def test_positivity_enforced(self, field):
        values = {"m": 1.0, "k": 1.0, "b": 0.5, "v0": 1.0}
        values[field] = 0.0
        with pytest.raises(DomainError):
            KelvinVoigtParams(**values)

    def test_negative_gravity_rejected(self):
        with pytest.raises(DomainError):
            KelvinVoigtParams(m=1.0, k=1.0, b=0.5, v0=1.0, g=-1.0)

    def test_derive_functions_match_params(self):
        kv = KelvinVoigtParams(m=1.5, k=20.0, b=3.0, v0=2.0)
        assert derive_kv(kv) == kv.derived
        mx = MaxwellParams(m=1.5, k=20.0, b=30.0, v0=2.0)
        assert derive_maxwell(mx) == mx.derived
        sls = StandardSolidParams(m=1.5, k1=20.0, k2=10.0, b=3.0, v0=2.0)
        assert derive_sls(sls) == sls.derived


class TestConfigurationConversion:
    def test_known_pair(self):
        assert convert_configurations(1.0, 1.0, 1.0) == pytest.approx((2.0, 2.0, 4.0))

    def test_round_trip_example(self):
        k1, k2, b = convert_configurations(3.0, 1.5, 0.8)
        back = invert_configurations(k1, k2, b)
        assert back == pytest.approx((3.0, 1.5, 0.8), rel=1e-12)

    @given(kappa1=positive, kappa2=positive, beta=positive)
    @settings(deadline=None)
    def test_round_trip_property(self, kappa1, kappa2, beta):
        k1, k2, b = convert_configurations(kappa1, kappa2, beta)
        kappa1_b, kappa2_b, beta_b = invert_configurations(k1, k2, b)
        assert kappa1_b == pytest.approx(kappa1, rel=1e-9)
        assert kappa2_b == pytest.approx(kappa2, rel=1e-9)
        assert beta_b == pytest.approx(beta, rel=1e-9)

    @given(kappa1=positive, kappa2=positive, beta=positive)
    @settings(deadline=None)
    def test_converted_pair_has_matching_limits(self, kappa1, kappa2, beta):
        k1, k2, b = convert_configurations(kappa1, kappa2, beta)
        # both configurations share instantaneous and long-time stiffness
        assert k1 == pytest.approx(kappa1 + kappa2, rel=1e-12)
        assert k1 * k2 / (k1 + k2) == pytest.approx(kappa1, rel=1e-9)


def _make_traj(n=5):
    t = np.linspace(0.0, 1.0, n)
    return Trajectory(times=t, x=np.sin(t), xdot=np.cos(t), xddot=-np.sin(t), F=np.sin(t))


class TestTrajectory:
    def test_validation(self):
        t = np.array([0.1, 0.2])
        with pytest.raises(ConfigError):
            Trajectory(times=t, x=t, xdot=t, xddot=t, F=t)
        with pytest.raises(ConfigError):
            Trajectory(times=np.array([0.0]), x=np.zeros(1), xdot=np.zeros(1),
                       xddot=np.zeros(1), F=np.zeros(1))
        with pytest.raises(ConfigError):
            Trajectory(times=np.array([0.0, 1.0]), x=np.zeros(3), xdot=np.zeros(2),
                       xddot=np.zeros(2), F=np.zeros(2))

    def test_t_c_is_final_time(self):
        traj = _make_traj()
        assert traj.t_c == traj.times[-1]

    def test_csv_round_trip_bit_exact(self, tmp_path):
        traj = _make_traj(17)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        for name in ("times", "x", "xdot", "xddot", "F"):
            assert np.array_equal(getattr(traj, name), getattr(back, name))

    @given(
        values=st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=2,
            max_size=12,
        ),
        steps=st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1, max_size=11),
    )
    @settings(deadline=None, max_examples=50)
    def test_csv_round_trip_property(self, values, steps, tmp_path_factory):
        n = min(len(values), len(steps) + 1)
        if n < 2:
            return
        times = np.concatenate([[0.0], np.cumsum(steps[: n - 1])])
        arr = np.array(values[:n])
        traj = Trajectory(times=times, x=arr, xdot=arr, xddot=arr, F=arr)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.x, traj.x)

    def test_from_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,v,a,force\n0,0,0,0,0\n1,0,0,0,0\n")
        with pytest.raises(ParseError):
            Trajectory.from_csv(path)


class TestJsonLoaders:
    def test_kv_round_trip(self, tmp_path):
        path = tmp_path / "kv.json"
        path.write_text(json.dumps({"m": 1.0, "k": 2.0, "b": 0.5, "v0": 1.5}))
        p = load_kv_params(path)
        assert p == KelvinVoigtParams(m=1.0, k=2.0, b=0.5, v0=1.5)
        assert p.g == 0.0

    def test_kv_optional_gravity(self, tmp_path):
        path = tmp_path / "kv.json"
        path.write_text(json.dumps({"m": 1.0, "k": 2.0, "b": 0.5, "v0": 1.5, "g": 9.81}))
        assert load_kv_params(path).g == 9.81

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "kv.json"
        path.write_text(json.dumps({"m": 1.0, "k": 2.0, "b": 0.5, "v0": 1.5, "eta": 0.3}))
        with pytest.raises(ConfigError):
            load_kv_params(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError, match="list.json: expected a flat JSON object"):
            load_flat_json(path, frozenset())

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "mx.json"
        path.write_text(json.dumps({"m": 1.0, "k": 2.0, "b": 0.5}))
        with pytest.raises(ConfigError):
            load_maxwell_params(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "kv.json"
        path.write_text(json.dumps({"m": 1.0, "k": "stiff", "b": 0.5, "v0": 1.5}))
        with pytest.raises(ConfigError):
            load_kv_params(path)
        path.write_text(json.dumps({"m": 1.0, "k": True, "b": 0.5, "v0": 1.5}))
        with pytest.raises(ConfigError):
            load_kv_params(path)

    def test_sls_series_keys(self, tmp_path):
        path = tmp_path / "sls.json"
        path.write_text(json.dumps({"m": 1.0, "k1": 2.0, "k2": 1.0, "b": 0.5, "v0": 1.0}))
        p = load_sls_params(path)
        assert p.k1 == 2.0 and p.k2 == 1.0

    def test_sls_parallel_keys_converted(self, tmp_path):
        path = tmp_path / "sls.json"
        path.write_text(
            json.dumps({"m": 1.0, "kappa1": 1.0, "kappa2": 1.0, "beta": 1.0, "v0": 1.0})
        )
        p = load_sls_params(path)
        assert (p.k1, p.k2, p.b) == pytest.approx((2.0, 2.0, 4.0), rel=1e-15)

    def test_sls_mixed_keys_rejected(self, tmp_path):
        path = tmp_path / "sls.json"
        path.write_text(
            json.dumps({"m": 1.0, "k1": 2.0, "kappa2": 1.0, "beta": 1.0, "v0": 1.0})
        )
        with pytest.raises(ConfigError):
            load_sls_params(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "kv.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_kv_params(path)


# Each public function of nondimensional groups, arguments inside every
# domain, and the groups it checks.  The expansions leave rho unchecked:
# rho = 0 is their pair limit.
GROUP_FUNCTIONS = [
    (sls_characteristic_roots, {"Lambda": 1.0, "rho": 0.5}, ("Lambda", "rho")),
    (params_from_groups, {"Lambda": 1.0, "rho": 0.5}, ("Lambda", "rho")),
    (params_near_kv, {"eta": 0.3, "rho": 0.1}, ("eta", "rho")),
    (params_near_maxwell, {"zeta": 0.3, "rho": 0.1}, ("zeta", "rho")),
    (sls_perturb_kv, {"eta": 0.3, "rho": 0.1}, ("eta",)),
    (sls_perturb_maxwell, {"zeta": 0.3, "rho": 0.1}, ("zeta",)),
    (kv_find_critical_eps0, {"eta": 0.3}, ("eta",)),
]
OUTSIDE = {
    "eta": (0.0, 1.0, -1.0, math.nan, math.inf, -math.inf),
    "zeta": (0.0, 1.0, -1.0, math.nan, math.inf, -math.inf),
    "rho": (0.0, 1.0, -1.0, math.nan, math.inf, -math.inf),
    "Lambda": (0.0, -1.0, math.nan, math.inf, -math.inf),
    "eps0": (-1.0, math.nan, math.inf, -math.inf),
}


class TestGroupDomains:
    """One domain per group, the same in every function that takes it."""

    @pytest.mark.parametrize("fn, args, group, value", [
        (fn, args, group, value)
        for fn, args, checked in GROUP_FUNCTIONS for group in checked for value in OUTSIDE[group]
    ], ids=lambda v: v.__name__ if callable(v) else None)
    def test_outside_value_names_its_group(self, fn, args, group, value):
        words = _GROUP_DOMAINS[group][1]
        with pytest.raises(DomainError, match=re.escape(f"{group} must {words}, got {value!r}")):
            fn(**dict(args, **{group: value}))

    @pytest.mark.parametrize("group", sorted(_GROUP_DOMAINS))
    def test_each_test_refuses_what_it_should(self, group):
        inside = _GROUP_DOMAINS[group][0]
        assert not any(inside(v) for v in OUTSIDE[group])
        assert inside(0.5) and inside(1e-300)

    def test_readme_lists_the_domains(self):
        """The README's domain list is the table, group for group and word for word."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = {
            name: words
            for names, words in re.findall(r"^- ((?:`\w+`, )*`\w+`) must (.+)$", readme, re.M)
            for name in re.findall(r"`(\w+)`", names)
        }
        assert listed == {name: words for name, (_, words) in _GROUP_DOMAINS.items()}


SAMPLED = [kv_trajectory, kv_drop_trajectory, mx_trajectory, mx_drop_trajectory,
           sls_trajectory, sls_drop_trajectory]


def _sampled_params(fn):
    if fn.__name__.startswith("kv"):
        return KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0)
    if fn.__name__.startswith("mx"):
        return MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0)
    return params_from_groups(1.0, 0.5)


class TestSampleCounts:
    """Every trajectory is sampled on one grid that refuses a bad count as bad input."""

    @pytest.mark.parametrize("fn", SAMPLED, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("n, message", [
        (2.5, "must be an integer"),
        ("3", "must be an integer"),
        (None, "must be an integer"),
        (-3, "got -3"),
        (1, "got 1"),
        (MAX_SCAN_SAMPLES + 1, f"got {MAX_SCAN_SAMPLES + 1}"),
    ])
    def test_bad_count_refused(self, fn, n, message):
        with pytest.raises(ConfigError, match=message):
            fn(_sampled_params(fn), n_samples=n)

    @pytest.mark.parametrize("fn", SAMPLED, ids=lambda fn: fn.__name__)
    def test_integer_types_accepted(self, fn):
        params = _sampled_params(fn)
        plain = fn(params, n_samples=5)
        for n in (np.int64(5), np.uint8(5)):
            assert np.array_equal(fn(params, n_samples=n).times, plain.times)
        assert fn(params, n_samples=2).times.tolist() == [0.0, plain.t_c]
