"""Parameter containers, derived groups, conversions, and serialization."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from visco_impact import _modal, analysis, biphasic, models
from visco_impact.errors import (
    ConfigError,
    DomainError,
    ParseError,
    PlasticImpactError,
    ViscoImpactError,
)
from visco_impact.kelvin_voigt import kv_find_critical_eps0, kv_trajectory
from visco_impact.maxwell import mx_metrics, mx_trajectory
from visco_impact.models import (
    _GROUP_DOMAINS,
    MAX_SCAN_SAMPLES,
    DerivedGroups,
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
    Trajectory,
    _formula,
    _uniform_grid,
    convert_configurations,
    derive_kv,
    derive_maxwell,
    derive_sls,
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
    sls_perturb_kv,
    sls_perturb_maxwell,
    sls_trajectory,
)

positive = st.floats(min_value=1e-3, max_value=1e3)
any_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestDerivedGroups:
    def test_fields(self):
        """The groups only: each pair's damped frequency and decay rate live in its
        own module's closed form."""
        assert [f.name for f in dataclasses.fields(DerivedGroups)] == [
            "omega0", "eta", "zeta", "rho", "Lambda", "tau_R"
        ]

    def test_kv_groups(self):
        p = KelvinVoigtParams(m=2.0, k=8.0, b=2.4, v0=1.0)
        d = p.derived
        assert d.omega0 == pytest.approx(2.0, rel=1e-15)
        assert d.eta == pytest.approx(2.4 / (2.0 * math.sqrt(8.0 * 2.0)), rel=1e-15)
        assert d.zeta is None and d.rho is None and d.Lambda is None

    def test_kv_elastic_allows_zero_dashpot(self):
        p = KelvinVoigtParams(m=1.0, k=1.0, b=0.0, v0=1.0)
        assert p.derived.eta == 0.0

    def test_kv_overdamped_rejected(self):
        with pytest.raises(DomainError):
            KelvinVoigtParams(m=1.0, k=1.0, b=2.0, v0=1.0)

    def test_mx_groups(self):
        p = MaxwellParams(m=1.0, k=1.0, b=1.0, v0=1.0)
        d = p.derived
        assert d.zeta == pytest.approx(0.5, rel=1e-15)
        assert d.eta is None

    def test_mx_gravity_group(self):
        """The weight is the drop's ``gamma = g T / v0``, the paper's ``g / (omega0 v0)``."""
        p = MaxwellParams(m=1.0, k=100.0, b=20.0, v0=2.0, g=9.81)
        gamma = _modal.scaled_weight(1.0 / p.derived.omega0, p)
        assert gamma == pytest.approx(9.81 / (10.0 * 2.0), rel=1e-15)

    def test_mx_overdamped_rejected(self):
        # zeta = sqrt(km) / (2b) >= 1 means no oscillatory rebound: the pair constructs,
        # and its impact is plastic.
        params = MaxwellParams(m=1.0, k=1.0, b=0.4, v0=1.0)
        assert params.derived.zeta == 1.25
        with pytest.raises(PlasticImpactError, match="^loss factor 1.25 >= 1: "):
            mx_metrics(params)

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

    @given(kappa1=positive, kappa2=positive, beta=positive)
    @settings(deadline=None)
    def test_converted_pair_has_matching_limits(self, kappa1, kappa2, beta):
        k1, k2, b = convert_configurations(kappa1, kappa2, beta)
        # both configurations share instantaneous and long-time stiffness
        assert k1 == pytest.approx(kappa1 + kappa2, rel=1e-12)
        assert k1 * k2 / (k1 + k2) == pytest.approx(kappa1, rel=1e-9)
        # ... and the relaxation time
        assert b / (k1 + k2) == pytest.approx(beta / kappa2, rel=1e-9)

    @pytest.mark.parametrize(
        "kappa1, kappa2, beta, name",
        [(1e300, 1.0, 1.5e-6, "k2"), (1.0, 1e-170, 1.0, "b")],
        ids=["products-overflow", "kappa2-squared-underflows"],
    )
    def test_conversion_leaving_the_float_range_is_refused(self, kappa1, kappa2, beta, name):
        with pytest.raises(DomainError, match=f"^{name} = .* leaves the float range at "):
            convert_configurations(kappa1, kappa2, beta)

    @given(kappa1=any_positive, kappa2=any_positive, beta=any_positive)
    @settings(deadline=None)
    def test_conversion_is_finite_or_refused(self, kappa1, kappa2, beta):
        """Any positive finite input converts to finite springs and dashpot, each the plain
        formula's value or its exact value correctly rounded, or is refused with a
        DomainError exactly where an exact value rounds past the largest float."""
        s = Fraction(kappa1) + Fraction(kappa2)
        exact = (s, s * Fraction(kappa1) / Fraction(kappa2),
                 Fraction(beta) * s**2 / Fraction(kappa2) ** 2)
        try:
            rounded = tuple(map(float, exact))
        except OverflowError:
            with pytest.raises(DomainError):
                convert_configurations(kappa1, kappa2, beta)
            return
        series = convert_configurations(kappa1, kappa2, beta)
        s = kappa1 + kappa2
        plain = [s]
        for formula in (lambda: s * kappa1 / kappa2, lambda: beta * s**2 / kappa2**2):
            try:
                plain.append(formula())
            except (OverflowError, ZeroDivisionError):
                plain.append(None)
        assert all(v in (p, r) for v, p, r in zip(series, plain, rounded)), (series, rounded)
        assert all(0.0 < value < math.inf for value in series)


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


# Each trajectory function without and with weight; ``drop`` in an id marks the weight.
SAMPLED = [
    pytest.param(fn, g, id=f"{name}{'_drop' if g else ''}_trajectory")
    for name, fn in (("kv", kv_trajectory), ("mx", mx_trajectory), ("sls", sls_trajectory))
    for g in (0.0, 0.05)
]


def _sampled_params(fn, g):
    if fn is kv_trajectory:
        return KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0, g=g)
    if fn is mx_trajectory:
        return MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0, g=g)
    return dataclasses.replace(params_from_groups(1.0, 0.5), g=g)


class TestSampleCounts:
    """Every trajectory is sampled on one grid that refuses a bad count as bad input."""

    @pytest.mark.parametrize("fn, g", SAMPLED)
    @pytest.mark.parametrize("n, message", [
        (2.5, "must be an integer"),
        ("3", "must be an integer"),
        (None, "must be an integer"),
        (-3, "got -3"),
        (1, "got 1"),
        (MAX_SCAN_SAMPLES + 1, f"got {MAX_SCAN_SAMPLES + 1}"),
    ])
    def test_bad_count_refused(self, fn, g, n, message):
        with pytest.raises(ConfigError, match=message):
            fn(_sampled_params(fn, g), n_samples=n)

    @pytest.mark.parametrize("fn, g", SAMPLED)
    def test_integer_types_accepted(self, fn, g):
        params = _sampled_params(fn, g)
        plain = fn(params, n_samples=5)
        for n in (np.int64(5), np.uint8(5)):
            assert np.array_equal(fn(params, n_samples=n).times, plain.times)
        assert fn(params, n_samples=2).times.tolist() == [0.0, plain.t_c]


def _magnitude(exponents: tuple[int, int]):
    """A float ``s * 10**e``: ``s`` in [1, 10) and ``e`` drawn from ``exponents``."""
    return st.builds(lambda s, e: s * 10.0**e, st.floats(1.0, 10.0, exclude_max=True),
                     st.integers(*exponents))


def _series_pair(m: float, k: float, b: float) -> DerivedGroups:
    return MaxwellParams(m=m, k=k, b=b, v0=1.0).derived


class TestSeriesLossFactor:
    """``zeta = k / (2 omega0 b)`` is formed in range wherever it is a float itself."""

    @given(data=st.data(), under=st.booleans())
    @settings(deadline=None, max_examples=200, derandomize=True)
    def test_exact_where_the_product_leaves_the_normal_range(self, data, under):
        """The correctly rounded quotient at the rounded ``omega0``, where ``2 omega0 b``
        underflows (then ``k`` < 4 keeps ``zeta`` finite) or overflows."""
        m = data.draw(_magnitude((-300, 300)), label="m")
        k = data.draw(_magnitude((-300, 0) if under else (-300, 300)), label="k")
        try:
            omega0 = _series_pair(m, k, 1.0).omega0
        except DomainError:
            assume(False)  # omega0 = sqrt(k / m) is not positive and finite
        edge = math.log10(2.0 * omega0)
        lo, hi = (-323, math.floor(-308 - edge)) if under else (math.ceil(309 - edge), 307)
        assume(lo <= hi)
        b = data.draw(_magnitude((lo, hi)), label="b")
        assume(not sys.float_info.min <= 2.0 * omega0 * b < math.inf)
        exact = Fraction(k) / (2 * Fraction(omega0) * Fraction(b))
        assume(exact < Fraction(sys.float_info.max))
        assert _series_pair(m, k, b).zeta == float(exact)

    @given(data=st.data(), steps=st.integers(-4, 4))
    @settings(deadline=None, max_examples=200, derandomize=True)
    def test_refused_exactly_past_the_largest_float(self, data, steps):
        """Where ``2 omega0 b`` underflows and the quotient nears the largest float:
        :class:`DomainError` exactly where the correctly rounded quotient overflows."""
        m = data.draw(_magnitude((0, 300)), label="m")
        k = data.draw(_magnitude((-20, 0)), label="k")
        try:
            omega0 = _series_pair(m, k, 1.0).omega0
        except DomainError:
            assume(False)
        b = k / (2.0 * omega0) / sys.float_info.max
        for _ in range(abs(steps)):
            b = math.nextafter(b, math.copysign(math.inf, steps))
        assume(0.0 < 2.0 * omega0 * b < sys.float_info.min)
        exact = Fraction(k) / (2 * Fraction(omega0) * Fraction(b))
        try:
            zeta = float(exact)
        except OverflowError:
            with pytest.raises(DomainError, match="^loss factor zeta = k / .* leaves the float"):
                _series_pair(m, k, b)
        else:
            assert _series_pair(m, k, b).zeta == zeta

    def test_zero_dashpot_is_refused(self):
        """The pair refuses ``b = 0`` first; its loss factor's formula refuses it too."""
        with pytest.raises(DomainError, match="leaves the float range at k = 1.0, omega0 = 1.0, "
                                              "b = 0.0"):
            _formula("loss factor zeta = k / (2 * omega0 * b)")(k=1.0, omega0=1.0, b=0.0)

    @given(m=_magnitude((-300, 300)), k=_magnitude((-300, 300)), b=_magnitude((-323, 300)))
    @settings(deadline=None, max_examples=300, derandomize=True)
    def test_one_division_where_the_product_is_normal(self, m, k, b):
        try:
            d = _series_pair(m, k, b)
        except DomainError:
            assume(False)
        omega0, zeta = d.omega0, d.zeta
        scale = 2.0 * omega0 * b
        assume(sys.float_info.min <= scale < math.inf)
        assert zeta == k / scale


class _Tracked(float):
    """A float that notes, as ``normal``, whether every result it was made from was a
    normal float, a zero made from a zero operand aside."""

    normal = True

    def _apply(self, other, op):
        a, b = float(self), float(other)
        result = _Tracked(op(a, b))
        result.normal = self.normal and getattr(other, "normal", True) and (
            sys.float_info.min <= result <= sys.float_info.max or result == 0 in (a, b))
        return result

    def __add__(self, other):
        return self._apply(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._apply(other, lambda a, b: b + a)

    def __mul__(self, other):
        return self._apply(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._apply(other, lambda a, b: b * a)

    def __truediv__(self, other):
        return self._apply(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._apply(other, lambda a, b: b / a)

    def __pow__(self, n):
        return self._apply(n, lambda a, b: a ** int(b))


# Each group and scale: its formula in the package, whether a root is taken last, and
# the parent expression of its radicand, which names the inputs.  Its integer constants keep
# ``Fraction`` arithmetic exact, and are the parent's float constants in float arithmetic.
_FORMULAS = {
    "omega0": ("omega0 = sqrt(k / m)", True, lambda k, m: k / m),
    "eta": ("loss factor eta = b / (2 * m) / omega0", False,
            lambda b, m, omega0: b / (2 * m) / omega0),
    "zeta": ("loss factor zeta = k / (2 * omega0 * b)", False,
             lambda k, omega0, b: k / (2 * omega0 * b)),
    "sls omega0": ("omega0 = sqrt(k1 / m)", True, lambda k1, m: k1 / m),
    "k_inf": ("k_inf = k1 * k2 / (k1 + k2)", False, lambda k1, k2: k1 * k2 / (k1 + k2)),
    "rho": ("rho = k1 * k2 / (k1 + k2) / k1", False,
            lambda k1, k2: k1 * k2 / (k1 + k2) / k1),
    "tau_R": ("tau_R = b / (k1 + k2)", False, lambda b, k1, k2: b / (k1 + k2)),
    "Lambda": ("Lambda = k1 / m * tau_R * tau_R", False,
               lambda k1, m, tau_R: (k1 / m) * tau_R * tau_R),
    "series k1": ("k1 = kappa1 + kappa2", False, lambda kappa1, kappa2: kappa1 + kappa2),
    "series k2": ("k2 = (kappa1 + kappa2) * kappa1 / kappa2", False,
                  lambda kappa1, kappa2: (kappa1 + kappa2) * kappa1 / kappa2),
    "series b": ("b = beta * (kappa1 + kappa2) ** 2 / kappa2 ** 2", False,
                 lambda beta, kappa1, kappa2: beta * (kappa1 + kappa2) ** 2 / kappa2 ** 2),
    "layer k": ("k = 3 * mu_s * a ** 4 / (16 * h ** 3)", False,
                lambda mu_s, a, h: 3 * mu_s * a ** 4 / (16 * h ** 3)),
    "layer tau_R": ("tau_R = h ** 2 / (3 * mu_s * kappa)", False,
                    lambda h, mu_s, kappa: h ** 2 / (3 * mu_s * kappa)),
    "tau_D": ("tau_D = h ** 2 / ((lambda_s + 2 * mu_s) * kappa)", False,
              lambda h, lambda_s, mu_s, kappa: h ** 2 / ((lambda_s + 2 * mu_s) * kappa)),
    "area": ("contact area pi a**2 = pi * a ** 2", False, lambda a, pi: pi * a ** 2),
    "depth scale": ("depth scale = v0 * T", False, lambda v0, T: v0 * T),
    "rate scale": ("rate scale = v0 / T", False, lambda v0, T: v0 / T),
    "force scale": ("force scale = m * v0 / T", False, lambda m, v0, T: m * v0 / T),
    "gamma": ("gamma = g * T / v0", False, lambda g, T, v0: g * T / v0),
    "stiffness ratio": ("sigma_max / eps_max", False,
                        lambda sigma_max, eps_max: sigma_max / eps_max),
    "modulus ratio": ("E_max / E_10", False, lambda E_max, E_10: E_max / E_10),
}
_HALF_PAST_MAX = Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2


def _check_formula(group: str, **values: float):
    """The group's value at ``values``, after checking the rule of ``models._formula``:
    the parent expression bit for bit where its every intermediate is normal, else the
    exact value correctly rounded, refused exactly where that passes the largest float.
    None where it is refused."""
    text, root, parent = _FORMULAS[group]
    evaluate = models._formula(text)
    constants = {"pi": math.pi} if "pi" in parent.__code__.co_varnames else {}
    try:
        plain = parent(**{n: _Tracked(v) for n, v in {**values, **constants}.items()})
    except (OverflowError, ZeroDivisionError):
        plain = None
    if plain is not None and plain.normal:
        value = evaluate(**values)
        assert value == (math.sqrt(plain) if root else plain), (group, values)
        return value
    try:
        exact = parent(**{n: Fraction(v) for n, v in {**values, **constants}.items()})
    except ZeroDivisionError:
        exact = None
    past = exact is None or (exact >= _HALF_PAST_MAX**2 if root else exact >= _HALF_PAST_MAX)
    if past:
        with pytest.raises(DomainError, match=f"leaves the float range at {next(iter(values))} = "):
            evaluate(**values)
        return None
    value = evaluate(**values)
    if not root:
        assert value == float(exact), (group, values)
        return value
    # A correctly rounded root lies within half a gap of each neighbour.
    x = Fraction(value)
    below = (x + Fraction(math.nextafter(value, 0.0))) / 2
    above = (x + Fraction(math.nextafter(value, math.inf))) / 2 if value < sys.float_info.max \
        else _HALF_PAST_MAX
    assert below**2 <= exact <= above**2, (group, values)
    return value


def _outcome(make):
    """``make()``, or None where it raises a :class:`ViscoImpactError`; any other
    exception escapes and fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the thin-layer warning
            return make()
    except ViscoImpactError:
        return None


# The whole positive float range: boundaries, subnormals and every decade.
_WHOLE = st.one_of(st.floats(5e-324, sys.float_info.max), _magnitude((-323, 307)))
_WHOLE_OR_ZERO = st.one_of(st.just(0.0), _WHOLE)


class TestGroupFormulas:
    """Every group and scale against exact ``Fraction`` arithmetic, over fields drawn from
    the whole float range: the parent expression bit for bit where its intermediates are
    normal, else correctly rounded, else a :class:`DomainError`; no raw exception."""

    @given(st.fixed_dictionaries(dict.fromkeys(
        ("m", "k", "v0", "k1", "k2", "kappa1", "kappa2", "beta", "mu_s", "kappa", "h", "a",
         "T", "sigma_max", "eps_max", "E_max", "E_10"), _WHOLE)
        | dict.fromkeys(("b", "g", "lambda_s"), _WHOLE_OR_ZERO)))
    @settings(deadline=None, max_examples=250, derandomize=True)
    def test_every_group_and_scale(self, f):
        omega0 = _check_formula("omega0", k=f["k"], m=f["m"])
        assert omega0 is None or omega0 > 0.0  # sqrt(5e-324 / max) is 1.6e-316
        if omega0 is not None:
            _check_formula("eta", b=f["b"], m=f["m"], omega0=omega0)
            _check_formula("zeta", k=f["k"], omega0=omega0, b=f["b"])
        _check_formula("sls omega0", k1=f["k1"], m=f["m"])
        _check_formula("k_inf", k1=f["k1"], k2=f["k2"])
        _check_formula("rho", k1=f["k1"], k2=f["k2"])
        tau_R = _check_formula("tau_R", b=f["b"], k1=f["k1"], k2=f["k2"])
        if tau_R is not None:
            _check_formula("Lambda", k1=f["k1"], m=f["m"], tau_R=tau_R)
        for group in ("series k1", "series k2"):
            _check_formula(group, kappa1=f["kappa1"], kappa2=f["kappa2"])
        _check_formula("series b", beta=f["beta"], kappa1=f["kappa1"], kappa2=f["kappa2"])
        _check_formula("layer k", mu_s=f["mu_s"], a=f["a"], h=f["h"])
        _check_formula("layer tau_R", h=f["h"], mu_s=f["mu_s"], kappa=f["kappa"])
        _check_formula("tau_D", h=f["h"], lambda_s=f["lambda_s"], mu_s=f["mu_s"],
                       kappa=f["kappa"])
        _check_formula("area", a=f["a"])
        for group in ("depth scale", "rate scale"):
            _check_formula(group, v0=f["v0"], T=f["T"])
        _check_formula("force scale", m=f["m"], v0=f["v0"], T=f["T"])
        _check_formula("gamma", g=f["g"], T=f["T"], v0=f["v0"])
        _check_formula("stiffness ratio", sigma_max=f["sigma_max"], eps_max=f["eps_max"])
        _check_formula("modulus ratio", E_max=f["E_max"], E_10=f["E_10"])

        # The types read the same evaluators, and refuse only with a typed error.
        pair = {"m": f["m"], "k": f["k"], "b": f["b"], "v0": f["v0"], "g": f["g"]}
        kv = _outcome(lambda: KelvinVoigtParams(**pair))
        if kv is not None:
            assert kv.derived.eta == _check_formula("eta", b=f["b"], m=f["m"],
                                                    omega0=kv.derived.omega0)
        mx = _outcome(lambda: MaxwellParams(**pair))
        if mx is not None:
            assert mx.derived.zeta == _check_formula("zeta", k=f["k"], omega0=mx.derived.omega0,
                                                     b=f["b"])
        sls = _outcome(lambda: StandardSolidParams(
            m=f["m"], k1=f["k1"], k2=f["k2"], b=f["b"], v0=f["v0"], g=f["g"]))
        if sls is not None:
            assert sls.derived.rho == _check_formula("rho", k1=f["k1"], k2=f["k2"])
        for params in (kv, mx, sls):
            if params is not None:
                _outcome(lambda: _modal.scaled_weight(f["T"], params))
        _outcome(lambda: convert_configurations(f["kappa1"], f["kappa2"], f["beta"]))
        layer = _outcome(lambda: biphasic.BiphasicLayer(
            mu_s=f["mu_s"], lambda_s=f["lambda_s"], kappa=f["kappa"], h=f["h"], a=f["a"]))
        if layer is not None:
            _outcome(lambda: biphasic.validity_window(layer))
            _outcome(lambda: biphasic.reduce_to_maxwell(layer, f["m"], f["v0"]))
        _outcome(lambda: analysis.SampleGeometry(a=f["a"], h=f["h"]))

    def test_parallel_pair_where_b_over_2m_leaves_the_normal_range(self):
        """``b / (2m)`` is subnormal, then 0: eta was 1.1e-5 off, then 0."""
        for b in (1e-20, 3e-24):
            d = KelvinVoigtParams(m=1e300, k=1e-10, b=b, v0=1.0).derived
            exact = Fraction(b) / (2 * Fraction(1e300) * Fraction(d.omega0))
            assert d.eta == float(exact) > 0.0
        assert d.eta == pytest.approx(1.5e-169, rel=1e-15)

    def test_overdamped_pair_where_2m_overflows(self):
        """``2 m`` overflowed, so eta was 0 and a pair at eta 9.6e39 constructed as elastic."""
        with pytest.raises(DomainError, match="^loss factor eta = 9.64033e[+]39 is >= 1"):
            KelvinVoigtParams(m=1.4316831681307627e308, k=3.6358738582909387e30,
                              b=4.398955782754728e209, v0=1.0)

    @pytest.mark.parametrize("m, k, omega0", [(1e308, 1e-300, 1e-304),
                                              (1e-308, 2.0, 1.4142135623730951e154)])
    def test_frequency_where_k_over_m_leaves_the_normal_range(self, m, k, omega0):
        """``k / m`` underflowed to 0 or overflowed, so the pair was refused."""
        d = MaxwellParams(m=m, k=k, b=1.0, v0=1.0).derived
        assert d.omega0 == _check_formula("omega0", k=k, m=m)
        assert d.omega0 == pytest.approx(omega0, rel=1e-15)

    def test_stiffness_ratio_where_k1_k2_overflows(self):
        """``k1 k2`` overflowed, so rho was inf and refused; it is 0.5."""
        d = StandardSolidParams(m=1.0, k1=1e200, k2=1e200, b=1e200, v0=1.0).derived
        assert (d.rho, d.tau_R) == (0.5, 0.5)


class TestUniformGrid:
    @given(bounds=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-300),
                                     st.floats(0.0, allow_infinity=False)),
                           min_size=2, max_size=2, unique=True).map(sorted),
           n=st.integers(2, 40))
    @settings(deadline=None, max_examples=300, derandomize=True)
    def test_bit_for_bit_np_linspace(self, bounds, n):
        """For finite ``0 <= lo < hi``, underflowing steps included; ``np.linspace``
        may overflow in its last product, which the grid never forms."""
        lo, hi = bounds
        with np.errstate(over="ignore"):
            expected = np.linspace(lo, hi, n)
        assert _uniform_grid(lo, hi, n).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 5e-324, 3), (0.0, 1e-323, 7),
                                           (5e-324, 1.5e-323, 40)])
    def test_np_linspace_rule_where_the_step_underflows(self, lo, hi, n):
        assert (hi - lo) / (n - 1) == 0.0
        assert _uniform_grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n).tobytes()
