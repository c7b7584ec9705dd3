"""Thin saturated layer: reduction, pressure field, and layer loader."""

from __future__ import annotations

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_impact.biphasic import (
    USABLE_FRACTION,
    BiphasicLayer,
    EquivalentMaxwell,
    biphasic_force,
    biphasic_loss_factor,
    equivalent_maxwell,
    load_layer_json,
    pressure_profile,
    reduce_to_maxwell,
    validity_window,
)
from visco_impact.errors import DomainError


def _layer(**overrides) -> BiphasicLayer:
    values = dict(mu_s=0.25e6, lambda_s=0.0, kappa=2e-15, h=1e-3, a=5e-3)
    values.update(overrides)
    return BiphasicLayer(**values)


layer_strategy = st.builds(
    _layer,
    mu_s=st.floats(min_value=1e4, max_value=1e7),
    lambda_s=st.floats(min_value=0.0, max_value=1e7),
    kappa=st.floats(min_value=1e-16, max_value=1e-13),
    h=st.floats(min_value=1e-4, max_value=5e-3),
    a=st.floats(min_value=3e-2, max_value=1e-1),
)


class TestLayer:
    def test_aggregate_modulus(self):
        layer = _layer(lambda_s=0.1e6)
        assert layer.H_A == 0.1e6 + 2.0 * 0.25e6

    @pytest.mark.parametrize("name", ["mu_s", "kappa", "h", "a"])
    def test_positivity(self, name):
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got 0.0$"):
            _layer(**{name: 0.0})
        with pytest.raises(DomainError, match=name):
            _layer(**{name: -1.0})

    def test_lambda_nonnegative(self):
        with pytest.raises(DomainError, match="lambda_s"):
            _layer(lambda_s=-1.0)
        assert _layer(lambda_s=0.0).H_A == 0.5e6

    def test_thick_layer_warns(self):
        with pytest.warns(UserWarning, match="thin-layer"):
            _layer(h=2e-3)

    def test_thin_layer_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _layer(h=0.5e-3)


class TestReduction:
    def test_reference_pair(self):
        """Frozen reduction of the reference layer (0.25 MPa, 1 mm, 5 mm)."""
        eq = equivalent_maxwell(_layer())
        assert eq.k == 29296.875
        assert eq.tau_R == pytest.approx(666.6666666666665, rel=1e-14)
        assert eq.chi * eq.tau_R == pytest.approx(1.0, abs=1e-15)

    def test_thickness_scaling_exact(self):
        """Doubling h cuts the stiffness eightfold and quadruples tau_R."""
        eq1 = equivalent_maxwell(_layer())
        with pytest.warns(UserWarning):
            eq2 = equivalent_maxwell(_layer(h=2e-3))
        assert eq2.k * 8.0 == eq1.k
        assert eq2.tau_R == 4.0 * eq1.tau_R

    def test_radius_scaling(self):
        eq1 = equivalent_maxwell(_layer())
        eq2 = equivalent_maxwell(_layer(a=10e-3))
        assert eq2.k == pytest.approx(16.0 * eq1.k, rel=1e-14)
        assert eq2.tau_R == eq1.tau_R

    def test_pair_validation(self):
        """``chi`` is derived from ``tau_R``, not given."""
        assert EquivalentMaxwell(k=1.0, tau_R=2.0).chi == 0.5
        with pytest.raises(TypeError):
            EquivalentMaxwell(k=1.0, tau_R=2.0, chi=1.0)
        with pytest.raises(DomainError, match="positive"):
            EquivalentMaxwell(k=-1.0, tau_R=2.0)

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param(name, value, id=f"{value!r}-{name}")
         for name in ("k", "tau_R") for value in (math.inf, math.nan, 0.0)]
        + [pytest.param("chi", math.inf, id="inf-chi")],
    )
    def test_pair_refuses_each_quantity_out_of_range(self, name, value):
        # chi = 1 / tau_R overflows at a subnormal tau_R; it is never NaN or 0.
        fields = {"k": 1.0, "tau_R": 1.0, name: value}
        if name == "chi":
            fields = {"k": 1.0, "tau_R": 5e-324}
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got {value!r}$"):
            EquivalentMaxwell(**fields)

    @pytest.mark.parametrize(
        "layer, message",
        [
            (dict(h=1e110), "k must be positive and finite, got 0.0"),
            (dict(mu_s=1e300, kappa=1e300), "tau_R must be positive and finite, got 0.0"),
            # 3 mu_s kappa underflowed to a ZeroDivisionError.
            (dict(mu_s=1e-200, kappa=1e-200), "tau_R = h ** 2 / (3 * mu_s * kappa) leaves the "
             "float range at h = 0.001, mu_s = 1e-200, kappa = 1e-200"),
        ],
    )
    def test_reduction_beyond_the_float_range_is_refused(self, layer, message):
        """``h**3`` overflowed; ``k`` and ``tau_R`` that round to 0 or pass the largest
        float are refused."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                equivalent_maxwell(_layer(**layer))

    @pytest.mark.parametrize("layer, message", [
        (dict(h=1e-200), "tau_D must be positive and finite, got 0.0"),
        (dict(mu_s=1e-200, kappa=1e-200), "tau_D = h ** 2 / ((lambda_s + 2 * mu_s) * kappa) "
         "leaves the float range at h = 0.001, lambda_s = 0.0, mu_s = 1e-200, kappa = 1e-200"),
    ])
    def test_consolidation_window_beyond_the_float_range_is_refused(self, layer, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            validity_window(_layer(**layer))

    def test_consolidation_window_where_the_aggregate_modulus_overflows(self):
        """``H_A = lambda_s + 2 mu_s`` overflows, but ``tau_D`` is a float: it was 0 and refused."""
        layer = _layer(mu_s=1e308)
        tau_D = Fraction(layer.h) ** 2 / ((Fraction(layer.lambda_s) + 2 * Fraction(layer.mu_s))
                                          * Fraction(layer.kappa))
        assert validity_window(layer)[0] == float(tau_D)

    def test_consolidation_window(self):
        """tau_D = h**2 / (H_A kappa) = 1000 s for the reference layer."""
        tau_D, usable = validity_window(_layer())
        assert tau_D == pytest.approx(1000.0, abs=1e-9)
        assert usable == pytest.approx(USABLE_FRACTION * tau_D, rel=1e-15)

    def test_reduce_to_maxwell_groups(self):
        params = reduce_to_maxwell(_layer(), m=0.1, v0=1.0)
        eq = equivalent_maxwell(_layer())
        assert params.k == eq.k
        assert params.b == eq.k * eq.tau_R
        assert params.b / params.k == pytest.approx(eq.tau_R, rel=1e-14)

    @given(layer=layer_strategy, m=st.floats(min_value=1e-2, max_value=10.0))
    @settings(deadline=None, max_examples=80)
    def test_loss_factor_matches_derived_group(self, layer, m):
        """Closed form 2 sqrt(3 m mu_s) kappa / (a**2 sqrt h) equals zeta."""
        closed_form = 2.0 * math.sqrt(3.0 * m * layer.mu_s) * layer.kappa / (
            layer.a**2 * math.sqrt(layer.h)
        )
        assert biphasic_loss_factor(layer, m) == pytest.approx(closed_form, rel=1e-12)

    @given(layer=layer_strategy, m=st.floats(min_value=1e-2, max_value=10.0))
    @settings(deadline=None, max_examples=80)
    def test_loss_factor_is_the_reduced_pairs_zeta(self, layer, m):
        """Bit for bit, so the zeta >= 1 refusals of both agree at every layer."""
        assert biphasic_loss_factor(layer, m) == reduce_to_maxwell(layer, m, 1.0).derived.zeta

    def test_loss_factor_refuses_an_overflowing_layer(self):
        """``a**2`` once raised a raw OverflowError; the pair's k is refused instead."""
        with pytest.raises(DomainError, match=r"^k = .* leaves the float range at mu_s = "):
            biphasic_loss_factor(_layer(a=1e200), 1.0)

    def test_loss_factor_needs_mass(self):
        with pytest.raises(DomainError, match="m must be positive"):
            biphasic_loss_factor(_layer(), 0.0)

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_loss_factor_needs_finite_mass(self, m):
        with pytest.raises(DomainError, match="finite"):
            biphasic_loss_factor(_layer(), m)


class TestForce:
    def test_linear_ramp_closed_form(self):
        """F(t) = k c tau_R (1 - exp(-t / tau_R)) for delta0 = c t."""
        layer = _layer()
        eq = equivalent_maxwell(layer)
        c = 1e-3
        t = np.linspace(0.0, 50.0, 301)
        F = biphasic_force(layer, t, c * t)
        expected = eq.k * c * eq.tau_R * (1.0 - np.exp(-t / eq.tau_R))
        assert np.max(np.abs(F - expected)) < 1e-12 * np.max(expected)
        assert F[0] == 0.0

    def test_slow_relaxation_keeps_full_precision(self):
        """Steps far shorter than tau_R lose no digits to ``1 - exp``."""
        layer = _layer()
        eq = equivalent_maxwell(layer)
        c = 2e-3
        t = np.arange(201) * 2.5e-4
        F = biphasic_force(layer, t, c * t)
        expected = eq.k * c * eq.tau_R * -np.expm1(-t / eq.tau_R)
        assert np.max(np.abs(F[1:] / expected[1:] - 1.0)) < 1e-14

    def test_recursion_invariant_under_refinement(self):
        """Splitting segments of the same piecewise-linear history is a no-op."""
        layer = _layer()
        t_coarse = np.linspace(0.0, 50.0, 11)
        d_coarse = 1e-3 * t_coarse**2 / 50.0
        t_fine = np.linspace(0.0, 50.0, 101)
        d_fine = np.interp(t_fine, t_coarse, d_coarse)
        F_coarse = biphasic_force(layer, t_coarse, d_coarse)
        F_fine = biphasic_force(layer, t_fine, d_fine)
        scale = np.max(np.abs(F_coarse))
        assert np.max(np.abs(F_fine[::10] - F_coarse)) < 1e-9 * scale

    def test_history_validation(self):
        layer = _layer()
        with pytest.raises(DomainError, match="increase strictly from 0"):
            biphasic_force(layer, [1.0, 2.0], [0.0, 1e-4])
        with pytest.raises(DomainError, match="increase strictly from 0"):
            biphasic_force(layer, [0.0, 2.0, 2.0], [0.0, 1e-4, 2e-4])
        with pytest.raises(DomainError, match="zero depth"):
            biphasic_force(layer, [0.0, 1.0], [1e-4, 2e-4])
        with pytest.raises(DomainError, match="matching 1-d"):
            biphasic_force(layer, [0.0, 1.0], [0.0, 1e-4, 2e-4])


class TestPressure:
    @staticmethod
    def _history():
        t = np.linspace(0.0, 50.0, 201)
        return t, 1e-3 * np.sin(0.03 * t) ** 2

    def test_vanishes_at_contact_edge(self):
        layer = _layer()
        t, d = self._history()
        P = pressure_profile(layer, t, d, np.array([layer.a]), 25.0)
        assert P[0] == 0.0

    def test_parabolic_in_radius(self):
        layer = _layer()
        t, d = self._history()
        r = np.array([0.0, 0.3 * layer.a])
        P = pressure_profile(layer, t, d, r, 25.0)
        assert P[0] - P[1] == pytest.approx(P[0] * 0.09, rel=1e-12)

    def test_disk_integral_reproduces_force(self):
        """Integral of P over the contact disk equals the recursion force."""
        layer = _layer()
        t, d = self._history()
        F = biphasic_force(layer, t, d)
        nodes, weights = np.polynomial.legendre.leggauss(60)
        r = 0.5 * layer.a * (nodes + 1.0)
        w = 0.5 * layer.a * weights
        for i in (40, 100, 200):
            P = pressure_profile(layer, t, d, r, float(t[i]))
            integral = float((P * 2.0 * math.pi * r) @ w)
            assert integral == pytest.approx(F[i], rel=1e-6)

    def test_domain_checks(self):
        layer = _layer()
        t, d = self._history()
        with pytest.raises(DomainError, match="inside the contact radius"):
            pressure_profile(layer, t, d, np.array([1.1 * layer.a]), 25.0)
        with pytest.raises(DomainError, match="outside the sampled history"):
            pressure_profile(layer, t, d, np.array([0.0]), 60.0)


class TestLoaders:
    def test_layer_json_round_trip(self, tmp_path):
        path = tmp_path / "layer.json"
        path.write_text(
            json.dumps(
                {"mu_s": 0.25e6, "lambda_s": 0.0, "kappa": 2e-15, "h": 1e-3, "a": 5e-3}
            )
        )
        layer = load_layer_json(path)
        assert layer == _layer()

    def test_layer_json_key_policing(self, tmp_path):
        path = tmp_path / "layer.json"
        path.write_text(json.dumps({"mu_s": 1e6, "lambda_s": 0.0, "kappa": 1e-15}))
        with pytest.raises(Exception, match="missing"):
            load_layer_json(path)
        path.write_text(
            json.dumps(
                {
                    "mu_s": 1e6,
                    "lambda_s": 0.0,
                    "kappa": 1e-15,
                    "h": 1e-3,
                    "a": 5e-3,
                    "porosity": 0.8,
                }
            )
        )
        with pytest.raises(Exception, match="unknown"):
            load_layer_json(path)
