"""Contact end from the modal form: the monotone-piece walk of ``_search``."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import visco_impact
from visco_impact import _modal, _search, maxwell
from visco_impact.cli import EXIT_PLASTIC, main
from visco_impact.errors import DomainError, PlasticImpactError
from visco_impact.kelvin_voigt import (
    _scaled_metrics,
    kv_find_critical_eps0,
    kv_trajectory,
)
from visco_impact.maxwell import mx_drop_metrics_asymptotic, mx_metrics, mx_trajectory
from visco_impact.models import KelvinVoigtParams, MaxwellParams
from visco_impact.oracle import RelaxationKernel, integrate_impact
from visco_impact.standard_solid import (
    _scaled_solution,
    params_from_groups,
    sls_characteristic_roots,
    sls_metrics,
    sls_trajectory,
)

# Dense reference: this many samples per oscillation period, then Brent on
# the first sign change after the force turns positive.
_DENSE_PER_PERIOD = 20_000


def _dense_first_zero(force, period: float, horizon: float) -> float | None:
    """First zero of ``force`` after it turns positive, or None within ``horizon``."""
    t = np.linspace(0.0, horizon, int(_DENSE_PER_PERIOD * horizon / period) + 1)
    F = force(t)
    pos = np.flatnonzero(F > 0.0)
    if pos.size == 0:
        return None
    neg = np.flatnonzero(F[pos[0]:] <= 0.0)
    if neg.size == 0:
        return None
    j = pos[0] + neg[0]
    if F[j] == 0.0:
        return float(t[j])
    return brentq(lambda s: float(force(s)), t[j - 1], t[j], xtol=1e-30, rtol=1e-15)


def _kv_force(p: KelvinVoigtParams):
    """``k x + b xdot`` of ``m x'' + b x' + k x = m g``, ``x(0) = 0, x'(0) = v0``."""
    beta = p.b / (2.0 * p.m)
    omega = math.sqrt(p.k / p.m - beta**2)
    c1 = -p.m * p.g / p.k
    c2 = (p.v0 + beta * c1) / omega

    def force(t):
        e, s, c = np.exp(-beta * t), np.sin(omega * t), np.cos(omega * t)
        x = e * (c1 * c + c2 * s) - c1
        xdot = e * ((omega * c2 - beta * c1) * c - (omega * c1 + beta * c2) * s)
        return p.k * x + p.b * xdot

    return force, 2.0 * math.pi / omega


def _mx_force(p: MaxwellParams):
    """``F'' + (k/b) F' + (k/m) F = k g`` with ``F(0) = 0, F'(0) = k v0``."""
    beta = p.k / (2.0 * p.b)
    omega = math.sqrt(p.k / p.m - beta**2)
    mg = p.m * p.g

    def force(t):
        e = np.exp(-beta * t)
        return mg + e * (-mg * np.cos(omega * t) + (p.k * p.v0 - beta * mg) / omega * np.sin(omega * t))

    return force, 2.0 * math.pi / omega


def _separation(traj_fn, params):
    try:
        return traj_fn(params, n_samples=2).t_c
    except PlasticImpactError:
        return None


def _assert_same_end(walk, dense):
    assert (walk is None) == (dense is None), (walk, dense)
    if walk is not None:
        assert walk == pytest.approx(dense, rel=1e-12)


@st.composite
def _kv_drops(draw):
    """Loss factor and gravity ratio, half the draws within 1e-3 of the threshold."""
    eta = draw(st.floats(min_value=0.02, max_value=0.95))
    if draw(st.booleans()):
        eps0 = kv_find_critical_eps0(eta) * (1.0 + draw(st.sampled_from((-1e-3, 1e-3))))
    else:
        eps0 = 10.0 ** draw(st.floats(min_value=-4.0, max_value=0.0))
    return eta, eps0


class TestDenseReference:
    """The walk and a dense scan agree on the outcome, ``t_c`` and the peak times."""

    @given(drop=_kv_drops(), v0=st.floats(min_value=0.1, max_value=10.0))
    @settings(deadline=None, max_examples=60)
    def test_parallel_pair_drop(self, drop, v0):
        eta, eps0 = drop
        p = KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=v0, g=eps0 * v0)
        force, period = _kv_force(p)
        dense = _dense_first_zero(force, period, _modal.SCAN_HORIZON_PERIODS * period)
        _assert_same_end(_separation(kv_trajectory, p), dense)

    @given(
        zeta=st.floats(min_value=0.02, max_value=0.95),
        log_eps0=st.floats(min_value=-4.0, max_value=0.0),
        m=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_series_pair_drop(self, zeta, log_eps0, m):
        k, v0 = 4.0, 0.7
        omega0 = math.sqrt(k / m)
        p = MaxwellParams(m=m, k=k, b=m * omega0 / (2.0 * zeta), v0=v0,
                          g=10.0**log_eps0 * omega0 * v0)
        force, period = _mx_force(p)
        dense = _dense_first_zero(force, period, _modal.SCAN_HORIZON_PERIODS * period)
        _assert_same_end(_separation(mx_trajectory, p), dense)

    @given(
        log_lambda=st.floats(min_value=-2.0, max_value=2.0),
        rho=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(deadline=None, max_examples=60)
    def test_three_element_contact_end_and_peaks(self, log_lambda, rho):
        Lam = 10.0**log_lambda
        roots = np.roots([1.0, 1.0, Lam, Lam * rho])
        # Outside the dead window and the small-discriminant region.
        assume(np.max(np.abs(roots.imag)) >= 1e-2)
        _assert_three_element_roots(Lam, rho)


def _assert_three_element_roots(Lam: float, rho: float):
    """Contact end and both peak times against the dense reference."""
    params = params_from_groups(Lam, rho)
    r = sls_characteristic_roots(Lam, rho)
    _, xi_d, f = _scaled_solution(Lam, rho)
    xi_dd = -f
    period = 2.0 * math.pi / r.zeta1
    tau_c = _dense_first_zero(lambda tau: -xi_dd(tau), period,
                              _modal.SCAN_HORIZON_PERIODS * period)
    tau_m = _dense_first_zero(xi_d, period, tau_c)
    tau_M = _dense_first_zero(lambda tau: -xi_dd.derivative()(tau), period, tau_c)
    met, tau_R = sls_metrics(params), params.derived.tau_R
    assert met.t_c == pytest.approx(tau_c * tau_R, rel=1e-12)
    assert met.t_m == pytest.approx(tau_m * tau_R, rel=1e-12)
    assert met.t_M == pytest.approx(tau_M * tau_R, rel=1e-12)


@pytest.mark.parametrize("Lam, rho", [(1.68e-4, 4.8e-3), (3.75e-6, 0.842), (1.96e-5, 5.27e-5)])
def test_three_element_peaks_when_relaxation_is_fast(Lam, rho):
    """At small Lambda the exponential term of the force rate underflows by the
    sine's first zero; the force peak is at that zero, not a period later."""
    _assert_three_element_roots(Lam, rho)


def _small_discriminant_lattice():
    """Points just outside the ``D <= 0`` window, where ``zeta1`` is tiny."""
    points = []
    for rho in (0.005, 0.02, 0.05, 0.09):
        b = 1.0 + 18.0 * rho - 27.0 * rho**2
        root = math.sqrt(b * b - 64.0 * rho)
        lo, hi = (b - root) / 8.0, (b + root) / 8.0
        for d in (1e-2, 1e-4, 1e-6):
            for Lam in (lo * (1.0 - d), hi * (1.0 + d)):
                if sls_characteristic_roots(Lam, rho).zeta1 < 1e-2:
                    points.append((Lam, rho))
    return points


# Slow relaxation, where splitting each half period at an extremum of the
# force once ran that extra Brent solve out of iterations.
_LARGE_LAMBDA = [(654080.1550896134, 0.5505628176572535), (4634.7445860570015, 0.9297104517002204)]


@pytest.mark.parametrize("Lam, rho", _small_discriminant_lattice() + _LARGE_LAMBDA)
def test_small_discriminant_matches_oracle(Lam, rho):
    """On the lattice a half period spans about 1e4 relaxation times; F underflows long before."""
    params = params_from_groups(Lam, rho)
    met = sls_metrics(params)
    traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
    assert met.t_c == pytest.approx(traj.t_c, abs=1e-9)
    assert met.e_star == pytest.approx(-traj.xdot[-1], abs=1e-9)


def test_small_discriminant_lattice_size():
    assert len(_small_discriminant_lattice()) == 18


def _magnitude(draw) -> float:
    return 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))


@st.composite
def _raw_modes(draw):
    """Modes over every branch of the walk, physical or not.

    ``c`` is negative, zero or positive; ``lam`` lies on either side of
    ``beta``; half the draws start at ``F(0) = 0`` and the rest at any
    ``F(0)``, positive as behind the parallel pair's dashpot jump or
    negative.  A large positive ``c`` with ``beta > lam`` gives modes the
    walk proves plastic.
    """
    omega = _magnitude(draw)
    beta = omega * draw(st.floats(min_value=0.0, max_value=3.0))
    lam = beta + omega * draw(st.floats(min_value=-3.0, max_value=3.0))
    c = draw(st.sampled_from((-1.0, 0.0, 1.0))) * _magnitude(draw)
    A = draw(st.sampled_from((-1.0, 1.0))) * _magnitude(draw)
    B = -c if draw(st.booleans()) else draw(st.sampled_from((-1.0, 1.0))) * _magnitude(draw)
    return _search.DampedMode(beta, omega, A, B, c, lam)


@given(mode=_raw_modes())
@settings(deadline=None, max_examples=200)
def test_raw_modes_match_dense_reference(mode):
    """The walk and the dense scan agree on the outcome and ``t_c`` of any mode.

    Excluded: starts at ``F(0) = 0`` whose ``|F'(0)|`` is below 0.03 of
    ``|R| hypot(beta, omega) + |lam c|``.  There the force can fall back to
    zero within a few dense samples, and that zero comes from a cancellation
    of O(1) terms: both solvers miss a 50-digit root of it by up to ~1e-10.
    """
    if mode.B + mode.c == 0.0:
        slope = mode.omega * mode.A - mode.beta * mode.B - mode.lam * mode.c
        assume(abs(slope) >= 0.03 * (abs(mode.R) * math.hypot(mode.beta, mode.omega)
                                     + abs(mode.lam * mode.c)))
    period = 2.0 * math.pi / mode.omega
    horizon = _modal.SCAN_HORIZON_PERIODS * period
    try:
        walk = _search.first_force_zero(mode, period, horizon)
    except PlasticImpactError:
        walk = None
    _assert_same_end(walk, _dense_first_zero(mode, period, horizon))


@given(mode=_raw_modes(), t=st.floats(min_value=0.0, max_value=50.0))
@settings(deadline=None, max_examples=200)
def test_float_call_matches_array_call(mode, t):
    """A float goes through ``math``, an array through NumPy: the same value to rounding."""
    t = t / mode.omega
    got, expected = mode(t), mode(np.array([t]))[0]
    assert type(got) is float
    scale = math.exp(-mode.beta * t) * abs(mode.R) + abs(mode.c) * math.exp(-mode.lam * t)
    assert abs(got - expected) <= 1e-15 * scale


def test_real_exponential_sum_zeros_in_order():
    """``0.18 e**-t - 0.9 e**-2t + e**-3t`` falls through zero, then rises back.

    In ``x = e**-t`` it is ``x (x - 0.3) (x - 0.6)``, so the zeros are
    ``-ln 0.6`` and ``-ln 0.3``.  The rates 2 and 3 enter as one pair,
    ``beta = 2.5``, ``kappa = 0.5``.  The walk finds the falling zero of the
    sum and, in the negated sum, the later one.
    """
    f = _search.RealMode(2.5, 0.5, -0.9 + 1.0, 0.5 * (-0.9 - 1.0), 0.18, 1.0)
    t = np.linspace(0.0, 3.0, 7)
    assert f(t) == pytest.approx(0.18 * np.exp(-t) - 0.9 * np.exp(-2 * t) + np.exp(-3 * t),
                                 rel=1e-13, abs=1e-15)
    period = 2.0 * math.pi
    zeros = [_search.first_force_zero(g, period, 10.0 * period) for g in (f, -f)]
    assert zeros == pytest.approx([-math.log(0.6), -math.log(0.3)], rel=1e-14)
    for g, zero in zip((f, -f), zeros):
        _assert_same_end(zero, _dense_first_zero(g, period, 10.0 * period))


def test_zero_past_the_horizon_is_refused():
    """``sin t`` first returns to zero at pi, past a horizon of 3."""
    sine = _search.DampedMode(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(PlasticImpactError, match="within the horizon"):
        _search.first_force_zero(sine, 2.0 * math.pi, 3.0)


@pytest.mark.parametrize(
    "force",
    [
        _search.DampedMode(0.0, 1.0, math.nan, 0.0),
        _search.DampedMode(0.1, 1.0, math.nan, 1.0, c=0.2),
        _search.DampedMode(0.1, 1.0, 1.0, 0.0, c=math.inf),
        _search.DampedMode(0.1, math.inf, 1.0, 0.0, c=0.2),
        _search.DampedMode(math.inf, 1.0, 1.0, 0.0, c=0.2, lam=math.inf),
        _search.RealMode(1.0, 0.5, 1.0, math.nan, c=0.1, lam=0.2),
        _search.OffsetMode(_search.DampedMode(0.1, 1.0, 1.0, 0.0), math.inf),
        # A three-element drop at Lambda 1.6e-307, rho 0.998: the pair's coefficients are NaN.
        _search.OffsetMode(_search.DampedMode(0.0, 3.953444007069212e-154, math.nan, math.nan,
                                              math.nan, 1.0, -3.0167425987490466e170),
                           3.0167425987490466e170),
        # Finite, but the rate's coefficients overflow to inf - inf.
        _search.OffsetMode(_search.DampedMode(1e200, 1e200, 1e200, 1e200), 1.0),
    ],
    ids=["nan-sine", "nan-amplitude", "inf-weight", "inf-frequency", "inf-rates", "nan-real",
         "inf-offset", "nan-drop", "overflowing-rate"],
)
def test_walk_refuses_a_mode_that_is_not_finite(force):
    """No NaN or infinite coefficient, rate or phase reaches the pieces' arithmetic."""
    with pytest.raises(DomainError, match="not finite"):
        _search.first_force_zero(force, 2.0 * math.pi, 20.0 * math.pi)


def test_walk_turns_brent_non_convergence_into_a_domain_error():
    """A three-element drop at Lambda 7.6e-62, rho 1.1e-71: the rate's first piece spans
    3.5e66 and Brent does not converge on it in 100 iterations."""
    mode = _search.DampedMode(0.0, 8.981548542203833e-67, 0.0, -1.580939693402817e-16,
                              1.4975466632474717e55, 1.0, -1.5809396934028173e-16)
    force = _search.OffsetMode(mode, 1.5809396934028173e-16)
    period = 2.0 * math.pi / force.omega
    with pytest.raises(DomainError, match="no zero to Brent's tolerance on \\[0, 3.49783e"):
        _search.first_force_zero(force, period, 10.0 * period)


def test_root_is_typed_where_brentq_is_scipys():
    """The walk's solve raises DomainError where ``brentq`` keeps SciPy's RuntimeError."""
    with pytest.raises(DomainError, match="Failed to converge after 100 iterations"):
        _search._root(lambda x: (x - 0.3) ** 3, 0.0, 1.0, 0.7**3)


def test_zero_past_the_horizon_inside_its_piece_is_refused():
    """A weighted force's falling piece starts before the horizon, its zero after it."""
    force = _search.DampedMode(0.1, 1.0, 1.0, 0.0, c=0.2)
    period = 2.0 * math.pi
    zero = _search.first_force_zero(force, period, 10.0 * period)
    lo = next(lo for lo, _, g_lo, g_hi, _ in force.pieces(period) if g_lo > 0.0 >= g_hi)
    assert lo < zero
    with pytest.raises(PlasticImpactError, match="within the horizon"):
        _search.first_force_zero(force, period, 0.5 * (lo + zero))


@given(mode=_raw_modes(), offset=st.floats(min_value=-3.0, max_value=3.0))
@settings(deadline=None, max_examples=100)
def test_pair_exponential_and_constant_match_dense_reference(mode, offset):
    """A decaying mode plus a constant: the drop force's form, walked by Rolle's pieces.

    Excluded, as in the raw modes: starts at or within 1e-3 of zero, unless
    they start at zero exactly with ``|F'(0)|`` at least 0.03 of its scale.
    """
    assume(mode.beta > 0.0 and mode.lam > 0.0)
    scale = abs(mode.R) + abs(mode.c)
    force = _search.OffsetMode(mode, offset * scale)
    f0, slope = force(0.0), mode.derivative()(0.0)
    assume(abs(f0) >= 1e-3 * scale or f0 == 0.0 and abs(slope) >= 0.03 * (
        abs(mode.R) * math.hypot(mode.beta, mode.omega) + abs(mode.lam * mode.c)))
    period = 2.0 * math.pi / mode.omega
    horizon = _modal.SCAN_HORIZON_PERIODS * period
    try:
        walk = _search.first_force_zero(force, period, horizon)
    except PlasticImpactError:
        walk = None
    _assert_same_end(walk, _dense_first_zero(force, period, horizon))


_SLS_UNIT = params_from_groups(1.0, 0.5)


@pytest.mark.parametrize(
    "run, solves",
    [
        (lambda: kv_trajectory(
            KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0, g=0.05), n_samples=2), 1),
        (lambda: mx_trajectory(
            MaxwellParams(m=1.0, k=1.0, b=0.5 / 0.3, v0=1.0, g=0.05), n_samples=2), 1),
        (lambda: sls_metrics(_SLS_UNIT), 3),
        (lambda: sls_trajectory(_SLS_UNIT, n_samples=2), 1),
    ],
    ids=["kv_drop_trajectory", "mx_drop_trajectory", "sls_metrics", "sls_trajectory"],
)
def test_one_brent_solve_per_contact_end(monkeypatch, run, solves):
    """Each walk solves one piece; the piece ends need no solve."""
    calls, solve = [], _search.brentq
    monkeypatch.setattr(_search, "brentq", lambda *a, **kw: calls.append(a) or solve(*a, **kw))
    run()
    assert len(calls) == solves


class _CountingMode(_search.DampedMode):
    """A mode that counts its evaluations."""

    def __init__(self, mode):
        super().__init__(mode.beta, mode.omega, mode.A, mode.B, mode.c, mode.lam)
        self.evaluations = 0

    def __call__(self, t):
        self.evaluations += 1
        return super().__call__(t)

    def scaled(self, *args):
        self.evaluations += 1
        return super().scaled(*args)


@pytest.mark.parametrize("eps0", [1e-4, 1e-3])
def test_near_critical_embedding_is_proved_in_few_evaluations(monkeypatch, eps0):
    modes = []

    def counted(force, period, horizon):
        modes.append(_CountingMode(force))
        return _search.first_force_zero(modes[-1], period, horizon)

    monkeypatch.setattr(maxwell, "first_force_zero", counted)
    p = MaxwellParams(m=1.0, k=1.0, b=0.5 / 0.99, v0=1.0, g=eps0)
    with pytest.raises(PlasticImpactError, match="stays embedded"):
        mx_trajectory(p, n_samples=50)
    assert len(modes) == 1
    assert 0 < modes[0].evaluations < 100


class TestCriticalDamping:
    """At zeta = 0.999999 the zero-gravity restitution underflows to 0."""

    @staticmethod
    def _params(eps0: float) -> MaxwellParams:
        return MaxwellParams(m=1.0, k=1.0, b=0.5 / 0.999999, v0=1.0, g=eps0)

    def test_zero_gravity_drop_matches_closed_form(self):
        t_c = mx_metrics(self._params(0.0)).t_c
        assert t_c == pytest.approx(2221.44, rel=1e-5)
        assert mx_trajectory(self._params(0.0), n_samples=3).t_c == pytest.approx(
            t_c, rel=1e-12
        )

    def test_weight_embeds(self):
        with pytest.raises(PlasticImpactError):
            mx_trajectory(self._params(1e-4), n_samples=3)

    def test_expansion_is_typed(self):
        assert mx_drop_metrics_asymptotic(self._params(0.0)) == mx_metrics(self._params(0.0))
        with pytest.raises(DomainError, match="underflows"):
            mx_drop_metrics_asymptotic(self._params(1e-4))

    def test_cli_exits_plastic_without_traceback(self, tmp_path, capsys):
        """The drop trajectory proves the impact plastic before the expansion fails."""
        path = tmp_path / "mx.json"
        path.write_text(json.dumps({"m": 1.0, "k": 1.0, "b": 0.5 / 0.999999, "v0": 1.0}))
        assert main(["simulate", "maxwell", "--params", str(path), "--gravity"]) == EXIT_PLASTIC
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


# --- The in-house Brent root and golden search against SciPy's -------------


@st.composite
def _sign_changes(draw):
    """A smooth ``f``, a zero of it and a bracket ``[a, b]``, ``b > 0``, around that zero.

    Each bracket holds one sign change by construction, so none is drawn
    only to be thrown away.
    """
    family = draw(st.sampled_from(["damped sine", "shifted cubic", "tanh step"]))
    root = draw(st.floats(0.1, 9.0))
    if family == "damped sine":
        d, w = draw(st.floats(0.0, 3.0)), draw(st.floats(0.1, 20.0))
        # One zero inside: the sine's neighbours are a half period away.
        a = root - draw(st.floats(1e-3, 0.999)) * math.pi / w
        b = root + draw(st.floats(1e-3, 0.999)) * math.pi / w
        return (lambda x: math.exp(-d * x) * math.sin(w * (x - root))), a, b
    a = root - draw(st.floats(1e-6, 5.0))
    b = root + draw(st.floats(1e-6, 5.0))
    if family == "shifted cubic":
        s = draw(st.floats(0.0, 5.0))
        return (lambda x: (x - root) ** 3 + s * (x - root)), a, b
    k, c = 10.0 ** draw(st.floats(-1.0, 3.0)), draw(st.floats(-0.9, 0.9))
    shift = root + math.atanh(c) / k
    return (lambda x: math.tanh(k * (x - shift)) + c), a, b


def _outcome(fn, *args, **kwargs):
    """The root, or the type and message of what ``fn`` raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, not hidden: both solvers must raise alike
        return type(exc), str(exc)


@given(case=_sign_changes())
@example(case=(lambda x: x - 0.25, 0.25, 1.0))  # zero at a
@example(case=(lambda x: x - 1.0, 0.0, 1.0))  # zero at b
@settings(deadline=None, max_examples=300)
def test_brentq_is_scipys(case):
    """Bit-identical roots at each tolerance the package uses.

    Where SciPy runs out of iterations (a flat cubic at the package's
    tolerances) the port raises the same error.
    """
    f, a, b = case
    for kw in (_search._BRENTQ_KW, dict(xtol=1e-15 * b, rtol=1e-15)):
        ours = _outcome(_search.brentq, f, a, b, **kw)
        assert type(ours) in (float, tuple)
        assert ours == _outcome(scipy.optimize.brentq, f, a, b, **kw)


def test_brentq_infinite_step_is_scipys():
    """Where the extrapolation's denominator underflows, C divides to an infinite
    step, which bisects; the port catches the ZeroDivisionError and does the same."""
    def f(x):
        return 1e-200 * ((x - 0.3) ** 3 + 0.1 * (x - 0.3))

    ours = _search.brentq(f, 0.0, 1.0, **_search._BRENTQ_KW)
    assert ours == scipy.optimize.brentq(f, 0.0, 1.0, **_search._BRENTQ_KW)


def _nan_inside(x):
    """NaN on (0.45, 0.9), where the first secant step from [0, 1] lands."""
    return math.nan if 0.45 < x < 0.9 else math.tanh(5.0 * (x - 0.6))


@pytest.mark.parametrize(
    "f, a, b, error",
    [
        (lambda x: math.nan, 0.0, 1.0, ValueError),
        (lambda x: math.nan if x == 1.0 else x - 0.5, 0.0, 1.0, ValueError),
        (_nan_inside, 0, 1.0, ValueError),
        (lambda x: x + 1.0, 0.0, 1.0, ValueError),
        # Too flat at the root for 100 iterations at these tolerances.
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0, RuntimeError),
    ],
    ids=["nan-at-a", "nan-at-b", "nan-inside", "same-sign", "no-convergence"],
)
def test_brentq_errors_are_scipys(f, a, b, error):
    """Each refusal raises SciPy's type with SciPy's message."""
    ours = _outcome(_search.brentq, f, a, b, **_search._BRENTQ_KW)
    assert ours[0] is error
    assert ours == _outcome(scipy.optimize.brentq, f, a, b, **_search._BRENTQ_KW)


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6])
def test_golden_is_scipys_when_the_right_interval_is_longer(tol):
    """With ``|xc - xb| > |xb - xa|`` the first probe goes right of ``xb``."""
    def peak_force(eta):
        return _scaled_metrics(eta)[5]

    brack = (1e-3, 0.25, 0.7)
    expected = scipy.optimize.golden(peak_force, brack=brack, tol=tol)
    assert _search.golden(peak_force, brack, tol) == expected


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6])
def test_golden_is_scipys_when_the_left_interval_is_longer(tol):
    """With ``|xc - xb| <= |xb - xa|`` the first probe goes left of ``xb``."""
    def f(x):
        return (x - 0.9) ** 2

    brack = (0.0, 1.0, 1.5)
    assert _search.golden(f, brack, tol) == scipy.optimize.golden(f, brack=brack, tol=tol)


def test_cli_runs_without_importing_scipy():
    """Neither the package nor a whole ``verify`` loads any part of SciPy."""
    code = (
        "import sys, visco_impact, visco_impact.cli as cli\n"
        "rc = cli.main(['verify'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(visco_impact.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.splitlines()[-1] == "0 []"
