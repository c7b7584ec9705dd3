"""Contact end, sampled history and exact metrics of any model's modal solution.

Whatever the contact, ``m x'' = m g - F``.  A model supplies, as modes in its
own time unit ``T``, its indentation ``xi`` (``x = v0 T xi(t / T)``), the rate
``xi'`` and the force ``f = gamma - xi''`` (``F = (m v0 / T) f``), where the
weight enters as ``gamma = g T / v0``.  A model is ``(solution, T, walk)``:
``solution(gamma)`` gives the modes, and ``walk`` is the ``first_force_zero``
its own module names, which the benchmark's traced pass replaces there.
:func:`dimensional` scales metrics in ``T`` units, a model's closed forms or
the walk's, to :class:`ImpactMetrics`.
"""

from __future__ import annotations

import math

import numpy as np

from ._search import SCAN_HORIZON_PERIODS
from .errors import DomainError
from .models import ImpactMetrics, Trajectory, _check_groups, _uniform_times


def _first_zero(mode, walk) -> float:
    """First zero of a scaled mode after its rise."""
    # Without oscillation (three-element D <= 0) the walk needs no period or horizon.
    period = 2.0 * math.pi / (mode.omega or 1.0)
    return walk(mode, period, SCAN_HORIZON_PERIODS * period)


def _scales(T: float, params) -> tuple[float, float, float]:
    """``v0 T``, ``v0 / T`` and ``m v0 / T``, which scale every sample and metric, if finite."""
    v0 = params.v0
    scales = v0 * T, v0 / T, params.m * v0 / T
    if not all(map(math.isfinite, scales)):
        raise DomainError(
            "the scales v0 T = {:.3g}, v0 / T = {:.3g} and m v0 / T = {:.3g} "
            "must be finite".format(*scales)
        )
    return scales


def require_finite(values) -> None:
    """Refuse the first of ``values``, in :class:`ImpactMetrics` order, that is not finite."""
    if math.isfinite(sum(values)):  # then each is finite
        return
    for name, value in zip(ImpactMetrics.__dataclass_fields__, values):
        if not math.isfinite(value):
            raise DomainError(f"the metric {name} = {value!r} must be finite")


def dimensional(scaled, T: float, params) -> ImpactMetrics:
    """The metrics from their values in the time unit ``T``, in :class:`ImpactMetrics`
    order: times scale by ``T``, depths by ``v0 T`` and forces by ``m v0 / T``.
    A scale or a metric that is not finite raises :class:`DomainError`."""
    x, _, f = _scales(T, params)
    tau_c, e_star, tau_m, xi_m, tau_M, f_M, xi_M, f_m = scaled
    values = (tau_c * T, e_star, tau_m * T, x * xi_m, tau_M * T, f * f_M, x * xi_M, f * f_m)
    require_finite(values)
    return ImpactMetrics(*values)


def _solve(solution, T: float, walk, params, g: float):
    """The scales, the modes under gravity ``g`` and the contact end, the force's first zero."""
    gamma = g * T / params.v0
    _check_groups("gamma = g T / v0", eps0=gamma)
    scales, modes = _scales(T, params), solution(gamma)
    return scales, modes, _first_zero(modes[2], walk)


def trajectory(solution, T: float, walk, params, g: float, n_samples: int) -> Trajectory:
    """History under gravity ``g`` on a uniform grid spanning the contact.

    It starts where the modes do, with ``xddot = g - (v0 / T) f`` exactly
    ``g`` where the force ``f`` is 0.  A mode coefficient times its scale
    that is not finite raises :class:`DomainError`."""
    (x_s, a_s, f_s), modes, tau_c = _solve(solution, T, walk, params, g)
    v0, m = params.v0, params.m
    scales = (x_s, v0, -a_s)
    # F = m (g - xddot): the force mode scales by v0 / T and by m v0 / T.
    for s, mode in zip((x_s, v0, max(a_s, f_s)), modes):
        for c in mode.constants():
            if not math.isfinite(s * c):
                raise DomainError(f"a mode coefficient times its scale {s:.3g} must be finite")
    # One exp, sin and cos per sample for all columns, and one product for their (u, v) parts.
    t, uv, decay = modes[1].phases(_uniform_times(tau_c, n_samples))
    terms = [mode.terms(t, uv[1], decay) for mode in modes]
    columns = np.array([(s * P, s * Q) for s, (P, Q, _) in zip(scales, terms)]) @ uv
    for column, s, (_, _, rest) in zip(columns, scales, terms):
        if rest is not None:
            column += s * rest
    x, xdot, xddot = columns
    if g:
        xddot += g
    return Trajectory(times=t * T, x=x, xdot=xdot, xddot=xddot,
                      F=m * (g - xddot) if g else -m * xddot)


def metrics(solution, T: float, walk, params, g: float) -> ImpactMetrics:
    """Duration and restitution from the force's first zero, peaks from the
    first zeros of ``xi'`` and of the force's rate, each to Brent's 1e-15.  A force
    not rising at 0 peaks there: it falls to zero, or proves the drop plastic, first."""
    _, (xi, xi_d, force), tau_c = _solve(solution, T, walk, params, g)
    tau_m = _first_zero(xi_d, walk)
    rate = force.derivative()
    tau_M = _first_zero(rate, walk) if float(rate(0.0)) > 0.0 else 0.0
    return dimensional((tau_c, -float(xi_d(tau_c)), tau_m, float(xi(tau_m)), tau_M,
                        float(force(tau_M)), float(xi(tau_M)), float(force(tau_m))), T, params)
