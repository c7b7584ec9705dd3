"""Contact end, sampled history and exact metrics of any model's modal solution.

Whatever the contact, ``m x'' = m g - F``.  A model supplies, as modes in its
own time unit ``T``, its indentation ``xi`` (``x = v0 T xi(t / T)``), the rate
``xi'`` and the force ``f = gamma - xi''`` (``F = (m v0 / T) f``), where the
weight enters as ``gamma = g T / v0``.  A model is ``(solution, T, walk)``:
``solution(gamma)`` gives the modes, and ``walk`` is the ``first_force_zero``
its own module names, which the benchmark's traced pass replaces there.
"""

from __future__ import annotations

import math

import numpy as np

from ._search import SCAN_HORIZON_PERIODS
from .models import ImpactMetrics, Trajectory, _uniform_times


def _first_zero(mode, walk) -> float:
    """First zero of a scaled mode after its rise."""
    # Without oscillation (three-element D <= 0) the walk needs no period or horizon.
    period = 2.0 * math.pi / (mode.omega or 1.0)
    return walk(mode, period, SCAN_HORIZON_PERIODS * period)


def _solve(solution, T: float, walk, params, g: float):
    """The modes under gravity ``g`` and the contact end, the force's first zero."""
    modes = solution(g * T / params.v0)
    return modes, _first_zero(modes[2], walk)


def trajectory(solution, T: float, walk, params, g: float, n_samples: int) -> Trajectory:
    """History under gravity ``g`` on a uniform grid spanning the contact.

    It starts where the modes do, with ``xddot = g - (v0 / T) f`` exactly
    ``g`` where the force ``f`` is 0."""
    (xi, xi_d, force), tau_c = _solve(solution, T, walk, params, g)
    # One exp, sin and cos per sample for all columns, and one product for their (u, v) parts.
    t, uv, decay = xi_d.phases(_uniform_times(tau_c, n_samples))
    v0, m = params.v0, params.m
    scales = (v0 * T, v0, -v0 / T)
    terms = [mode.terms(t, uv[1], decay) for mode in (xi, xi_d, force)]
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
    first zeros of ``xi'`` and of the force's rate, each to Brent's 1e-15."""
    (xi, xi_d, force), tau_c = _solve(solution, T, walk, params, g)
    tau_m = _first_zero(xi_d, walk)
    tau_M = _first_zero(force.derivative(), walk)
    x, f = params.v0 * T, params.m * params.v0 / T
    return ImpactMetrics(t_c=tau_c * T, e_star=-float(xi_d(tau_c)), t_m=tau_m * T,
                         x_m=x * float(xi(tau_m)), t_M=tau_M * T, F_M=f * float(force(tau_M)),
                         x_M=x * float(xi(tau_M)), F_m=f * float(force(tau_m)))
