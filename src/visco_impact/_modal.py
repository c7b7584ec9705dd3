"""Contact end, sampled history and exact metrics of any model's modal solution.

Whatever the contact, ``m x'' = m g - F``.  A model supplies, as modes in its
own time unit ``T``, its indentation ``xi`` (``x = v0 T xi(t / T)``), the rate
``xi'`` and the force ``f = gamma - xi''`` (``F = (m v0 / T) f``), where the
weight enters as :func:`scaled_weight`'s ``gamma = g T / v0``.  Its module's
``_scaled_solution(*groups, gamma)`` gives the modes, and ``_scaled_metrics``
the metrics, closed forms or :func:`scaled_metrics`' walks through the module's
own ``first_force_zero``, which the benchmark's traced pass replaces there.
:func:`rescaled` scales metrics in ``T`` units, and :func:`dimensional` to :class:`ImpactMetrics`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .models import ImpactMetrics, Trajectory, _formula, _uniform_grid

# Walk limit for the contact end, in oscillation periods, of every closed-form
# model; the oracle keeps its own horizon as the independent reference.
SCAN_HORIZON_PERIODS = 10.0


def _first_zero(mode, walk) -> float:
    """First zero of a scaled mode after its rise."""
    # Without oscillation (three-element D <= 0) the walk needs no period or horizon.
    period = 2.0 * math.pi / (mode.omega or 1.0)
    return walk(mode, period, SCAN_HORIZON_PERIODS * period)


def _scales(T: float, m: float, v0: float) -> tuple[float, float, float]:
    """``v0 T``, ``v0 / T`` and ``m v0 / T``, which scale every sample and metric."""
    return (_formula("depth scale = v0 * T")(v0=v0, T=T),
            _formula("rate scale = v0 / T")(v0=v0, T=T),
            _formula("force scale = m * v0 / T")(m=m, v0=v0, T=T))


def require_finite(values) -> None:
    """Refuse the first of ``values``, in :class:`ImpactMetrics` order, that is not finite."""
    if math.isfinite(sum(values)):  # then each is finite
        return
    for name, value in zip(ImpactMetrics.__dataclass_fields__, values):
        if not math.isfinite(value):
            raise DomainError(f"the metric {name} = {value!r} must be finite")


def rescaled(scaled, T: float, m: float = 1.0, v0: float = 1.0) -> tuple:
    """The metrics from ``T`` units, in :class:`ImpactMetrics` order: times scale by ``T``,
    depths by ``v0 T``, forces by ``m v0 / T``; any not finite raises :class:`DomainError`."""
    x, _, f = _scales(T, m, v0)
    tau_c, e_star, tau_m, xi_m, tau_M, f_M, xi_M, f_m = scaled
    values = (tau_c * T, e_star, tau_m * T, x * xi_m, tau_M * T, f * f_M, x * xi_M, f * f_m)
    require_finite(values)
    return values


def dimensional(scaled, T: float, params) -> ImpactMetrics:
    """:func:`rescaled` at the params' mass and speed, as :class:`ImpactMetrics`."""
    return ImpactMetrics(*rescaled(scaled, T, params.m, params.v0))


def scaled_weight(T: float, params) -> float:
    """``gamma = g T / v0``, checked before the scales and both before any mode is solved;
    0 without weight, whose scales :func:`dimensional` and :func:`trajectory` check."""
    if not params.g:
        return 0.0
    gamma = _formula("gamma = g * T / v0")(g=params.g, T=T, v0=params.v0)
    _scales(T, params.m, params.v0)
    return gamma


def trajectory(modes, T: float, walk, params, n_samples: int) -> Trajectory:
    """History of the modes at the params' weight on a uniform grid spanning the contact.

    It starts where the modes do, with ``xddot = g - (v0 / T) f`` exactly
    ``g`` where the force ``f`` is 0.  A mode coefficient times its scale
    that is not finite raises :class:`DomainError`."""
    x_s, a_s, f_s = _scales(T, params.m, params.v0)
    tau_c = _first_zero(modes[2], walk)
    v0, m, g = params.v0, params.m, params.g
    scales = (x_s, v0, -a_s)
    # F = m (g - xddot): the force mode scales by v0 / T and by m v0 / T.
    for s, mode in zip((x_s, v0, max(a_s, f_s)), modes):
        for c in mode.constants():
            if not math.isfinite(s * c):
                raise DomainError(f"a mode coefficient times its scale {s:.3g} must be finite")
    # One exp, sin and cos per sample for all columns, and one product for their (u, v) parts.
    t, uv, decay = modes[1].phases(_uniform_grid(0.0, tau_c, n_samples))
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


def scaled_metrics(xi, xi_d, force, walk) -> tuple:
    """The modes' metrics in their time unit, in :class:`ImpactMetrics` order: ``t_c``, ``e*``
    from the force's first zero, peaks from the first zeros of ``xi'`` and ``f'``, to Brent's
    1e-15.  A force not rising at 0 peaks there: it falls to zero, or proves plasticity, first."""
    tau_c = _first_zero(force, walk)
    tau_m = _first_zero(xi_d, walk)
    rate = force.derivative()
    tau_M = _first_zero(rate, walk) if float(rate(0.0)) > 0.0 else 0.0
    return (tau_c, -float(xi_d(tau_c)), tau_m, float(xi(tau_m)), tau_M,
            float(force(tau_M)), float(xi(tau_M)), float(force(tau_m)))

