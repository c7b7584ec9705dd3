"""Impact on a spring-dashpot pair in series.

The series pair relaxes stress exponentially with time constant
``tau_R = b / k``, which makes the contact force a single decaying sine:
``F(t) = (k v0 / omega) exp(-zeta omega0 t) sin(omega t)``.  Below critical
damping, ``zeta < 1``, contact ends at exactly half a damped period, and a
permanent indentation ``2 zeta v0 / omega0`` remains; from 1 on, it never ends.

With gravity acting during contact, the force carries an offset ``m g`` and
the indentation the series dashpot's creep at ``2 zeta g / omega0``.  The
solution is one damped mode in ``omega0`` time (:func:`_scaled_solution`),
which :mod:`._modal` samples from its exact start ``x = 0, x' = v0, x'' = g``
at the params' weight; :func:`_scaled_metrics` is the closed forms without
weight and the modes' walks with it.
"""

from __future__ import annotations

import math

from . import _modal
# Every walk goes through this module's name, which perfbench's traced pass wraps.
from ._search import DampedMode, OffsetMode, first_force_zero
from .errors import DomainError, PlasticImpactError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    MaxwellParams,
    Trajectory,
)

__all__ = [
    "mx_trajectory",
    "mx_metrics",
    "mx_drop_trajectory",  # perfbench's workloads call this name for mx_trajectory
    "mx_drop_metrics_asymptotic",
]


def _damped_frequency(zeta: float) -> float:
    """``w = sqrt(1 - zeta**2)``; at ``zeta >= 1``, :class:`PlasticImpactError`, by this proof.

    The force solves ``f'' + 2 zeta f' + f = gamma``, ``f(0) = 0``, ``f'(0) = 1``, so
    ``f = h + gamma integral_0^t h`` with ``h`` the free response.  At ``zeta > 1``,
    ``h = (e**(r1 t) - e**(r2 t)) / (r1 - r2)`` with real rates ``r1 > r2``, and ``t
    e**(-t)`` at ``zeta = 1``: positive for ``t > 0``, and so is ``f`` at any ``gamma >= 0``.
    """
    if zeta >= 1.0:
        raise PlasticImpactError(f"loss factor {zeta:.3g} >= 1: no oscillatory rebound, "
                                 "so the contact force never returned to zero")
    return math.sqrt((1.0 - zeta) * (1.0 + zeta))


def _scaled_solution(zeta: float, gamma: float = 0.0):
    """Indentation, its rate and the force in ``omega0`` time, as modes.

    ``xi'' = gamma - f`` with the force ``f' = xi' - 2 zeta f``, so ``xi'``
    solves ``u'' + 2 zeta u' + u = 2 zeta gamma``, ``u(0) = 1``, ``u'(0) =
    gamma``: with ``w = sqrt(1 - zeta**2)`` and ``Q = 1 - 2 zeta gamma``, ``xi'
    = 2 zeta gamma + e**(-zeta t) ((gamma + zeta Q) / w sin w t + Q cos w t)``,
    and ``xi`` creeps at ``2 zeta gamma``.  Each mode starts exactly, ``xi'``
    through its ``start``, and the force holds the weight as its constant.
    """
    w = _damped_frequency(zeta)
    creep = 2.0 * zeta * gamma
    Q = 1.0 - creep
    K = 2.0 * zeta * Q + gamma
    xi = DampedMode(zeta, w, ((1.0 - 2.0 * zeta * zeta) * Q - zeta * gamma) / w, -K, K)
    return (OffsetMode(xi, 0.0, creep) if gamma else xi,
            DampedMode(zeta, w, (gamma + zeta * Q) / w, Q, creep, start=1.0),
            DampedMode(zeta, w, (1.0 - zeta * gamma) / w, -gamma, gamma))


def _scaled_metrics(zeta: float, gamma: float = 0.0) -> tuple:
    """:func:`mx_metrics` at the weight ``gamma`` in ``omega0`` units, in ImpactMetrics order."""
    if gamma:
        return _modal.scaled_metrics(*_scaled_solution(zeta, gamma), first_force_zero)
    w = _damped_frequency(zeta)
    tau_m = (0.5 * math.pi + math.asin(zeta)) / w
    f_m = math.exp(-zeta * tau_m)
    tau_M = math.atan2(w, zeta) / w
    f_M = math.exp(-zeta * tau_M)
    return (math.pi / w, math.exp(-math.pi * zeta / w), tau_m, 2.0 * zeta + f_m,
            tau_M, f_M, 2.0 * zeta + (1.0 - 4.0 * zeta**2) * f_M, f_m)


def mx_trajectory(params: MaxwellParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Sample the contact history on a uniform grid, the weight ``m g`` acting throughout.

    The acceleration equals ``g - F / m`` throughout, so the force column is
    also the exact hereditary convolution of the velocity with the
    exponential relaxation kernel.  :class:`PlasticImpactError` from ``zeta =
    1`` on at any weight, and below it where the weight's offset is proved to
    keep the force above zero; near ``zeta = 1`` a tiny ``eps0`` already embeds.
    """
    d = params.derived
    T = 1.0 / d.omega0
    modes = _scaled_solution(d.zeta, _modal.scaled_weight(T, params))
    return _modal.trajectory(modes, T, first_force_zero, params, n_samples)


mx_drop_trajectory = mx_trajectory


def mx_metrics(params: MaxwellParams) -> ImpactMetrics:
    """Exact scalar metrics of :func:`mx_trajectory`'s impact; closed forms at ``g = 0``.

    In ``omega0`` units those read the loss factor alone: with ``w = sqrt(1 -
    zeta**2)``, contact lasts half a damped period, ``t_c = pi / w``, at any
    amplitude.  The force peaks at ``w t_M = atan(w / zeta)`` and the
    indentation a quarter period later, at ``w t_m = pi/2 + asin(zeta)``.
    :class:`PlasticImpactError` where :func:`mx_trajectory` raises it.
    """
    d = params.derived
    T = 1.0 / d.omega0
    return _modal.dimensional(_scaled_metrics(d.zeta, _modal.scaled_weight(T, params)), T, params)


def mx_drop_metrics_asymptotic(params: MaxwellParams) -> ImpactMetrics:
    """First-order gravity corrections to duration and restitution.

    The weight ``eps0`` is the exact drop's ``gamma = g T / v0`` at ``T = 1 /
    omega0``, refused as it is.  The duration correction ``eps0 (1 + e0) /
    e0`` in ``omega0`` time has the same coefficient as for the parallel
    pair.  The restitution correction
    is the standard first-order estimate ``e0 - 2 zeta eps0``, whose slope
    misses the exact ``de*/deps0 = -2 zeta (1 + e0)`` at ``eps0 = 0`` by
    ``2 zeta e0``: a Richardson difference of :func:`mx_trajectory`
    gives -0.345850, -0.823396 and -1.313735 at ``zeta`` 0.1, 0.3 and 0.6,
    ``-2 zeta (1 + e0)`` -0.345850, -0.823396 and -1.313736, and the ``-2 zeta``
    used here -0.2, -0.6 and -1.2.  So its residual decays only linearly in
    ``eps0``; prefer :func:`mx_metrics` when accuracy matters.  Peak
    fields keep their zero-gravity values.

    Raises
    ------
    PlasticImpactError
        At ``zeta >= 1``, where the zeroth order never separates.
    DomainError
        When ``e0`` underflows to 0 (``zeta`` above about 0.99999) and
        ``eps0 > 0``: the duration correction is then unbounded.
    """
    d = params.derived
    T = 1.0 / d.omega0
    eps0 = _modal.scaled_weight(T, params)
    return _modal.dimensional(_scaled_drop_asymptotic(d.zeta, eps0), T, params)


def _scaled_drop_asymptotic(zeta: float, eps0: float) -> tuple:
    """:func:`mx_drop_metrics_asymptotic` in ``omega0`` units, in :class:`ImpactMetrics` order."""
    tau_c, e0, tau_m, xi_m, tau_M, f_M, xi_M, f_m = _scaled_metrics(zeta)
    if eps0:
        if e0 == 0.0:
            raise DomainError("the first-order eps0 expansion needs e0 > 0, but e0 "
                              f"underflows to 0 at zeta = {zeta!r}")
        tau_c, e0 = tau_c + eps0 * (1.0 + e0) / e0, e0 - 2.0 * zeta * eps0
    return tau_c, e0, tau_m, xi_m, tau_M, f_M, xi_M, f_m
