"""Impact on a spring-dashpot pair in series.

The series pair relaxes stress exponentially with time constant
``tau_R = b / k``, which makes the contact force a single decaying sine:
``F(t) = (k v0 / omega) exp(-zeta omega0 t) sin(omega t)``.  Contact always
ends at exactly half a damped period, and a permanent indentation
``2 zeta v0 / omega0`` remains after separation.

With gravity acting during contact, the force carries an offset ``m g`` and
the indentation the series dashpot's creep at ``2 zeta g / omega0``.  The
solution is one damped mode in ``omega0`` time (:func:`_scaled_solution`),
which :mod:`._modal` samples from its exact start ``x = 0, x' = v0, x'' = g``;
the zero-gravity trajectory is the drop solution at ``g = 0``.
"""

from __future__ import annotations

import dataclasses
import math

from . import _modal
# Every walk goes through this module's name, which perfbench's traced pass wraps.
from ._search import DampedMode, OffsetMode, first_force_zero
from .errors import DomainError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    MaxwellParams,
    Trajectory,
)

__all__ = [
    "mx_trajectory",
    "mx_metrics",
    "mx_drop_trajectory",
    "mx_drop_metrics_asymptotic",
]


def _scaled_solution(zeta: float, gamma: float = 0.0):
    """Indentation, its rate and the force in ``omega0`` time, as modes.

    ``xi'' = gamma - f`` with the force ``f' = xi' - 2 zeta f``, so ``xi'``
    solves ``u'' + 2 zeta u' + u = 2 zeta gamma``, ``u(0) = 1``, ``u'(0) =
    gamma``: with ``w = sqrt(1 - zeta**2)`` and ``Q = 1 - 2 zeta gamma``, ``xi'
    = 2 zeta gamma + e**(-zeta t) ((gamma + zeta Q) / w sin w t + Q cos w t)``,
    and ``xi`` creeps at ``2 zeta gamma``.  Each mode starts exactly, ``xi'``
    through its ``start``, and the force holds the weight as its constant.
    """
    w = math.sqrt(1.0 - zeta * zeta)
    creep = 2.0 * zeta * gamma
    Q = 1.0 - creep
    K = 2.0 * zeta * Q + gamma
    xi = DampedMode(zeta, w, ((1.0 - 2.0 * zeta * zeta) * Q - zeta * gamma) / w, -K, K)
    return (OffsetMode(xi, 0.0, creep) if gamma else xi,
            DampedMode(zeta, w, (gamma + zeta * Q) / w, Q, creep, start=1.0),
            DampedMode(zeta, w, (1.0 - zeta * gamma) / w, -gamma, gamma))


def _model(params: MaxwellParams):
    """The pair at ``params`` for :mod:`._modal`, in ``omega0`` time."""
    d = params.derived
    return (lambda gamma: _scaled_solution(d.zeta, gamma)), 1.0 / d.omega0, first_force_zero


def mx_trajectory(params: MaxwellParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Sample the zero-gravity contact history on a uniform grid.

    The acceleration equals ``-F / m`` throughout, so the force column is
    also the exact hereditary convolution of the velocity with the
    exponential relaxation kernel.
    """
    return _modal.trajectory(*_model(params), params, 0.0, n_samples)


def mx_metrics(params: MaxwellParams) -> ImpactMetrics:
    """Closed-form scalar metrics of the zero-gravity impact.

    Contact lasts exactly half a damped period regardless of amplitude.
    The force peaks at ``omega t_M = atan(sqrt(1-zeta^2)/zeta)`` and the
    indentation a quarter period later, at ``omega t_m = pi/2 + asin(zeta)``.
    """
    d = params.derived
    v0, omega0, omega, beta, zeta = params.v0, d.omega0, d.omega, d.beta, d.zeta
    root = math.sqrt(1.0 - zeta * zeta)

    t_c = math.pi / omega
    e_star = math.exp(-math.pi * zeta / root)
    t_m = (0.5 * math.pi + math.asin(zeta)) / omega
    decay_m = math.exp(-beta * t_m)
    x_m = v0 / omega0 * (2.0 * zeta + decay_m)
    F_m = params.k * v0 / omega0 * decay_m
    t_M = math.atan2(root, zeta) / omega
    decay_M = math.exp(-beta * t_M)
    F_M = params.k * v0 / omega0 * decay_M
    x_M = v0 / omega0 * (2.0 * zeta + (1.0 - 4.0 * zeta**2) * decay_M)
    return ImpactMetrics(
        t_c=t_c, e_star=e_star, t_m=t_m, x_m=x_m, t_M=t_M, F_M=F_M, x_M=x_M, F_m=F_m
    )


def mx_drop_trajectory(params: MaxwellParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Contact history with gravity acting throughout contact.

    Contact ends at the first force zero.  :class:`PlasticImpactError` when
    the weight's offset is proved to keep the force above zero; near
    ``zeta = 1`` a tiny ``eps0`` already embeds the impactor.
    """
    return _modal.trajectory(*_model(params), params, params.g, n_samples)


def mx_drop_metrics_asymptotic(params: MaxwellParams) -> ImpactMetrics:
    """First-order gravity corrections to duration and restitution.

    The duration correction ``eps0 (1 + e0) / (e0 omega0)`` has the same
    coefficient as for the parallel pair.  The restitution correction is
    the standard first-order estimate ``e0 - 2 zeta eps0``, whose slope
    misses the exact ``de*/deps0 = -2 zeta (1 + e0)`` at ``eps0 = 0`` by
    ``2 zeta e0``: a Richardson difference of :func:`mx_drop_trajectory`
    gives -0.345850, -0.823396 and -1.313735 at ``zeta`` 0.1, 0.3 and 0.6,
    the formula -0.345850, -0.823396 and -1.313736.  So its residual decays
    only linearly in ``eps0``; prefer :func:`mx_drop_trajectory` when
    accuracy matters.  Peak fields keep their zero-gravity values.

    Raises
    ------
    DomainError
        When ``e0`` underflows to 0 (``zeta`` above about 0.99999) and
        ``eps0 > 0``: the duration correction is then unbounded.
    """
    base = mx_metrics(params)
    d = params.derived
    eps0 = d.eps0
    if base.e_star == 0.0:
        if eps0 == 0.0:
            return base
        raise DomainError(
            f"the first-order eps0 expansion needs e0 > 0, but e0 underflows to 0 "
            f"at zeta = {d.zeta!r}"
        )
    t_c = base.t_c + eps0 * (1.0 + base.e_star) / (base.e_star * d.omega0)
    e_star = base.e_star - 2.0 * d.zeta * eps0
    return dataclasses.replace(base, t_c=t_c, e_star=e_star)
