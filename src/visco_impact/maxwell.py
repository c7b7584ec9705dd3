"""Impact on a spring-dashpot pair in series.

The series pair relaxes stress exponentially with time constant
``tau_R = b / k``, which makes the contact force a single decaying sine:
``F(t) = (k v0 / omega) exp(-zeta omega0 t) sin(omega t)``.  Contact always
ends at exactly half a damped period, and a permanent indentation
``2 zeta v0 / omega0`` remains after separation.

The problem is linear, so with gravity acting during contact the solution
is the free response (``g = 0``) plus the response to the impactor's weight
alone (``v0 = 0``): a force offset ``m g`` and the series dashpot's creep
at ``2 zeta g / omega0``.  Each column is written once in that form, and the
zero-gravity trajectory is the drop solution at ``g = 0``.  Both parts
vanish at ``t = 0``, so ``x(0) = 0, x'(0) = v0, x''(0) = g`` hold exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._search import SCAN_HORIZON_PERIODS, DampedMode, first_force_zero
from .errors import DomainError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    MaxwellParams,
    Trajectory,
    _uniform_times,
)

__all__ = [
    "mx_trajectory",
    "mx_metrics",
    "mx_drop_trajectory",
    "mx_drop_metrics_asymptotic",
]


def _force(params: MaxwellParams, g: float) -> DampedMode:
    """Contact force under gravity ``g``; the weight's part rises to ``m g``."""
    d = params.derived
    mg = params.m * g
    return DampedMode(d.beta, d.omega, (params.k * params.v0 - mg * d.beta) / d.omega, -mg, mg)


def _sample(params: MaxwellParams, g: float, t_c: float, n_samples: int) -> Trajectory:
    """Trajectory under gravity ``g`` on a uniform grid spanning ``[0, t_c]``."""
    d = params.derived
    v0, omega0, omega, zeta = params.v0, d.omega0, d.omega, d.zeta
    t = _uniform_times(t_c, n_samples)
    envelope, phase = np.exp(-d.beta * t), omega * t
    s, c = np.sin(phase), np.cos(phase)
    x = v0 / omega0 * (
        envelope * (omega0 * (1.0 - 2.0 * zeta**2) / omega * s - 2.0 * zeta * c)
        + 2.0 * zeta
    )
    xdot = v0 * envelope * (c + zeta * omega0 / omega * s)
    F = _force(params, g).combine(envelope, s, c, t)
    # Adding g only when it is nonzero keeps the zero-gravity column exactly
    # -F / m, down to the sign of its zero at t = 0.
    xddot = -F / params.m
    if g:
        settled = 1.0 - envelope * c
        x = x + g / omega0**2 * (
            (1.0 - 4.0 * zeta**2) * settled
            + 2.0 * zeta * omega0 * t
            - zeta * (3.0 - 4.0 * zeta**2) * omega0 / omega * envelope * s
        )
        xdot = xdot + g / omega0 * (
            2.0 * zeta * settled + (1.0 - 2.0 * zeta**2) * omega0 / omega * envelope * s
        )
        xddot = g + xddot
    return Trajectory(times=t, x=x, xdot=xdot, xddot=xddot, F=F)


def mx_trajectory(params: MaxwellParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Sample the zero-gravity contact history on a uniform grid.

    The acceleration equals ``-F / m`` throughout, so the force column is
    also the exact hereditary convolution of the velocity with the
    exponential relaxation kernel.
    """
    return _sample(params, 0.0, math.pi / params.derived.omega, n_samples)


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

    Beyond the decaying oscillation the force carries a constant offset
    ``eps0 m v0 omega0`` and the indentation a drift ``2 zeta eps0 v0 t``,
    the creep of the series dashpot under the impactor's weight.  Contact
    ends at the first force zero; if the offset outweighs the oscillation
    the force never returns to zero and the impactor stays embedded.

    Raises
    ------
    PlasticImpactError
        When the force is proved never to return to zero; near ``zeta = 1``
        a tiny ``eps0`` already embeds the impactor.
    """
    period = 2.0 * math.pi / params.derived.omega
    g = params.g
    t_c = first_force_zero(_force(params, g), period, SCAN_HORIZON_PERIODS * period)
    return _sample(params, g, t_c, n_samples)


def mx_drop_metrics_asymptotic(params: MaxwellParams) -> ImpactMetrics:
    """First-order gravity corrections to duration and restitution.

    The duration correction ``eps0 (1 + e0) / (e0 omega0)`` has the same
    coefficient as for the parallel pair.  The restitution correction is
    the standard first-order estimate ``e0 - 2 zeta eps0``; its residual
    decays only linearly in ``eps0``, so prefer :func:`mx_drop_trajectory`
    when accuracy matters.  Peak fields keep their zero-gravity values.

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
