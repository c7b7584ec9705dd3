"""Impact on a spring-dashpot pair in series.

The series pair relaxes stress exponentially with time constant
``tau_R = b / k``, which makes the contact force a single decaying sine:
``F(t) = (k v0 / omega) exp(-zeta omega0 t) sin(omega t)``.  Contact always
ends at exactly half a damped period, and a permanent indentation
``2 zeta v0 / omega0`` remains after separation.

With gravity acting during contact the force acquires a constant offset and
a secular drift term; the closed forms here satisfy the initial conditions
``x(0) = 0, x'(0) = v0, x''(0) = g`` exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._search import SCAN_HORIZON_PERIODS, first_force_zero
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


def mx_trajectory(params: MaxwellParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Sample the zero-gravity contact history on a uniform grid.

    The acceleration equals ``-F / m`` throughout, so the force column is
    also the exact hereditary convolution of the velocity with the
    exponential relaxation kernel.
    """
    d = params.derived
    v0, omega0, omega, beta, zeta = params.v0, d.omega0, d.omega, d.beta, d.zeta
    t_c = math.pi / omega
    t = np.linspace(0.0, t_c, n_samples)
    envelope = np.exp(-beta * t)
    s, c = np.sin(omega * t), np.cos(omega * t)
    x = v0 / omega0 * (
        envelope * (omega0 * (1.0 - 2.0 * zeta**2) / omega * s - 2.0 * zeta * c)
        + 2.0 * zeta
    )
    xdot = v0 * envelope * (c + zeta * omega0 / omega * s)
    F = params.k * v0 / omega * envelope * s
    xddot = -F / params.m
    return Trajectory(times=t, x=x, xdot=xdot, xddot=xddot, F=F)


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


def _drop_force_scaled(params: MaxwellParams, t: np.ndarray) -> np.ndarray:
    """Contact force over ``m v0 omega0`` with gravity acting."""
    d = params.derived
    omega0, omega, beta, zeta, eps0 = d.omega0, d.omega, d.beta, d.zeta, d.eps0
    envelope = np.exp(-beta * t)
    s, c = np.sin(omega * t), np.cos(omega * t)
    return eps0 + envelope * (omega0 / omega * (1.0 - zeta * eps0) * s - eps0 * c)


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
        When no force zero exists within the search horizon.
    NoSeparationError
        When that horizon needs a scan past ``_search.MAX_SCAN_SAMPLES``,
        as it does for ``zeta`` near 1.
    """
    d = params.derived
    v0, g = params.v0, params.g
    omega0, omega, beta, zeta, eps0 = d.omega0, d.omega, d.beta, d.zeta, d.eps0
    period = 2.0 * math.pi / omega

    def force(t):
        return params.m * v0 * omega0 * _drop_force_scaled(params, t)

    horizon = max(
        SCAN_HORIZON_PERIODS * period, 2.0 * mx_drop_metrics_asymptotic(params).t_c
    )
    t_c = first_force_zero(force, period, horizon)

    t = np.linspace(0.0, t_c, n_samples)
    envelope = np.exp(-beta * t)
    s, c = np.sin(omega * t), np.cos(omega * t)
    offset = 2.0 * zeta + eps0 - 4.0 * zeta**2 * eps0
    x = v0 / omega0 * (
        envelope
        * (
            omega0
            / omega
            * (1.0 - 2.0 * zeta**2 - 3.0 * zeta * eps0 + 4.0 * zeta**3 * eps0)
            * s
            - offset * c
        )
        + offset
        + 2.0 * zeta * eps0 * omega0 * t
    )
    xdot = (
        envelope
        * (
            v0 * (1.0 - 2.0 * zeta * eps0) * c
            + omega0 / omega * v0 * (zeta + eps0 - 2.0 * zeta**2 * eps0) * s
        )
        + 2.0 * zeta * eps0 * v0
    )
    F = params.m * v0 * omega0 * _drop_force_scaled(params, t)
    xddot = g - F / params.m
    return Trajectory(times=t, x=x, xdot=xdot, xddot=xddot, F=F)


def mx_drop_metrics_asymptotic(params: MaxwellParams) -> ImpactMetrics:
    """First-order gravity corrections to duration and restitution.

    The duration correction ``eps0 (1 + e0) / (e0 omega0)`` has the same
    coefficient as for the parallel pair.  The restitution correction is
    the standard first-order estimate ``e0 - 2 zeta eps0``; its residual
    decays only linearly in ``eps0``, so prefer :func:`mx_drop_trajectory`
    when accuracy matters.  Peak fields keep their zero-gravity values.
    """
    base = mx_metrics(params)
    d = params.derived
    eps0 = d.eps0
    t_c = base.t_c + eps0 * (1.0 + base.e_star) / (base.e_star * d.omega0)
    e_star = base.e_star - 2.0 * d.zeta * eps0
    return dataclasses.replace(base, t_c=t_c, e_star=e_star)
