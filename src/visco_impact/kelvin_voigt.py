"""Impact on a spring-dashpot pair in parallel.

Closed-form contact histories and scalar impact metrics for a rigid mass
striking a massless spring-dashpot element, with and without gravity acting
during contact.  All results are exact evaluations of the oscillatory
solution of ``m x'' + b x' + k x = m g`` with ``x(0) = 0, x'(0) = v0``;
contact ends at the first return of the transmitted force ``k x + b x'``
to zero.

The equation is linear, so the drop solution is the free response (``g = 0``)
plus the response to the impactor's weight alone (``v0 = 0``).  Each column
is written once in that form, and the zero-gravity trajectory is the drop
solution at ``g = 0`` with its contact end in closed form.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._search import SCAN_HORIZON_PERIODS, DampedMode, first_force_zero, golden
from .errors import DomainError, PlasticImpactError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    KelvinVoigtParams,
    Trajectory,
)

__all__ = [
    "kv_trajectory",
    "kv_metrics",
    "kv_fm_minimizer",
    "kv_drop_trajectory",
    "kv_drop_metrics_asymptotic",
    "kv_find_critical_eps0",
]

# The force maximum moves to the initial dashpot jump once the loss factor
# reaches one half.
_ETA_FORCE_BRANCH = 0.5


def _contact_duration(derived) -> float:
    """Zero-gravity contact duration ``(2 / omega) * atan(omega / beta)``."""
    return 2.0 / derived.omega * math.atan2(derived.omega, derived.beta)


def _peak_angle(eta: float) -> float:
    """Damped phase ``omega t_M`` of the force peak below the branch at one half."""
    return math.atan2(
        math.sqrt(1.0 - eta * eta) * (1.0 - 4.0 * eta * eta),
        eta * (3.0 - 4.0 * eta * eta),
    )


def _force(params: KelvinVoigtParams, g: float) -> DampedMode:
    """Transmitted force ``k x + b xdot`` under gravity ``g``."""
    d = params.derived
    v0, omega, beta, mg = params.v0, d.omega, d.beta, params.m * g
    return DampedMode(
        beta, omega, (v0 * (params.k - params.b * beta) + mg * beta) / omega,
        params.b * v0 - mg, mg,
    )


def _columns(params: KelvinVoigtParams, g: float, t):
    """Displacement, velocity and force at times ``t`` under gravity ``g``."""
    d = params.derived
    v0, omega0, omega, beta = params.v0, d.omega0, d.omega, d.beta
    envelope, phase = np.exp(-beta * t), omega * t
    s, c = np.sin(phase), np.cos(phase)
    x = v0 / omega * envelope * s
    xdot = v0 / omega * envelope * (omega * c - beta * s)
    if g:
        x = x + g / omega0**2 * (1.0 - envelope * (c + beta / omega * s))
        xdot = xdot + g / omega * envelope * s
    return x, xdot, _force(params, g).combine(envelope, s, c, t)


def _sample(params: KelvinVoigtParams, g: float, t_c: float, n_samples: int) -> Trajectory:
    """Trajectory under gravity ``g`` on a uniform grid spanning ``[0, t_c]``."""
    t = np.linspace(0.0, t_c, n_samples)
    x, xdot, F = _columns(params, g, t)
    return Trajectory(times=t, x=x, xdot=xdot, xddot=g - F / params.m, F=F)


def kv_trajectory(params: KelvinVoigtParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Sample the zero-gravity contact history on a uniform grid.

    Parameters
    ----------
    params : KelvinVoigtParams
        Model parameters; the ``g`` field is ignored here.
    n_samples : int, optional
        Number of samples, spanning ``[0, t_c]`` inclusive.

    Returns
    -------
    Trajectory
        With ``x[0] = 0``, ``xdot[0] = v0`` and the force satisfying
        ``F = k x + b xdot`` at every sample.
    """
    return _sample(params, 0.0, _contact_duration(params.derived), n_samples)


def kv_metrics(params: KelvinVoigtParams) -> ImpactMetrics:
    """Closed-form scalar metrics of the zero-gravity impact.

    The restitution coefficient is ``exp(-beta * t_c)``; the indentation
    peaks at half the contact duration.  For loss factors at or above one
    half the force maximum sits at the initial dashpot jump, ``t_M = 0``
    and ``F_M = 2 eta m v0 omega0``; below it the force peaks where
    ``omega t_M = atan`` of ``sqrt(1-eta^2)(1-4 eta^2) / (eta (3-4 eta^2))``
    with ``F_M = m v0 omega0 exp(-beta t_M)``.
    """
    d = params.derived
    m, v0 = params.m, params.v0
    omega0, omega, beta, eta = d.omega0, d.omega, d.beta, d.eta

    t_c = _contact_duration(d)
    e_star = math.exp(-beta * t_c)
    t_m = 0.5 * t_c
    x_m = v0 / omega0 * math.exp(-beta * t_m)
    F_m = params.k * x_m

    if eta >= _ETA_FORCE_BRANCH:
        t_M = 0.0
        F_M = 2.0 * eta * m * v0 * omega0
        x_M = 0.0
    else:
        t_M = _peak_angle(eta) / omega
        F_M = m * v0 * omega0 * math.exp(-beta * t_M)
        x_M = v0 / omega * math.exp(-beta * t_M) * math.sin(omega * t_M)

    return ImpactMetrics(
        t_c=t_c, e_star=e_star, t_m=t_m, x_m=x_m, t_M=t_M, F_M=F_M, x_M=x_M, F_m=F_m
    )


def _peak_force_scaled(eta: float) -> float:
    """Peak force over ``m v0 omega0`` as a function of the loss factor."""
    if eta >= _ETA_FORCE_BRANCH:
        return 2.0 * eta
    return math.exp(-eta / math.sqrt(1.0 - eta * eta) * _peak_angle(eta))


def kv_fm_minimizer(tol: float = 1e-12) -> tuple[float, float]:
    """Loss factor minimizing the scaled peak force, by golden-section search.

    Returns
    -------
    tuple of float
        ``(eta_star, F_M_star)`` with the force scaled by ``m v0 omega0``.
        The scaled peak is 1 in the elastic limit, dips to about 0.810 near
        ``eta = 0.265`` and grows as ``2 eta`` beyond one half.
    """
    eta_star = float(golden(_peak_force_scaled, brack=(1e-3, 0.25, 0.7), tol=tol))
    return eta_star, _peak_force_scaled(eta_star)


def _drop_contact_end(params: KelvinVoigtParams) -> float:
    """First force zero with gravity acting, walked over at most ten periods."""
    period = 2.0 * math.pi / params.derived.omega
    return first_force_zero(_force(params, params.g), period, SCAN_HORIZON_PERIODS * period)


def kv_drop_trajectory(params: KelvinVoigtParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Contact history with gravity acting throughout contact.

    Gravity adds a particular solution that delays separation and, beyond a
    damping-dependent threshold of ``eps0 = g / (omega0 v0)``, suppresses it
    entirely.  The contact end is the first zero of the transmitted force,
    found by :func:`~visco_impact._search.first_force_zero`'s walk over the
    half periods of its oscillating mode.

    Raises
    ------
    PlasticImpactError
        If the force is proved never to return to zero (the impactor stays
        embedded); the proof takes the first full negative half period.
    """
    # Without gravity the contact end is in closed form.
    t_c = _drop_contact_end(params) if params.g else _contact_duration(params.derived)
    return _sample(params, params.g, t_c, n_samples)


def kv_drop_metrics_asymptotic(params: KelvinVoigtParams) -> ImpactMetrics:
    """First-order gravity corrections to duration and restitution.

    For small ``eps0 = g / (omega0 v0)`` the contact lasts longer by
    ``eps0 (1 + e0) / (e0 omega0)`` and the restitution drops by the factor
    ``(1 - 2 eta eps0)``, where ``e0`` is the zero-gravity value.  Only
    ``t_c`` and ``e_star`` carry corrections; the peak fields keep their
    zero-gravity values since no comparable first-order formulas exist
    for them.
    """
    base = kv_metrics(params)
    d = params.derived
    eps0 = d.eps0
    t_c = base.t_c + eps0 * (1.0 + base.e_star) / (base.e_star * d.omega0)
    e_star = base.e_star * (1.0 - 2.0 * d.eta * eps0)
    return dataclasses.replace(base, t_c=t_c, e_star=e_star)


def kv_find_critical_eps0(eta: float, tol: float = 1e-6) -> float:
    """Gravity ratio beyond which the impactor never separates.

    Bisection on ``eps0`` at fixed loss factor, classifying each trial by
    whether the transmitted force returns to zero.  The threshold is scale
    invariant, so the search runs in units ``m = k = v0 = 1``.

    Parameters
    ----------
    eta : float
        Loss factor in (0, 1).
    tol : float, optional
        Absolute tolerance on the returned threshold.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta!r}")
    b = 2.0 * eta

    def embeds(eps0: float) -> bool:
        try:
            _drop_contact_end(KelvinVoigtParams(m=1.0, k=1.0, b=b, v0=1.0, g=eps0))
        except PlasticImpactError:
            return True
        return False

    lo, hi = 0.0, 0.5
    while not embeds(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise DomainError("no embedding threshold found below eps0 = 1e6")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if embeds(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
