"""Impact on a spring-dashpot pair in parallel.

Closed-form contact histories and scalar impact metrics for a rigid mass
striking a massless spring-dashpot element, with and without gravity acting
during contact.  All results are exact evaluations of the oscillatory
solution of ``m x'' + b x' + k x = m g`` with ``x(0) = 0, x'(0) = v0``;
contact ends at the first return of the transmitted force ``k x + b x'``
to zero.

The solution is one damped mode in ``omega0`` time (:func:`_scaled_solution`),
which :mod:`._modal` samples at the params' weight; :func:`_scaled_metrics` is
the closed forms without weight and the modes' walks with it.
"""

from __future__ import annotations

import math

from . import _modal
# Every walk goes through this module's name, which perfbench's traced pass wraps.
from ._search import DampedMode, _root, first_force_zero
from .errors import DomainError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    KelvinVoigtParams,
    Trajectory,
    _check_groups,
)

__all__ = [
    "kv_trajectory",
    "kv_metrics",
    "kv_fm_minimizer",
    "kv_drop_trajectory",  # perfbench's workloads call this name for kv_trajectory
    "kv_drop_metrics_asymptotic",
    "kv_find_critical_eps0",
]

# The force maximum moves to the initial dashpot jump once the loss factor
# reaches one half.
_ETA_FORCE_BRANCH = 0.5


def _peak_angle(eta: float) -> float:
    """Damped phase ``omega t_M`` of the force peak below the branch at one half."""
    return math.atan2(
        math.sqrt(1.0 - eta * eta) * (1.0 - 4.0 * eta * eta),
        eta * (3.0 - 4.0 * eta * eta),
    )


def _scaled_solution(eta: float, gamma: float = 0.0):
    """Indentation, its rate and the force in ``omega0`` time, as modes.

    ``xi'' + 2 eta xi' + xi = gamma``, ``xi(0) = 0``, ``xi'(0) = 1``: with
    ``w = sqrt(1 - eta**2)``, ``xi = gamma + e**(-eta t) ((1 - gamma eta) / w
    sin w t - gamma cos w t)``.  The force ``(k x + b xdot) / (m v0 omega0)``
    holds the weight as its constant, so one Brent solve ends the contact.
    Each mode starts exactly.
    """
    w = math.sqrt(1.0 - eta * eta)
    return (DampedMode(eta, w, (1.0 - gamma * eta) / w, -gamma, gamma),
            DampedMode(eta, w, (gamma - eta) / w, 1.0),
            DampedMode(eta, w, (1.0 - 2.0 * eta * eta + gamma * eta) / w, 2.0 * eta - gamma, gamma))


def _scaled_metrics(eta: float, gamma: float = 0.0) -> tuple:
    """:func:`kv_metrics` at the weight ``gamma`` in ``omega0`` units, in ImpactMetrics order."""
    if gamma:
        return _modal.scaled_metrics(*_scaled_solution(eta, gamma), first_force_zero)
    w = math.sqrt(1.0 - eta * eta)
    tau_c = 2.0 / w * math.atan2(w, eta)
    tau_m = 0.5 * tau_c
    xi_m = math.exp(-eta * tau_m)
    if eta >= _ETA_FORCE_BRANCH:
        tau_M, f_M, xi_M = 0.0, 2.0 * eta, 0.0
    else:
        tau_M = _peak_angle(eta) / w
        f_M = math.exp(-eta * tau_M)
        xi_M = 1.0 / w * f_M * math.sin(w * tau_M)
    return tau_c, math.exp(-eta * tau_c), tau_m, xi_m, tau_M, f_M, xi_M, xi_m


def kv_trajectory(params: KelvinVoigtParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Contact history at ``n_samples`` uniform times over ``[0, t_c]``, the
    weight ``m g`` acting throughout.

    It starts at exactly ``x = 0, xdot = v0``, and ``F = k x + b xdot`` at
    every sample.  Past :func:`kv_find_critical_eps0` the impactor never
    separates: :class:`PlasticImpactError`.
    """
    d = params.derived
    T = 1.0 / d.omega0
    modes = _scaled_solution(d.eta, _modal.scaled_weight(T, params))
    return _modal.trajectory(modes, T, first_force_zero, params, n_samples)


kv_drop_trajectory = kv_trajectory


def kv_metrics(params: KelvinVoigtParams) -> ImpactMetrics:
    """Exact scalar metrics of :func:`kv_trajectory`'s impact; closed forms at ``g = 0``.

    In ``omega0`` units those read the loss factor alone: with ``w = sqrt(1 -
    eta**2)``, ``t_c = (2 / w) atan(w / eta)``, ``e* = exp(-eta t_c)`` and the
    indentation peaks at ``t_c / 2``.  From ``eta = 1/2`` on the force peaks at
    the dashpot's jump, ``F_M = 2 eta`` at ``t_M = 0``; below, at ``exp(-eta
    t_M)`` where ``w t_M = atan(w (1 - 4 eta^2) / (eta (3 - 4 eta^2)))``.
    """
    d = params.derived
    T = 1.0 / d.omega0
    return _modal.dimensional(_scaled_metrics(d.eta, _modal.scaled_weight(T, params)), T, params)


def kv_fm_minimizer() -> tuple[float, float]:
    """Loss factor minimizing the scaled peak force, by one Brent solve.

    The peak angle is ``phi = 3 arccos(eta) - pi``, so the scaled peak
    ``exp(-eta phi / sqrt(1 - eta**2))`` is stationary where ``phi = 3 eta
    sqrt(1 - eta**2)``; the difference falls from +1.56 to -1.30 on [1e-3, 1/2].

    Returns
    -------
    tuple of float
        ``(eta_star, F_M_star)`` with the force scaled by ``m v0 omega0``.
        The scaled peak is 1 in the elastic limit, dips to about 0.810 near
        ``eta = 0.265`` and grows as ``2 eta`` beyond one half.
    """
    def stationary(eta: float) -> float:
        return _peak_angle(eta) - 3.0 * eta * math.sqrt(1.0 - eta * eta)

    eta_star = _root(stationary, 1e-3, _ETA_FORCE_BRANCH, stationary(_ETA_FORCE_BRANCH))
    return eta_star, _scaled_metrics(eta_star)[5]


def kv_drop_metrics_asymptotic(params: KelvinVoigtParams) -> ImpactMetrics:
    """First-order gravity corrections to duration and restitution.

    For a small weight ``eps0``, the exact drop's ``gamma = g T / v0`` at ``T =
    1 / omega0`` and refused as it is, the contact lasts longer by
    ``eps0 (1 + e0) / e0`` in ``omega0`` time and the restitution drops by
    the factor ``(1 - 2 eta eps0)``, where ``e0`` is the zero-gravity value.
    Only ``t_c`` and ``e_star`` carry corrections; the peak fields keep their
    zero-gravity values since no comparable first-order formulas exist
    for them.
    """
    d = params.derived
    T = 1.0 / d.omega0
    eps0 = _modal.scaled_weight(T, params)
    return _modal.dimensional(_scaled_drop_asymptotic(d.eta, eps0), T, params)


def _scaled_drop_asymptotic(eta: float, eps0: float) -> tuple:
    """:func:`kv_drop_metrics_asymptotic` in ``omega0`` units, in :class:`ImpactMetrics` order."""
    tau_c, e0, tau_m, xi_m, tau_M, f_M, xi_M, f_m = _scaled_metrics(eta)
    return (tau_c + eps0 * (1.0 + e0) / e0, e0 * (1.0 - 2.0 * eta * eps0),
            tau_m, xi_m, tau_M, f_M, xi_M, f_m)


def kv_find_critical_eps0(eta: float) -> float:
    """Gravity ratio beyond which the impactor never separates.

    In ``omega0`` time the force is ``f0 + eps0 fw``: the free force plus the
    force per unit weight, whose rate is ``f0``.  On the threshold the first
    minimum touches zero, ``f0 + eps0 fw = f0' + eps0 f0 = 0``: one Brent solve
    of ``W = f0**2 - f0' fw`` from the first minimum of ``f0`` to its return to
    zero, where ``eps0 = -f0 / fw`` is stationary.  Above the cap ``eps0 = 1e6``
    (``eta`` below about 8e-14) it raises :class:`DomainError`.
    """
    _check_groups(eta=eta)
    free = _scaled_solution(eta)[2]
    rate, w = free.derivative(), free.omega
    t_min, t_back = (_modal._first_zero(-mode, first_force_zero) for mode in (rate, free))

    def terms(t: float):
        """``e**(eta t) (f0, f0')``, ``fw`` (``1 - cos`` as ``2 sin**2``) and ``e**(-eta t)``."""
        phase, decay = w * t, math.exp(-eta * t)
        s, c = math.sin(phase), math.cos(phase)
        fw = -math.expm1(-eta * t) + decay * (2.0 * math.sin(0.5 * phase) ** 2 + eta / w * s)
        return free.A * s + free.B * c, rate.A * s + rate.B * c, fw, decay

    def tangency(t: float) -> float:
        """``W e**(eta t)``, signed where ``e**(-eta t)`` underflows; at ``t_back``
        ``f0`` is zero, whatever it rounds to."""
        f, df, fw, decay = terms(t)
        return (decay * f * f if t != t_back else 0.0) - df * fw

    f, _, fw, decay = terms(_root(tangency, t_min, t_back, tangency(t_back)))
    eps0 = -decay * f / fw
    if eps0 > 1e6:
        raise DomainError("no embedding threshold found below eps0 = 1e6")
    return eps0
