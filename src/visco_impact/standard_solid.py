"""Impact on a three-element standard solid.

The contact problem reduces, in relaxation-time units, to a linear third
order equation whose characteristic cubic is

    z**3 + z**2 + Lambda * z + Lambda * rho = 0

with the stiffness-relaxation group ``Lambda = (k0/m) tau_R**2`` and the
stiffness ratio ``rho = k_inf / k0``.  The cubic has one real root
``-lambda1`` and a pair ``-beta1 +- i zeta1``: a conjugate pair when the
discriminant ``D`` is positive (Cardano), two more real roots when
``D <= 0`` (Viète).  The indentation is the pair's damped sinusoid, or its
cosh and sinh when ``D <= 0``, plus a pure exponential, and all impact
metrics follow from closed forms.  The weight of a drop adds a constant
particular solution to the same modes, so the zero-gravity solution is the
drop solution at ``g = 0``.

Near either end of the ``rho`` range the model degenerates into one of the
two-element pairs, and first-order expansions in ``rho`` (or ``1 - rho``,
folded into the mappings used here) reproduce the pair metrics plus a
correction linear in the small parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import SCAN_HORIZON_PERIODS, DampedMode, OffsetMode, RealMode, first_force_zero
from ._search import golden  # noqa: F401  (perfbench's traced pass wraps this name)
from .errors import DiscriminantError, DomainError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    StandardSolidParams,
    Trajectory,
)

__all__ = [
    "CubicRoots",
    "sls_characteristic_roots",
    "sls_trajectory",
    "sls_metrics",
    "sls_drop_trajectory",
    "sls_drop_metrics",
    "sls_perturb_kv",
    "sls_perturb_maxwell",
    "params_near_kv",
    "params_near_maxwell",
    "params_from_groups",
]


@dataclass(frozen=True)
class CubicRoots:
    """Roots of the characteristic cubic in relaxation-time units.

    Attributes
    ----------
    lambda1 : float
        Decay rate of the pure exponential mode (real root is
        ``-lambda1``).
    beta1, zeta1 : float
        Decay rate and angular frequency of the oscillatory pair
        (``-beta1 +- i zeta1``).
    D : float
        Oscillation discriminant; positive exactly when the conjugate
        pair exists.
    """

    lambda1: float
    beta1: float
    zeta1: float
    D: float


def sls_characteristic_roots(Lambda: float, rho: float) -> CubicRoots:
    """Solve the characteristic cubic in closed form.

    Uses the Cardano solution with the cube-root branch chosen for
    numerical stability (the two branches are related by the invariant
    ``C_plus * C_minus = 1 - 3 Lambda``, so either reproduces the same
    roots; picking the larger magnitude avoids cancellation, including
    the removable singularity at ``Lambda = 1/3``).

    Raises
    ------
    DiscriminantError
        When ``D <= 0`` and the cubic has three real roots, so no
        conjugate pair exists.
    """
    if not (Lambda > 0.0) or not math.isfinite(Lambda):
        raise DomainError(f"Lambda must be positive, got {Lambda!r}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")

    D = 4.0 * Lambda * (Lambda**2 + rho) - Lambda**2 * (
        1.0 + 18.0 * rho - 27.0 * rho**2
    )
    if D <= 0.0:
        raise DiscriminantError(
            f"oscillation discriminant D = {D:.6g} is not positive at "
            f"Lambda = {Lambda:.6g}, rho = {rho:.6g}: the cubic has three real roots"
        )

    p = 2.0 - 9.0 * Lambda + 27.0 * Lambda * rho
    radicand = p * p - 4.0 * (1.0 - 3.0 * Lambda) ** 3
    if radicand <= 0.0:
        raise DiscriminantError(
            "cube-root radicand is not positive; no conjugate pair exists"
        )
    Q1 = math.sqrt(radicand)

    half_sum = 0.5 * (p + Q1)
    half_diff = 0.5 * (p - Q1)
    if abs(half_sum) >= abs(half_diff):
        C1 = float(np.cbrt(half_sum))
        other = (1.0 - 3.0 * Lambda) / C1
    else:
        other = float(np.cbrt(half_diff))
        C1 = (1.0 - 3.0 * Lambda) / other

    lambda1 = 1.0 / 3.0 + (C1 + other) / 3.0
    beta1 = 1.0 / 3.0 - (C1 + other) / 6.0
    zeta1 = math.sqrt(3.0) * (C1 - other) / 6.0
    return CubicRoots(lambda1=lambda1, beta1=beta1, zeta1=zeta1, D=D)


def _isolated_rate(Lambda: float, rho: float) -> float:
    """Rate of the real root farthest from the other two when ``D <= 0`` (Viète).

    With ``z = y - 1/3`` the cubic is ``y**3 + p y + q = 0``, ``p < 0``, with
    roots ``y_k = 2 sqrt(-p/3) cos((theta - 2 pi k) / 3)``.  At ``theta = 0``
    the roots ``y_1, y_2`` coalesce, at ``theta = pi`` the roots ``y_0, y_1``.
    """
    p = Lambda - 1.0 / 3.0
    q = 2.0 / 27.0 - Lambda / 3.0 + Lambda * rho
    if not p < 0.0:  # only next to Lambda = 1/3, rho = 1/9, where all three roots meet
        raise DiscriminantError(
            f"the cubic's three roots coincide at Lambda = {Lambda:.6g}, rho = {rho:.6g}"
        )
    theta = math.acos(max(-1.0, min(1.0, 1.5 * q / p * math.sqrt(-3.0 / p))))
    k = 2.0 if theta > 0.5 * math.pi else 0.0
    return 1.0 / 3.0 - 2.0 * math.sqrt(-p / 3.0) * math.cos((theta + k * math.pi) / 3.0)


def _scaled_solution(Lambda: float, rho: float, gamma: float = 0.0):
    """Indentation and its two derivatives in relaxation-time units.

    ``xi''' + xi'' + Lambda xi' + Lambda rho xi = gamma``, ``xi(0) = 0``,
    ``xi'(0) = 1``, ``xi''(0) = gamma`` and ``x = v0 tau_R xi(t / tau_R)``.
    With roots ``-lam`` and ``-beta +- i zeta``, ``zeta**2`` of either sign,

        xi = gamma / (Lambda rho) + c e**(-lam t) + e**(-beta t) (C cos zeta t + S sin(zeta t) / zeta),

    with cosh and sinh for ``zeta**2 < 0``.  No coefficient divides by
    ``zeta``, so the modes are continuous through ``D = 0``.  They are the
    partial fractions of ``N(s) / cubic(s)``, ``N(s) = n2 s**2 + n1 s + n0``.
    """
    try:
        r = sls_characteristic_roots(Lambda, rho)
        lam, bet, w2 = r.lambda1, r.beta1, r.zeta1**2
    except DiscriminantError:
        lam = _isolated_rate(Lambda, rho)
        # The two other rates sum to 1 - lam and multiply to Lambda rho / lam.
        bet = 0.5 * (1.0 - lam)
        w2 = min(Lambda * rho / lam - bet * bet, 0.0)
    xi_inf = gamma / (Lambda * rho)
    n2, n1, n0 = -xi_inf, 1.0 - xi_inf, gamma + 1.0 - xi_inf * Lambda
    c = ((n2 * lam - n1) * lam + n0) / ((bet - lam) ** 2 + w2)
    C = n2 - c
    S = n1 - 2.0 * bet * c - C * (lam + bet)
    if w2 > 0.0:
        xi = DampedMode(bet, r.zeta1, S / r.zeta1, C, c, lam)
    else:
        xi = RealMode(bet, math.sqrt(-w2), C, S, c, lam)
    xi_d = xi.derivative()
    return OffsetMode(xi, xi_inf) if gamma else xi, xi_d, xi_d.derivative()


def _first_zero(mode) -> float:
    """First zero of a scaled mode after its rise, in relaxation-time units."""
    # Without oscillation (D <= 0) the walk needs no period or horizon.
    period = 2.0 * math.pi / (mode.omega or 1.0)
    return first_force_zero(mode, period, SCAN_HORIZON_PERIODS * period)


def _contact(params: StandardSolidParams, g: float):
    """Modes, force over ``m v0 / tau_R`` and contact end under gravity ``g``, scaled."""
    d = params.derived
    gamma = g * d.tau_R / params.v0
    xi, xi_d, xi_dd = _scaled_solution(d.Lambda, d.rho, gamma)
    force = OffsetMode(-xi_dd, gamma) if gamma else -xi_dd
    return xi, xi_d, xi_dd, force, _first_zero(force)


def _sample(params: StandardSolidParams, g: float, n_samples: int) -> Trajectory:
    xi, xi_d, xi_dd, _, tau_c = _contact(params, g)
    tau_R, v0, m = params.derived.tau_R, params.v0, params.m
    tau = np.linspace(0.0, tau_c, n_samples)
    xddot = v0 / tau_R * xi_dd(tau)
    # Adding g only when it is nonzero keeps the zero-gravity force exactly -m xddot.
    F = m * (g - xddot) if g else -m * xddot
    return Trajectory(times=tau * tau_R, x=v0 * tau_R * xi(tau), xdot=v0 * xi_d(tau),
                      xddot=xddot, F=F)


def _metrics(params: StandardSolidParams, g: float) -> ImpactMetrics:
    """Duration and restitution from the force's first zero, peaks from the
    first zeros of ``xi'`` and of the force's rate, each to Brent's 1e-15."""
    xi, xi_d, _, force, tau_c = _contact(params, g)
    tau_R, v0, m = params.derived.tau_R, params.v0, params.m
    tau_m = _first_zero(xi_d)
    tau_M = _first_zero(force.derivative())
    return ImpactMetrics(
        t_c=tau_c * tau_R,
        e_star=-float(xi_d(tau_c)),
        t_m=tau_m * tau_R,
        x_m=v0 * tau_R * float(xi(tau_m)),
        t_M=tau_M * tau_R,
        F_M=m * v0 / tau_R * float(force(tau_M)),
        x_M=v0 * tau_R * float(xi(tau_M)),
        F_m=m * v0 / tau_R * float(force(tau_m)),
    )


def sls_trajectory(params: StandardSolidParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Zero-gravity contact history, sampled from the exact modal solution."""
    return _sample(params, 0.0, n_samples)


def sls_metrics(params: StandardSolidParams) -> ImpactMetrics:
    """Zero-gravity scalar impact metrics."""
    return _metrics(params, 0.0)


def sls_drop_trajectory(params: StandardSolidParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Contact history with the weight ``m g`` acting throughout contact.

    The force ``m (g - xddot)`` settles to ``m g``; past a threshold weight
    it never returns to zero, which raises :class:`PlasticImpactError`.
    """
    return _sample(params, params.g, n_samples)


def sls_drop_metrics(params: StandardSolidParams) -> ImpactMetrics:
    """Exact scalar metrics of the drop, as :func:`sls_drop_trajectory`."""
    return _metrics(params, params.g)


def sls_perturb_kv(eta: float, rho: float) -> tuple[float, float]:
    """Metrics near the parallel-pair limit, first order in ``rho``.

    Parameters
    ----------
    eta : float
        Loss factor of the limiting parallel pair (frequency scaled by the
        long-time stiffness, ``omega0**2 = k_inf / m``).
    rho : float
        Stiffness ratio; the expansion is accurate to O(rho**2).

    Returns
    -------
    tuple of float
        ``(omega0 * t_c, e_star)``.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta!r}")
    root = math.sqrt(1.0 - eta * eta)
    phi = math.atan2(root, eta)
    tc0 = 2.0 / root * phi
    e0 = math.exp(-2.0 * eta / root * phi)
    tc = tc0 + rho * (4.0 * eta - 8.0 * eta * eta / root * phi)
    e_star = e0 * (1.0 + 4.0 * rho * eta / root * phi)
    return tc, e_star


def sls_perturb_maxwell(zeta: float, rho: float) -> tuple[float, float]:
    """Metrics near the series-pair limit, first order in ``rho``.

    Here ``rho`` is again the stiffness ratio and the frequency scaling
    uses the instantaneous stiffness, ``omega0**2 = k0 / m``.  Returns
    ``(omega0 * t_c, e_star)``.
    """
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"zeta must lie in (0, 1), got {zeta!r}")
    root = math.sqrt(1.0 - zeta * zeta)
    e0 = math.exp(-math.pi * zeta / root)
    tc = math.pi / root + 2.0 * math.pi * rho * zeta**2 / root**3
    e_star = e0 + 4.0 * rho * zeta**2 * (
        1.0 + (1.0 - math.pi * zeta / (2.0 * root**3)) * e0
    )
    return tc, e_star


def params_near_kv(
    eta: float, rho: float, m: float = 1.0, v0: float = 1.0, omega0: float = 1.0
) -> StandardSolidParams:
    """Three-element parameters whose ``rho -> 0`` limit is a parallel pair.

    The long-time stiffness is held at ``m omega0**2`` and the dashpot at
    ``2 eta m omega0``, so the limit reproduces the parallel pair with loss
    factor ``eta``; the derived groups are ``tau_R = 2 eta rho (1-rho) /
    omega0`` and ``Lambda = 4 eta**2 rho (1-rho)**2``.
    """
    k_inf = m * omega0**2
    return StandardSolidParams(
        m=m, k1=k_inf / rho, k2=k_inf / (1.0 - rho), b=2.0 * eta * m * omega0, v0=v0
    )


def params_near_maxwell(
    zeta: float, rho: float, m: float = 1.0, v0: float = 1.0, omega0: float = 1.0
) -> StandardSolidParams:
    """Three-element parameters whose ``rho -> 0`` limit is a series pair.

    The instantaneous stiffness is held at ``m omega0**2`` and the dashpot
    at ``m omega0 / (2 zeta)``; the derived groups are ``tau_R = (1-rho) /
    (2 zeta omega0)`` and ``Lambda = (1-rho)**2 / (4 zeta**2)``.
    """
    k0 = m * omega0**2
    return StandardSolidParams(
        m=m, k1=k0, k2=k0 * rho / (1.0 - rho), b=m * omega0 / (2.0 * zeta), v0=v0
    )


def params_from_groups(
    Lambda: float, rho: float, m: float = 1.0, v0: float = 1.0
) -> StandardSolidParams:
    """Three-element parameters realizing given ``(Lambda, rho)`` groups.

    Uses unit instantaneous frequency (``k0 = m``), so reported scaled
    metrics ``omega0 t`` coincide with dimensional times.
    """
    if not (Lambda > 0.0):
        raise DomainError(f"Lambda must be positive, got {Lambda!r}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
    k0 = m
    tau_R = math.sqrt(Lambda)
    b = tau_R * k0 / (1.0 - rho)
    return StandardSolidParams(m=m, k1=k0, k2=k0 * rho / (1.0 - rho), b=b, v0=v0)
