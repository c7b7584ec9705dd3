"""Impact on a three-element standard solid.

The contact problem reduces, in relaxation-time units, to a linear third
order equation whose characteristic cubic is

    z**3 + z**2 + Lambda * z + Lambda * rho = 0

with the stiffness-relaxation group ``Lambda = (k0/m) tau_R**2`` and the
stiffness ratio ``rho = k_inf / k0``.  In the oscillatory regime the cubic
has one real root ``-lambda1`` and a conjugate pair ``-beta1 +- i zeta1``;
the indentation is then a damped sinusoid plus a pure exponential, and all
impact metrics follow from closed forms.

Near either end of the ``rho`` range the model degenerates into one of the
two-element pairs, and first-order expansions in ``rho`` (or ``1 - rho``,
folded into the mappings used here) reproduce the pair metrics plus a
correction linear in the small parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import SCAN_HORIZON_PERIODS, DampedMode, first_force_zero
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
        oscillatory rebound exists and the closed forms do not apply.
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
            f"Lambda = {Lambda:.6g}, rho = {rho:.6g}; use the numeric "
            "integrator instead"
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


def _scaled_solution(roots: CubicRoots) -> tuple[DampedMode, DampedMode, DampedMode]:
    """Indentation and its two derivatives in relaxation-time units.

    The returned modes satisfy ``xi(0) = 0`` and ``xi'(0) = 1``; the
    indentation is ``x = v0 tau_R xi(t / tau_R)``.
    """
    lam, bet, zet = roots.lambda1, roots.beta1, roots.zeta1
    M = (bet - lam) ** 2 + zet**2
    A = (1.0 - bet) * (lam - bet) + zet**2
    xi = DampedMode(bet, zet, A / (zet * M), -(1.0 - lam) / M, (1.0 - lam) / M, lam)
    xi_d = xi.derivative()
    return xi, xi_d, xi_d.derivative()


def _first_zero(mode: DampedMode) -> float:
    """First zero of a scaled mode after its rise, in relaxation-time units."""
    period = 2.0 * math.pi / mode.omega
    return first_force_zero(mode, period, SCAN_HORIZON_PERIODS * period)


def sls_trajectory(params: StandardSolidParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Sample the contact history of the three-element solid.

    All columns are exact evaluations of the closed-form solution and its
    analytic derivatives; the force column is ``-m * xddot``.

    Raises
    ------
    DiscriminantError
        Outside the oscillatory regime (``D <= 0``).
    """
    d = params.derived
    roots = sls_characteristic_roots(d.Lambda, d.rho)
    xi, xi_d, xi_dd = _scaled_solution(roots)
    tau_c = _first_zero(-xi_dd)
    tau_R, v0 = d.tau_R, params.v0

    tau = np.linspace(0.0, tau_c, n_samples)
    x = v0 * tau_R * xi(tau)
    xdot = v0 * xi_d(tau)
    xddot = v0 / tau_R * xi_dd(tau)
    return Trajectory(times=tau * tau_R, x=x, xdot=xdot, xddot=xddot, F=-params.m * xddot)


def sls_metrics(params: StandardSolidParams) -> ImpactMetrics:
    """Scalar impact metrics of the three-element solid.

    Duration and restitution come from the first zero of the contact force
    ``-xi''``; the indentation and force peaks are the first zeros of
    ``xi'`` and ``-xi'''``.  The same walk finds all three, each to Brent's
    relative tolerance of 1e-15.
    """
    d = params.derived
    roots = sls_characteristic_roots(d.Lambda, d.rho)
    xi, xi_d, xi_dd = _scaled_solution(roots)
    tau_c = _first_zero(-xi_dd)
    tau_R, v0, m = d.tau_R, params.v0, params.m
    tau_m = _first_zero(xi_d)
    tau_M = _first_zero(-xi_dd.derivative())

    return ImpactMetrics(
        t_c=tau_c * tau_R,
        e_star=-float(xi_d(tau_c)),
        t_m=tau_m * tau_R,
        x_m=v0 * tau_R * float(xi(tau_m)),
        t_M=tau_M * tau_R,
        F_M=-m * v0 / tau_R * float(xi_dd(tau_M)),
        x_M=v0 * tau_R * float(xi(tau_M)),
        F_m=-m * v0 / tau_R * float(xi_dd(tau_m)),
    )


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
