"""Impact on a three-element standard solid.

The contact problem reduces, in relaxation-time units, to a linear third
order equation whose characteristic cubic is

    z**3 + z**2 + Lambda * z + Lambda * rho = 0

with the stiffness-relaxation group ``Lambda = (k0/m) tau_R**2`` and the
stiffness ratio ``rho = k_inf / k0``.  The cubic has one real root
``-lambda1`` and a pair ``-beta1 +- i zeta1``: a conjugate pair when the
discriminant ``D`` is positive, two more real roots when ``D <= 0``.  At
every ``D`` the real root comes from Viète's trigonometric or hyperbolic
form and the pair from deflation.  The indentation is the pair's damped
sinusoid, or its cosh and sinh when ``D <= 0``, plus a pure exponential,
and all impact metrics follow from closed forms.  The weight of a drop adds
a constant particular solution to the same modes, so the zero-gravity
solution is the drop solution at ``g = 0``.

The modal form has one domain limit: within about 1e-11 relative of the
triple root ``Lambda = 1/3, rho = 1/9`` its coefficients cancel to fewer
than eight digits, and the closed forms raise :class:`DiscriminantError`.

Near either end of the ``rho`` range the model degenerates into one of the
two-element pairs, and first-order expansions in ``rho`` (or ``1 - rho``,
folded into the mappings used here) reproduce the pair metrics plus a
correction linear in the small parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._search import SCAN_HORIZON_PERIODS, DampedMode, OffsetMode, RealMode, first_force_zero
from ._search import golden  # noqa: F401  (perfbench's traced pass wraps this name)
from .errors import DiscriminantError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    StandardSolidParams,
    Trajectory,
    _check_groups,
    _uniform_times,
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
        pair exists.  It overflows to ``inf`` from ``Lambda`` about 3e102.
    """

    lambda1: float
    beta1: float
    zeta1: float
    D: float


def sls_characteristic_roots(Lambda: float, rho: float) -> CubicRoots:
    """Roots of the characteristic cubic when it has a conjugate pair.

    The rates come from :func:`_rates` (Viète's trigonometric or hyperbolic
    form for the real root, the pair by deflation), as in the closed form.

    Raises
    ------
    DiscriminantError
        When ``D <= 0`` and the cubic has three real roots, so no
        conjugate pair exists; also when ``D`` and the deflated ``zeta**2``
        differ in sign, which happens only within rounding of ``D = 0``.
    """
    _check_groups(Lambda=Lambda, rho=rho)
    # Factored so that only the leading term can overflow, to D = inf.
    D = Lambda * (
        4.0 * Lambda * Lambda + 4.0 * rho - Lambda * (1.0 + 18.0 * rho - 27.0 * rho**2)
    )
    lam, beta, zeta2 = _rates(Lambda, rho)
    if not (D > 0.0 and zeta2 > 0.0):
        raise DiscriminantError(
            f"oscillation discriminant D = {D:.6g} (zeta**2 = {zeta2:.6g}) at "
            f"Lambda = {Lambda:.6g}, rho = {rho:.6g}: the cubic has three real roots"
        )
    return CubicRoots(lambda1=lam, beta1=beta, zeta1=math.sqrt(zeta2), D=D)


def _rates(Lambda: float, rho: float) -> tuple[float, float, float]:
    """``(lam, beta, zeta**2)``: the roots are ``-lam`` and ``-beta +- sqrt(-zeta**2)``.

    With ``z = y - 1/3`` the cubic is ``y**3 + p y + q = 0``.  Its real root
    farthest from the other two, ``y = 1/3 - lam``, is Viète's
    ``-2 sqrt(-p/3) cos(acos|x| / 3) sgn q`` with ``x = 3 q / (2 p sqrt(-p/3))``
    when there are three real roots (``p < 0``, ``|x| <= 1``), and the
    hyperbolic form of the one real root otherwise: cosh for ``p < 0``, sinh
    for ``p > 0``, a cube root at ``p = 0``.  The other two rates sum to
    ``1 - lam`` and multiply to ``Lambda rho / lam``.
    """
    p = Lambda - 1.0 / 3.0
    q = 2.0 / 27.0 - Lambda / 3.0 + Lambda * rho
    if p < 0.0:
        s = math.sqrt(-p / 3.0)
        x = abs(1.5 * q / (p * s))
        t = math.cos(math.acos(x) / 3.0) if x <= 1.0 else math.cosh(math.acosh(x) / 3.0)
        y = -math.copysign(2.0 * s * t, q)
    elif p > 0.0:
        s = math.sqrt(p / 3.0)
        # q / p first: p * s overflows from Lambda about 1e205.
        y = -2.0 * s * math.sinh(math.asinh(1.5 * (q / p) / s) / 3.0)
    else:
        y = -math.copysign(abs(q) ** (1.0 / 3.0), q)
    lam = 1.0 / 3.0 - y
    if lam < 0.1:
        # ``1/3 - y`` cancels for small lam; one Newton step on
        # ``lam**3 - lam**2 + Lambda lam - Lambda rho`` restores it.  Here
        # y > 0.23, and the other two roots sum to -y and are complex or no
        # larger than y, so they lie at least y and 3y/2 from it: the
        # derivative, the product of those distances, exceeds 0.08.
        lam -= (lam * (lam * (lam - 1.0) + Lambda) - Lambda * rho) / (
            lam * (3.0 * lam - 2.0) + Lambda
        )
    beta = 0.5 * (1.0 - lam)
    return lam, beta, Lambda * rho / lam - beta * beta


def _scaled_solution(Lambda: float, rho: float, gamma: float = 0.0):
    """Indentation and its two derivatives in relaxation-time units.

    ``xi''' + xi'' + Lambda xi' + Lambda rho xi = gamma``, ``xi(0) = 0``,
    ``xi'(0) = 1``, ``xi''(0) = gamma`` and ``x = v0 tau_R xi(t / tau_R)``.
    With roots ``-lam`` and ``-beta +- i zeta``, ``zeta**2`` of either sign,

        xi = gamma / (Lambda rho) + c e**(-lam t) + e**(-beta t) (C cos zeta t + S sin(zeta t) / zeta),

    with cosh and sinh for ``zeta**2 < 0``.  No coefficient divides by
    ``zeta``, so the modes are continuous through ``D = 0``.  They are the
    partial fractions of ``N(s) / cubic(s)``, ``N(s) = n2 s**2 + n1 s + n0``,
    over ``M = (beta - lam)**2 + zeta**2``, which vanishes at the triple root.
    Below ``M = 1e-8`` they cancel to fewer than eight digits, so that sliver
    raises :class:`DiscriminantError`.
    """
    lam, bet, w2 = _rates(Lambda, rho)
    M = (bet - lam) ** 2 + w2
    if not M > 1e-8:
        raise DiscriminantError(
            f"the cubic's three roots nearly coincide at Lambda = {Lambda:.6g}, rho = {rho:.6g}"
        )
    xi_inf = gamma / (Lambda * rho)
    n2, n1, n0 = -xi_inf, 1.0 - xi_inf, gamma + 1.0 - xi_inf * Lambda
    c = ((n2 * lam - n1) * lam + n0) / M
    C = n2 - c
    S = n1 - 2.0 * bet * c - C * (lam + bet)
    if w2 > 0.0:
        zeta = math.sqrt(w2)
        xi = DampedMode(bet, zeta, S / zeta, C, c, lam)
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
    tau = _uniform_times(tau_c, n_samples)
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
    _check_groups(eta=eta)
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
    _check_groups(zeta=zeta)
    root = math.sqrt(1.0 - zeta * zeta)
    e0 = math.exp(-math.pi * zeta / root)
    tc = math.pi / root + 2.0 * math.pi * rho * zeta**2 / root**3
    e_star = e0 + 4.0 * rho * zeta**2 * (
        1.0 + (1.0 - math.pi * zeta / (2.0 * root**3)) * e0
    )
    return tc, e_star


def params_near_kv(eta: float, rho: float) -> StandardSolidParams:
    """Three-element parameters whose ``rho -> 0`` limit is a parallel pair.

    Unit mass and speed; the long-time stiffness is held at 1 and the
    dashpot at ``2 eta``, so the limit reproduces the parallel pair with
    loss factor ``eta`` and unit frequency; the derived groups are
    ``tau_R = 2 eta rho (1-rho)`` and ``Lambda = 4 eta**2 rho (1-rho)**2``.
    """
    _check_groups(eta=eta, rho=rho)
    return StandardSolidParams(m=1.0, k1=1.0 / rho, k2=1.0 / (1.0 - rho), b=2.0 * eta, v0=1.0)


def params_near_maxwell(zeta: float, rho: float) -> StandardSolidParams:
    """Three-element parameters whose ``rho -> 0`` limit is a series pair.

    Unit mass and speed; the instantaneous stiffness is held at 1 and the
    dashpot at ``1 / (2 zeta)``; the derived groups are ``tau_R = (1-rho) /
    (2 zeta)`` and ``Lambda = (1-rho)**2 / (4 zeta**2)``.
    """
    _check_groups(zeta=zeta, rho=rho)
    return StandardSolidParams(m=1.0, k1=1.0, k2=rho / (1.0 - rho), b=1.0 / (2.0 * zeta), v0=1.0)


def params_from_groups(
    Lambda: float, rho: float, m: float = 1.0, v0: float = 1.0
) -> StandardSolidParams:
    """Three-element parameters realizing given ``(Lambda, rho)`` groups.

    Uses unit instantaneous frequency (``k0 = m``), so reported scaled
    metrics ``omega0 t`` coincide with dimensional times.
    """
    _check_groups(Lambda=Lambda, rho=rho)
    k0 = m
    tau_R = math.sqrt(Lambda)
    b = tau_R * k0 / (1.0 - rho)
    return StandardSolidParams(m=m, k1=k0, k2=k0 * rho / (1.0 - rho), b=b, v0=v0)
