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
sinusoid, or its cosh and sinh when ``D <= 0``, plus a pure exponential;
:mod:`._modal` turns these modes into the contact end, the history and the
metrics.  The weight of a drop adds a constant particular solution to the
same modes, so the zero-gravity solution is the drop solution at ``g = 0``.

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

from . import _modal
# Every walk goes through this module's name, which perfbench's traced pass wraps.
from ._search import DampedMode, OffsetMode, RealMode, first_force_zero
from ._search import golden  # noqa: F401  (perfbench's traced pass wraps this name)
from .errors import DiscriminantError, DomainError
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    StandardSolidParams,
    Trajectory,
    _check_groups,
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
    ``1 - lam`` and multiply to ``Lambda rho / lam``.  A real rate that rounds
    to zero or below, or a product that overflows, raises :class:`DomainError`.
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
    # The step can round a rate far below ulp(1/3) to zero or past it.
    zeta2 = Lambda * rho / lam - beta * beta if lam > 0.0 else math.nan
    if not math.isfinite(zeta2):
        raise DomainError(
            f"the cubic's rates are lost to rounding at Lambda = {Lambda:.6g}, "
            f"rho = {rho:.6g} (real rate {lam:.6g})"
        )
    return lam, beta, zeta2


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
    # Each mode starts at its initial value exactly, which the coefficients round.
    start = -xi_inf if gamma else 0.0
    if w2 > 0.0:
        zeta = math.sqrt(w2)
        xi = DampedMode(bet, zeta, S / zeta, C, c, lam, start)
    else:
        xi = RealMode(bet, math.sqrt(-w2), C, S, c, lam, start)
    xi_d = xi.derivative(1.0)
    return OffsetMode(xi, xi_inf) if gamma else xi, xi_d, xi_d.derivative(gamma)


def _model(params: StandardSolidParams):
    """The solid at ``params`` for :mod:`._modal`, in relaxation times."""
    d = params.derived

    def solution(gamma):
        xi, xi_d, xi_dd = _scaled_solution(d.Lambda, d.rho, gamma)
        return xi, xi_d, OffsetMode(-xi_dd, gamma) if gamma else -xi_dd

    return solution, d.tau_R, first_force_zero


def sls_trajectory(params: StandardSolidParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Zero-gravity contact history, sampled from the exact modal solution."""
    return _modal.trajectory(*_model(params), params, 0.0, n_samples)


def sls_metrics(params: StandardSolidParams) -> ImpactMetrics:
    """Zero-gravity scalar impact metrics."""
    return _modal.metrics(*_model(params), params, 0.0)


def sls_drop_trajectory(params: StandardSolidParams, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Contact history with the weight ``m g`` acting throughout contact.

    The force ``m (g - xddot)`` settles to ``m g``; past a threshold weight
    it never returns to zero, which raises :class:`PlasticImpactError`.
    """
    return _modal.trajectory(*_model(params), params, params.g, n_samples)


def sls_drop_metrics(params: StandardSolidParams) -> ImpactMetrics:
    """Exact scalar metrics of the drop, as :func:`sls_drop_trajectory`."""
    return _modal.metrics(*_model(params), params, params.g)


def _check_expansion_rho(rho: float) -> None:
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho!r}")


def sls_perturb_kv(eta: float, rho: float) -> tuple[float, float]:
    """Metrics near the parallel-pair limit, first order in ``rho``.

    ``eta`` is the loss factor of the limiting parallel pair, with frequency
    scaled by the long-time stiffness (``omega0**2 = k_inf / m``), and the
    stiffness ratio ``rho`` lies in [0, 1) (:class:`DomainError` otherwise):
    ``(omega0 * t_c, e_star)`` are accurate to O(rho**2).
    """
    _check_groups(eta=eta)
    _check_expansion_rho(rho)
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
    ``(omega0 * t_c, e_star)``; :class:`DomainError` for ``rho`` outside [0, 1).
    """
    _check_groups(zeta=zeta)
    _check_expansion_rho(rho)
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
