"""First zeros of closed-form forces, walked over the half periods of one mode.

Every closed-form force in the package has the form

    F(t) = e**(-beta t) (A sin omega t + B cos omega t) + c e**(-lam t)

(:class:`DampedMode`), and so do the derivatives of the three-element
indentation.  Write the oscillating part as ``R sin(omega t + phi)``.  Then

    g(t) = e**(beta t) F(t) = R sin(omega t + phi) + c e**((beta - lam) t)

has the sign of F, and on each interval between consecutive zeros of the
sine either both terms share a sign, so F has no zero there, or ``g`` is
convex or concave, so ``g'`` changes sign at most once.  One bracketed root
of ``g'`` then splits the interval into two monotone pieces, and Brent's
method finds the first zero on the piece where ``g`` falls through zero.
Signs are taken from ``g`` scaled by a decaying factor, never from ``F``,
so neither the overflow of ``e**(beta t)`` nor the underflow of ``F`` over
a long half period decides one.

When ``beta > lam`` and ``c > 0``, ``g`` grows by a period shift, so a full
negative half period without a zero leaves ``F`` positive for good: that is
a proof of a plastic impact, reached after O(1) evaluations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.optimize import minimize_scalar  # noqa: F401  (perfbench's traced pass wraps this name)

from .errors import PlasticImpactError

# Walk limit for the contact end, in oscillation periods, shared by every
# closed-form model; the oracle keeps its own horizon as the independent
# reference.
SCAN_HORIZON_PERIODS = 10.0

# Largest sampled grid, in samples, for the CLI's trajectories and the
# oracle's steps; longer ones would allocate hundreds of megabytes or more.
MAX_SCAN_SAMPLES = 10_000_000

_BRENTQ_KW = dict(xtol=1e-30, rtol=1e-15)


class DampedMode:
    """``e**(-beta t) (A sin omega t + B cos omega t) + c e**(-lam t)``.

    Calling a mode evaluates it (vectorized), and :meth:`combine` does so
    from phases a caller already holds; :func:`first_force_zero` solves it
    through :meth:`scaled` alone.
    """

    def __init__(self, beta: float, omega: float, A: float, B: float,
                 c: float = 0.0, lam: float = 0.0):
        self.beta, self.omega, self.A, self.B, self.c, self.lam = beta, omega, A, B, c, lam
        # R sin(omega t + phi) with phi in (-pi, 0]: the sine is <= 0 from
        # t = 0 up to its first zero -phi / omega.
        R, phi = math.hypot(A, B), math.atan2(B, A)
        if phi > 0.0:
            R, phi = -R, phi - math.pi
        self.R, self.phi = R, phi
        self.rate = beta - lam
        self.damp = max(self.rate, 0.0)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        phase = self.omega * t
        return self.combine(np.exp(-self.beta * t), np.sin(phase), np.cos(phase), t)

    def combine(self, envelope, s, c, t):
        """The mode at ``t`` from ``exp(-beta t)``, ``sin(omega t)``, ``cos(omega t)``."""
        out = self.A * s
        if self.B:
            out += self.B * c
        out *= envelope
        if self.c:
            out += self.c * np.exp(-self.lam * t) if self.lam else self.c
        return out

    def derivative(self) -> "DampedMode":
        b, w = self.beta, self.omega
        return DampedMode(b, w, -b * self.A - w * self.B, w * self.A - b * self.B,
                          -self.lam * self.c, self.lam)

    def __neg__(self) -> "DampedMode":
        return DampedMode(self.beta, self.omega, -self.A, -self.B, -self.c, self.lam)

    def weight(self, a: float) -> float:
        """``c e**((beta - lam) a)``, infinite rather than overflowing."""
        if self.c == 0.0:
            return 0.0
        x = self.rate * a + math.log(abs(self.c))
        return math.copysign(math.exp(x) if x < 709.0 else math.inf, self.c)

    def scaled(self, t: float, a: float, weight: float, order: int = 0) -> float:
        """``g`` (``order`` 0) or ``g'`` (1) at ``t >= a``, times ``e**(-damp (t - a))``.

        ``damp = max(beta - lam, 0)`` keeps both terms from growing past
        ``a``, and ``weight`` is :meth:`weight` at ``a``.  Without a weight
        the factor is 1, so the sine is never scaled away.
        """
        u = t - a
        theta = self.omega * t + self.phi
        osc = self.omega * math.cos(theta) if order else math.sin(theta)
        if not weight:
            return self.R * osc
        rest = weight * self.rate if order else weight
        return (self.R * osc * math.exp(-self.damp * u)
                + rest * math.exp((self.rate - self.damp) * u))


def _falling_zero(f, x0: float, y0: float, x1: float, y1: float) -> float | None:
    """Zero of ``f`` on [x0, x1] where it falls from positive to at most 0."""
    if not y0 > 0.0 >= y1:
        return None
    if y1 == 0.0 or x1 == x0:
        return x1
    # The end values are exact; the bracket ends must not be re-evaluated.
    return brentq(lambda t: y0 if t == x0 else y1 if t == x1 else f(t), x0, x1, **_BRENTQ_KW)


def _interval_zero(mode: DampedMode, lo: float, hi: float, g_lo: float, g_hi: float,
                   weight: float) -> float | None:
    """First falling zero of ``g`` on [lo, hi], where ``g'`` is monotone."""
    g = lambda t: mode.scaled(t, lo, weight)  # noqa: E731
    dg = lambda t: mode.scaled(t, lo, weight, 1)  # noqa: E731
    d_lo, d_hi = dg(lo), dg(hi)
    if d_lo > 0.0 > d_hi or d_lo < 0.0 < d_hi:
        t_ext = brentq(dg, lo, hi, **_BRENTQ_KW)
        g_ext = g(t_ext)
        zero = _falling_zero(g, lo, g_lo, t_ext, g_ext)
        return zero if zero is not None else _falling_zero(g, t_ext, g_ext, hi, g_hi)
    return _falling_zero(g, lo, g_lo, hi, g_hi)


def first_force_zero(force: DampedMode, period: float, horizon: float) -> float:
    """First instant after ``t = 0`` where the force falls to zero.

    Contact starts at ``t = 0`` by construction, so a force that starts at
    zero (or rounds to a tiny negative value) and rises counts as started.

    Parameters
    ----------
    force : DampedMode
        The force history.
    period : float
        Its oscillation period ``2 pi / omega``; the walk steps by half of it.
    horizon : float
        Walk limit.  No zero up to it raises :class:`PlasticImpactError`.

    Raises
    ------
    PlasticImpactError
        When no zero lies within the horizon, or when ``F`` is proved to stay
        positive for good.
    """
    half = 0.5 * period
    provable = force.rate > 0.0 and force.c > 0.0
    # The first interval runs from t = 0 to the first zero of the sine;
    # the sine's sign on it is -sign(R), and it flips from one to the next.
    lo, hi = 0.0, -force.phi / force.omega
    sign = -math.copysign(1.0, force.R)
    while lo < horizon:
        weight = force.weight(lo)
        # g at the sine's zero hi is exactly the exponential term.
        g_hi = weight * math.exp((force.rate - force.damp) * (hi - lo))
        if not hi > lo:
            zero = None
        elif sign * weight > 0.0:
            # Same signs leave no zero inside; a positive g falls to zero
            # at hi only where its exponential term underflows.
            zero = hi if sign > 0.0 and g_hi == 0.0 else None
        else:
            # g' is monotone here; g(0) is F(0) as the mode evaluates it.
            g_lo = force.B + force.c if lo == 0.0 else weight
            zero = _interval_zero(force, lo, hi, g_lo, g_hi, weight)
        if zero is not None:
            if zero > horizon:
                break
            return zero
        # A full negative half period with g > 0 bounds every later one.
        if provable and sign < 0.0 and lo > 0.0:
            raise PlasticImpactError(
                "contact force never returns to zero: the impactor stays embedded"
            )
        lo, hi, sign = hi, hi + half, -sign
    raise PlasticImpactError("contact force never returns to zero within the horizon")
