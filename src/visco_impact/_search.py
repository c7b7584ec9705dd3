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

:func:`brentq` and :func:`golden` are ports of SciPy's routines of the same
names (Brent, *Algorithms for Minimization without Derivatives*, 1973),
step for step: they return the same floats without loading
``scipy.optimize``, which would take most of a CLI process's start.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PlasticImpactError

# Walk limit for the contact end, in oscillation periods, shared by every
# closed-form model; the oracle keeps its own horizon as the independent
# reference.
SCAN_HORIZON_PERIODS = 10.0

# Largest sampled grid, in samples, for the CLI's trajectories and the
# oracle's steps; longer ones would allocate hundreds of megabytes or more.
MAX_SCAN_SAMPLES = 10_000_000

_BRENTQ_KW = dict(xtol=1e-30, rtol=1e-15)

# SciPy's iteration caps; no caller changes them.
_BRENTQ_MAXITER = 100
_GOLDEN_MAXITER = 5000

# SciPy's golden-section ratio, rounded as SciPy rounds it, so the iterates
# match its own.
_GOLDEN_R = 0.61803399


def _nan_error(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Zero of ``f`` on ``[a, b]`` by Brent's method, as ``scipy.optimize.brentq``.

    A port of SciPy's ``brentq.c`` at its default iteration cap: the same
    steps give the same root for the same ``f``.  ``rtol`` must be at least
    ``4 eps``, as SciPy requires.

    Raises
    ------
    ValueError
        For ends of the same sign, or a NaN value of ``f``.
    RuntimeError
        When the iterations do not converge.
    """
    # Doubles in and out, as in C: no NumPy scalar reaches the iterates.
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre))
    if fpre != fpre:
        raise _nan_error(xpre)
    fcur = float(f(xcur))
    if fcur != fcur:
        raise _nan_error(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an infinite or NaN step, which bisects.
                stry = math.inf
            # C's MIN(a, b), which differs from min() on a NaN.
            short = abs(spre)
            limit = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (short if short < limit else limit):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan_error(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")


def golden(f, brack: tuple[float, float, float], tol: float) -> float:
    """Minimizer of ``f`` by golden-section search, as ``scipy.optimize.golden``.

    Only SciPy's three-point form, taken as given: ``brack = (xa, xb, xc)``
    with ``xa < xb < xc`` and ``f(xb)`` below both ends.  ``tol`` is relative.
    """
    xa, xb, xc = brack
    gR = _GOLDEN_R
    gC = 1.0 - gR
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gC * (xc - xb)
    else:
        x1, x2 = xb - gC * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= tol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = gR * x1 + gC * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = gR * x2 + gC * x0
            f2, f1 = f1, f(x1)
    return x1 if f1 < f2 else x2


# The benchmark's traced pass wraps this name, which no caller uses; the name
# and its perfbench entry go together (ROADMAP item 2).
minimize_scalar = golden


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
