"""Modes of the closed-form solutions, and their first zeros walked over monotone pieces.

Every model's indentation, rate and force are modes in its own time unit
(:mod:`._modal`): for the pairs, with or without a weight, and for the
three-element solid when its cubic has a conjugate pair, they have the form

    F(t) = e**(-beta t) (A sin omega t + B cos omega t) + c e**(-lam t)

(:class:`DampedMode`); the walk solves the force.  Write the oscillating
part as ``R sin(omega t + phi)`` and ``r = beta - lam``.  Then

    G(t) = e**(lam t) F(t) = e**(-r t) R sin(omega t + phi) + c

has the sign of F, and

    G'(t) = e**(-r t) R hypot(omega, r) cos(omega t + phi + psi),
    psi = atan2(r, omega).

So G is monotone between the critical points
``t_n = (pi/2 + n pi - phi - psi) / omega``, half a period apart, and each
such piece holds at most one zero of F.  The walk takes the pieces in turn
and makes one Brent solve, on the first piece that falls from ``G > 0`` to
``G <= 0``.  At the critical points the sine is ``+-cos(psi)`` exactly, so

    G(t_n) = c +- R cos(psi) e**(-r t_n),

and the signs at the piece ends come from this closed form, never from a
sine evaluated next to its zero.  When ``c = 0`` the zeros of F are those
of the sine, so ``psi = 0``, the pieces are the sine's own, and the walk
takes the first falling zero in closed form.  Values are taken from G
scaled by a decaying factor, never from ``F``, so neither the overflow of
``e**(r t)`` nor the underflow of ``F`` over a long half period decides a
sign.

When ``r > 0`` and ``c > 0`` the minima ``c - |R| cos(psi) e**(-r t_n)``
only rise, so a falling piece that ends with ``G > 0`` leaves ``F``
positive for good: that is a proof of a plastic impact, reached after
O(1) evaluations.  Otherwise the walk stops at its horizon.

Two more forms take the same walk over their own monotone pieces.  A
:class:`RealMode` has three real rates in place of the oscillation and at
most two pieces, the last one reaching to infinity.  An :class:`OffsetMode`
adds a constant, the weight of a drop, and a ramp to a decaying mode.  They
differentiate away or to a constant, so F is monotone between the zeros of
``F'`` (Rolle): its pieces are those of ``F'`` split at the zeros of ``F'``.

:func:`brentq` and :func:`golden` are ports of SciPy's routines of the same
names (Brent, *Algorithms for Minimization without Derivatives*, 1973),
step for step: they return the same floats without loading
``scipy.optimize``, which would take most of a CLI process's start.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PlasticImpactError

# Walk limit for the contact end, in oscillation periods, shared by every
# closed-form model; the oracle keeps its own horizon as the independent
# reference.
SCAN_HORIZON_PERIODS = 10.0

# Largest sampled grid, in samples, for the CLI's trajectories and the
# oracle's steps; longer ones would allocate hundreds of megabytes or more.
MAX_SCAN_SAMPLES = 10_000_000

# Brent's tolerances for the walk: ``rtol``, and ``xtol`` per unit of the
# piece's width (:func:`_root`).  A fixed ``xtol`` would exceed the whole
# contact once the period is that short (three-element Lambda above 1e60).
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
# and its perfbench entry go together (ROADMAP item 7).
minimize_scalar = golden


class _Mode:
    """``P u(t) + Q v(t) + c e**(-lam t)``, where ``u(0) = 0`` and ``v(0) = 1``.

    ``u`` and ``v`` decay at ``pair_rate``; modes of the same rates share the
    :meth:`phases` ``(t, (u, v), e**(-lam t))``, and :meth:`terms` writes each
    as ``P' u + Q' v + rest``.  Given its ``start``, ``Q + c`` to rounding, a
    mode takes it at ``t = 0`` exactly: the rounding goes to the faster-decaying
    term, as ``Q (v - e**(-lam t)) + start e**(-lam t)`` or ``start v + c
    (e**(-lam t) - v)``.  Its pieces take no part.
    """

    start = None

    def terms(self, t, v, decay):
        """``(P', Q', rest)`` at the :meth:`phases` of ``t``, ``rest`` None when zero."""
        (P, Q), c, start = self.coefficients, self.c, self.start
        if start is None:
            return P, Q, c * decay if c else None
        if self.lam > self.pair_rate:
            return P, 0.0, Q * (v - decay) + start * decay
        return P, start, c * (decay - v) if c else None

    def constants(self) -> tuple:
        """Every coefficient that :meth:`terms` multiplies a function of time by."""
        return (*self.coefficients, self.c, self.start or 0.0)

    def __call__(self, t, *scaling):
        t, (u, v), decay = self.phases(t, *scaling)
        P, Q, rest = self.terms(t, v, decay)
        out = P * u + Q * v
        return out if rest is None else out + rest


class DampedMode(_Mode):
    """``e**(-beta t) (A sin omega t + B cos omega t) + c e**(-lam t)``, solved
    by :func:`first_force_zero` through :meth:`scaled` and :meth:`lifted`."""

    def __init__(self, beta: float, omega: float, A: float, B: float,
                 c: float = 0.0, lam: float = 0.0, start: float | None = None):
        self.beta, self.omega, self.A, self.B, self.c, self.lam = beta, omega, A, B, c, lam
        self.start, self.coefficients, self.pair_rate = start, (A, B), beta
        # R sin(omega t + phi) with phi in (-pi, 0]: the sine is <= 0 from t = 0 up to
        # its first zero -phi / omega.  phi - pi would lose ulp(pi) near that zero.
        R, phi = math.hypot(A, B), math.atan2(B, A)
        self.R, self.phi = (-R, math.atan2(-B, -A)) if phi > 0.0 else (R, phi)
        self.rate = beta - lam
        self.damp = max(self.rate, 0.0)

    def finite(self) -> bool:
        """Whether ``R`` (so ``A``, ``B`` and the phase), the rates and ``c`` are finite."""
        return all(map(math.isfinite, (self.R, self.omega, self.rate, self.c, self.start or 0.0)))

    def phases(self, t):
        if isinstance(t, float):  # NumPy's 0-d arrays cost microseconds a call
            envelope, phase = math.exp(-self.beta * t), self.omega * t
            uv = envelope * math.sin(phase), envelope * math.cos(phase)
            return t, uv, math.exp(-self.lam * t) if self.lam else 1.0
        t = np.asarray(t, dtype=float)
        phase = self.omega * t
        uv = np.array((np.sin(phase), np.cos(phase)))
        uv *= np.exp(-self.beta * t)
        return t, uv, np.exp(-self.lam * t) if self.lam else 1.0

    def derivative(self, start: float | None = None) -> "DampedMode":
        b, w = self.beta, self.omega
        return DampedMode(b, w, -b * self.A - w * self.B, w * self.A - b * self.B,
                          -self.lam * self.c, self.lam, start)

    def __neg__(self) -> "DampedMode":
        return DampedMode(self.beta, self.omega, -self.A, -self.B, -self.c, self.lam,
                          None if self.start is None else -self.start)

    def weight(self, a: float) -> float:
        """``c e**((beta - lam) a)``, infinite rather than overflowing."""
        if self.c == 0.0:
            return 0.0
        x = self.rate * a + math.log(abs(self.c))
        return math.copysign(math.exp(x) if x < 709.0 else math.inf, self.c)

    def scaled(self, t: float, a: float, weight: float) -> float:
        """``e**(beta t) F(t)`` at ``t >= a``, times ``e**(-damp (t - a))``.

        ``damp = max(beta - lam, 0)`` keeps both terms from growing past
        ``a``, and ``weight`` is :meth:`weight` at ``a``.  Without a weight
        the factor is 1, so the sine is never scaled away.
        """
        return self.lifted(self.R * math.sin(self.omega * t + self.phi), t - a, weight)

    def lifted(self, osc: float, u: float, weight: float) -> float:
        """:meth:`scaled` at ``u`` past the anchor, from ``R sin(omega t + phi)``."""
        if not weight:
            return osc
        return osc * math.exp(-self.damp * u) + weight * math.exp((self.rate - self.damp) * u)

    def pieces(self, period: float):
        """Monotone pieces ``(lo, hi, g_lo, g_hi, g)`` of ``G``, half a period long.

        ``g`` is a positive multiple of ``F`` on ``[lo, hi]``, and ``g_lo``,
        ``g_hi`` are its exact values at the ends.  The pieces run on until a
        minimum above zero proves ``F`` positive for good.
        """
        half = 0.5 * period
        omega, rate, c = self.omega, self.rate, self.c
        psi = math.atan2(rate, omega) if c else 0.0
        # R sin(omega t_n + phi) = +-R cos(psi): the oscillating part of e**(beta t) F
        # at the critical points, its sign alternating from one to the next.
        osc = self.R * (omega / math.hypot(omega, rate) if c else 1.0)
        # t_n = (first + n) half, with the first critical point in (0, half].
        first = (0.5 * math.pi - self.phi - psi) / math.pi
        shift = math.ceil(first) - 1
        first -= shift
        if shift % 2:
            osc = -osc
        provable = rate > 0.0 and c > 0.0
        # The start value is F(0) as the mode evaluates it: contact may start at 0 exactly.
        lo, g_lo, weight = 0.0, float(self(0.0)), self.weight(0.0)
        n = 0
        while True:
            hi = (first + n) * half
            g_hi = self.lifted(osc, hi - lo, weight)
            # The end values are exact; the bracket ends must not be re-evaluated.
            yield lo, hi, g_lo, g_hi, (
                lambda t, lo=lo, hi=hi, g_lo=g_lo, g_hi=g_hi, w=weight:
                g_lo if t == lo else g_hi if t == hi else self.scaled(t, lo, w)
            )
            # A minimum above zero bounds every later one.
            if provable and osc < 0.0 and g_hi > 0.0:
                return
            lo, weight, n = hi, self.weight(hi), n + 1
            g_lo, osc = osc + weight, -osc


class RealMode(_Mode):
    """``e**(-beta t) (C cosh kappa t + S sinh(kappa t) / kappa) + c e**(-lam t)``.

    Three real rates, ``beta -+ kappa`` and ``lam``.  The first two stay one
    pair, finite as they coalesce (at ``kappa = 0`` it is ``C + S t``).
    ``G' = e**(-r t) (P cosh kappa t + Q sinh(kappa t) / kappa)`` changes
    sign at most once, where ``tanh(kappa t) / kappa = -P / Q``: G has at
    most two monotone pieces, and the last reaches to infinity.
    """

    omega = 0.0

    def __init__(self, beta: float, kappa: float, C: float, S: float,
                 c: float = 0.0, lam: float = 0.0, start: float | None = None):
        self.beta, self.kappa, self.C, self.S, self.c, self.lam = beta, kappa, C, S, c, lam
        self.start, self.coefficients, self.pair_rate = start, (S, C), beta - kappa
        self.slow = min(beta - kappa, lam) if c else beta - kappa

    def finite(self) -> bool:
        """Whether the rates and coefficients are all finite."""
        return all(map(math.isfinite, (self.beta, self.kappa, self.C, self.S, self.c, self.lam,
                                       self.start or 0.0)))

    def phases(self, t, s: float = 0.0):
        """``u, v = e**(-beta t) (sinh(kappa t) / kappa, cosh kappa t)``, all times
        ``e**(s t)``: from decaying exponentials alone for ``s <= slow``."""
        t, k = np.asarray(t, dtype=float), self.kappa
        sinh = -np.expm1(-2.0 * k * t) / (2.0 * k) if k else t
        uv = np.array((sinh, 0.5 * (1.0 + np.exp(-2.0 * k * t))))
        uv *= np.exp((s - self.beta + k) * t)
        return t, uv, np.exp((s - self.lam) * t)

    def derivative(self, start: float | None = None) -> "RealMode":
        b, k = self.beta, self.kappa
        return RealMode(b, k, self.S - b * self.C, k * k * self.C - b * self.S,
                        -self.lam * self.c, self.lam, start)

    def __neg__(self) -> "RealMode":
        return RealMode(self.beta, self.kappa, -self.C, -self.S, -self.c, self.lam,
                        None if self.start is None else -self.start)

    def pieces(self, period: float):
        """Monotone pieces of ``G``, as :meth:`DampedMode.pieces`; ``period`` is unused.

        ``g = e**(slow t) F`` keeps the slowest term, whose coefficient is
        its sign at infinity.
        """
        def g(t):
            return float(self(t, self.slow))

        r, k = self.beta - self.lam, self.kappa
        P, Q = self.S - r * self.C, k * k * self.C - r * self.S
        u = -P / Q if Q else 0.0
        lo, g_lo = 0.0, g(0.0)
        if u > 0.0 and k * u < 1.0:
            hi = math.atanh(k * u) / k if k else u
            g_hi = g(hi)
            yield lo, hi, g_lo, g_hi, g
            lo, g_lo = hi, g_hi
        limit = self.c if self.c and self.lam == self.slow else 0.0
        if self.beta - k == self.slow:
            # At kappa = 0 the term S t outgrows the rest.
            limit = limit + 0.5 * (self.C + self.S / k) if k else self.S or limit + self.C
        yield from _tail(g, lo, g_lo, limit)


class OffsetMode(_Mode):
    """``mode + offset + slope t`` for a decaying mode: a drop's force, or a creeping indentation.

    The offset differentiates away, so F is monotone between the zeros of
    ``F'`` (Rolle), and it tends to the offset, or to infinity with a slope.
    """

    def __init__(self, mode, offset: float, slope: float = 0.0):
        self.mode, self.offset, self.slope, self.omega = mode, offset, slope, mode.omega
        self.phases = mode.phases

    def finite(self) -> bool:
        """Whether the offset, the slope and the mode are all finite."""
        return math.isfinite(self.offset) and math.isfinite(self.slope) and self.mode.finite()

    def constants(self) -> tuple:
        return (*self.mode.constants(), self.offset, self.slope)

    def terms(self, t, v, decay):
        P, Q, rest = self.mode.terms(t, v, decay)
        rest = self.offset if rest is None else rest + self.offset
        return P, Q, rest + self.slope * t if self.slope else rest

    def derivative(self):
        mode = self.mode.derivative()
        return OffsetMode(mode, self.slope) if self.slope else mode

    def pieces(self, period: float):
        """Monotone pieces of F: those of ``F'`` split at its zeros."""
        def f(t):
            return float(self(t))

        lo, f_lo = 0.0, f(0.0)
        for a, b, m_a, m_b, m in _require_finite(self.derivative()).pieces(period):
            for hi in (_root(m, a, b, m_b), b) if _crosses(m_a, m_b) else (b,):
                if hi > lo:
                    f_hi = f(hi)
                    yield lo, hi, f_lo, f_hi, f
                    lo, f_lo = hi, f_hi
        yield from _tail(f, lo, f_lo, self.slope or self.offset)


def _crosses(g_lo: float, g_hi: float) -> bool:
    """Whether a monotone piece holds a zero after its start."""
    return g_lo > 0.0 >= g_hi or g_lo < 0.0 <= g_hi


def _root(g, lo: float, hi: float, g_hi: float) -> float:
    if g_hi == 0.0:
        return hi
    try:
        return brentq(g, lo, hi, xtol=_BRENTQ_KW["xtol"] * (hi - lo), rtol=_BRENTQ_KW["rtol"])
    except RuntimeError as exc:
        raise DomainError(f"no zero to Brent's tolerance on [{lo:.6g}, {hi:.6g}]: {exc}") from None


def _require_finite(mode):
    """``mode``, or :class:`DomainError` when a number that defines it is not finite."""
    if not mode.finite():
        raise DomainError("the contact force has a coefficient, rate or phase that is not finite")
    return mode


def _tail(g, lo: float, g_lo: float, limit: float):
    """The last piece, ``[lo, inf)``, cut where monotone ``g`` takes the sign of its limit.

    None when ``limit``, of that sign, is zero or keeps the sign of ``g_lo``.
    The cut doubles its distance from ``lo`` until the sign changes.
    """
    if limit == 0.0 or (limit > 0.0) == (g_lo > 0.0):
        return
    step = lo or 1.0
    while lo + step < math.inf:
        if _crosses(g_lo, g_hi := g(lo + step)):
            yield lo, lo + step, g_lo, g_hi, g
            return
        step *= 2.0


def first_force_zero(force, period: float, horizon: float) -> float:
    """First instant after ``t = 0`` where the force falls to zero.

    Contact starts at ``t = 0`` by construction, so a force that starts at
    zero (or rounds to a tiny negative value) and rises counts as started.

    Parameters
    ----------
    force : DampedMode, RealMode or OffsetMode
        The force history.
    period : float
        Its oscillation period ``2 pi / omega``; the walk steps by half of it.
    horizon : float
        Walk limit.  No zero up to it raises :class:`PlasticImpactError`.
        A force that does not oscillate has finitely many pieces, and the
        walk takes them all.

    Raises
    ------
    PlasticImpactError
        When no zero lies within the horizon, or when ``F`` is proved to stay
        positive for good.
    DomainError
        When a number that defines ``F`` or its rate is not finite, or a
        Brent solve does not converge.
    """
    if not _require_finite(force).omega:
        horizon = math.inf
    elif isinstance(force, DampedMode) and not force.c and force.R:
        # F falls through the sine's zeros at the phases omega t + phi = k pi with k
        # even: the first after t = 0, or after the rise when F starts at 0 and falls.
        k = 1.0 if force.R > 0.0 else 0.0 if force.phi < 0.0 else 2.0
        zero = (k * math.pi - force.phi) / force.omega
        if zero <= horizon:
            return zero
        raise PlasticImpactError("contact force never returns to zero within the horizon")
    for lo, hi, g_lo, g_hi, g in force.pieces(period):
        if lo >= horizon:
            break
        if g_lo > 0.0 >= g_hi:
            zero = _root(g, lo, hi, g_hi)
            if zero > horizon:
                break
            return zero
    else:
        raise PlasticImpactError(
            "contact force never returns to zero: the impactor stays embedded"
        )
    raise PlasticImpactError("contact force never returns to zero within the horizon")
