"""Thin fluid-saturated layer reduced to an equivalent spring-dashpot pair.

A thin incompressible-solid layer of thickness ``h`` bonded to a rigid
substrate and indented by a flat-ended circular indenter of radius ``a``
responds, for short times, like a spring ``k = 3 mu_s a**4 / (16 h**3)``
relaxing with time constant ``tau_R = h**2 / (3 mu_s kappa)``, where
``kappa`` is the permeability of the solid matrix.  That is exactly a
spring-dashpot series pair, so the impact machinery of the series model
applies verbatim after the reduction implemented here.

The short-time window where the reduction is trustworthy is a fixed
fraction of the consolidation time ``tau_D = h**2 / (H_A kappa)`` set by
the aggregate modulus ``H_A = lambda_s + 2 mu_s``.

All quantities are SI: Pa, m, s, N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError
from .models import (
    MaxwellParams,
    _divide,
    _power,
    _require_nonnegative,
    _require_positive,
    _series_groups,
    load_flat_json,
    read_numeric_csv,
)

__all__ = [
    "BiphasicLayer",
    "EquivalentMaxwell",
    "equivalent_maxwell",
    "reduce_to_maxwell",
    "validity_window",
    "pressure_profile",
    "biphasic_force",
    "biphasic_loss_factor",
    "load_layer_json",
    "load_delta0_csv",
]

# Fraction of the consolidation time over which the short-time reduction
# holds; beyond it the fluid pressure has measurably diffused.
USABLE_FRACTION = 0.1

# Aspect ratio beyond which the thin-layer asymptotics degrade.
_THIN_LAYER_RATIO = 0.2

_DELTA0_HEADER = ("t", "delta0")


@dataclass(frozen=True)
class BiphasicLayer:
    """Bonded thin layer of fluid-saturated incompressible solid.

    Parameters
    ----------
    mu_s : float
        Shear modulus of the solid matrix [Pa].
    lambda_s : float
        First Lame constant of the solid matrix [Pa].
    kappa : float
        Permeability [m^4 / (N s)].
    h : float
        Layer thickness [m].
    a : float
        Contact (indenter) radius [m].

    Notes
    -----
    The aggregate modulus ``H_A = lambda_s + 2 mu_s`` is computed at
    construction.  A warning is emitted when ``h / a`` exceeds 0.2, where
    the thin-layer reduction loses accuracy.
    """

    mu_s: float
    lambda_s: float
    kappa: float
    h: float
    a: float
    H_A: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("mu_s", "kappa", "h", "a"):
            _require_positive(name, getattr(self, name))
        _require_nonnegative("lambda_s", self.lambda_s)
        object.__setattr__(self, "H_A", self.lambda_s + 2.0 * self.mu_s)
        if self.h / self.a > _THIN_LAYER_RATIO:
            warnings.warn(
                f"h/a = {self.h / self.a:.3g} exceeds {_THIN_LAYER_RATIO}; "
                "the thin-layer reduction is inaccurate for thick layers",
                stacklevel=3,
            )


@dataclass(frozen=True)
class EquivalentMaxwell:
    """Spring-dashpot series pair equivalent to a thin layer.

    ``k``, ``tau_R`` and ``chi`` must be positive and finite.
    """

    k: float
    tau_R: float

    def __post_init__(self) -> None:
        for name in ("k", "tau_R", "chi"):
            _require_positive(name, getattr(self, name))

    @property
    def chi(self) -> float:
        """Pressure-decay rate, the reciprocal of ``tau_R``."""
        return 1.0 / self.tau_R


def equivalent_maxwell(layer: BiphasicLayer) -> EquivalentMaxwell:
    """Short-time equivalent series pair of a thin layer.

    The stiffness scales with the fourth power of the contact radius and
    the inverse cube of the thickness; the relaxation time grows with the
    square of the thickness.  Doubling ``h`` therefore cuts ``k`` eightfold
    and quadruples ``tau_R``.  A ``k``, ``tau_R`` or ``chi`` that is not
    positive and finite raises :class:`DomainError`.
    """
    k = _divide(3.0 * layer.mu_s * _power(layer.a, 4), 16.0 * _power(layer.h, 3))
    tau_R = _divide(_power(layer.h, 2), 3.0 * layer.mu_s * layer.kappa)
    return EquivalentMaxwell(k=k, tau_R=tau_R)


def reduce_to_maxwell(layer: BiphasicLayer, m: float, v0: float) -> MaxwellParams:
    """Impact parameters of the equivalent series pair.

    Raises
    ------
    DomainError
        If the resulting loss factor is at or above one (relaxation too
        fast for an oscillatory rebound), via parameter validation.
    """
    eq = equivalent_maxwell(layer)
    return MaxwellParams(m=m, k=eq.k, b=eq.k * eq.tau_R, v0=v0)


def validity_window(layer: BiphasicLayer) -> tuple[float, float]:
    """Consolidation time and the usable short-time window.

    Returns
    -------
    tuple of float
        ``(tau_D, t_usable)`` with ``tau_D = h**2 / (H_A kappa)`` and
        ``t_usable = 0.1 * tau_D``.

    Raises
    ------
    DomainError
        If ``tau_D`` is not positive and finite.
    """
    tau_D = _divide(_power(layer.h, 2), layer.H_A * layer.kappa)
    _require_positive("tau_D", tau_D)
    return tau_D, USABLE_FRACTION * tau_D


def _check_history(times: np.ndarray, delta0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=float)
    delta0 = np.asarray(delta0, dtype=float)
    if times.ndim != 1 or times.shape != delta0.shape or times.size < 2:
        raise DomainError("history needs matching 1-d time and depth arrays")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
        raise DomainError("history times must increase strictly from 0")
    if delta0[0] != 0.0:
        raise DomainError("indentation history must start at zero depth")
    return times, delta0


def _relaxed_depths(times: np.ndarray, delta0: np.ndarray, tau_R: float) -> np.ndarray:
    """``integral_0^t exp(-(t-s)/tau_R) delta0'(s) ds`` at every sample.

    The history is piecewise linear, so its rate is piecewise constant and
    each segment integrates in closed form: the running value decays by
    ``exp(-dt / tau_R)`` across a segment and gains that segment's part,
    whose factor ``1 - exp(-dt / tau_R)`` comes from ``expm1`` so that short
    segments keep every digit.
    """
    out = np.empty_like(times)
    out[0] = 0.0
    acc = 0.0
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        slope = (delta0[i + 1] - delta0[i]) / dt
        gain = -math.expm1(-dt / tau_R)
        acc = math.exp(-dt / tau_R) * acc + slope * tau_R * gain
        out[i + 1] = acc
    return out


def pressure_profile(layer: BiphasicLayer, times, delta0, r, t: float) -> np.ndarray:
    """Fluid pressure across the contact patch at time ``t``.

    The profile is parabolic in radius, vanishing at the contact edge:

        P(r, t) = 3 mu_s / (8 pi h**3) * (a**2 - r**2)
                  * [delta0(t) - chi * integral exp(-chi (t-s)) delta0(s) ds]

    The bracket equals ``integral exp(-chi (t-s)) delta0'(s) ds`` (by parts,
    as ``delta0(0) = 0``), the relaxed depth that :func:`biphasic_force`
    recurses, so the profile's integral over the contact disk reproduces
    that force at every sampled instant.

    Parameters
    ----------
    times, delta0 : array_like
        Sampled indentation-depth history, starting at zero; values
        between samples interpolate linearly.
    r : array_like
        Radial stations, all within ``[0, a]``.
    t : float
        Evaluation time, within the sampled range.
    """
    times, delta0 = _check_history(times, delta0)
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r) > layer.a):
        raise DomainError("radial stations must lie inside the contact radius")
    if not 0.0 <= t <= times[-1]:
        raise DomainError(f"t = {t!r} lies outside the sampled history")
    eq = equivalent_maxwell(layer)
    # The force recursion, carried to t across the interpolated partial segment.
    before = int(np.searchsorted(times, t))
    relaxed = _relaxed_depths(
        np.append(times[:before], t),
        np.append(delta0[:before], np.interp(t, times, delta0)),
        eq.tau_R,
    )[-1]
    prefactor = 3.0 * layer.mu_s / (8.0 * math.pi * layer.h**3)
    return prefactor * (layer.a**2 - r**2) * relaxed


def biphasic_force(layer: BiphasicLayer, times, delta0) -> np.ndarray:
    """Contact force at every sampled instant of a depth history.

    Evaluates ``k * integral exp(-(t-s)/tau_R) delta0'(s) ds`` with an
    exact per-step exponential recursion (the history is piecewise linear,
    so its rate is piecewise constant and each segment integrates in
    closed form).  A linear ramp ``delta0 = c t`` therefore yields exactly
    ``F = k c tau_R (1 - exp(-t / tau_R))``.
    """
    times, delta0 = _check_history(times, delta0)
    eq = equivalent_maxwell(layer)
    return eq.k * _relaxed_depths(times, delta0, eq.tau_R)


def biphasic_loss_factor(layer: BiphasicLayer, m: float) -> float:
    """Loss factor of the equivalent series pair under an impacting mass.

    The series pair's own ``zeta = k / (2 omega0 b)``, bit for bit the one
    :func:`reduce_to_maxwell` refuses at one, but returned at any value.  It
    equals ``2 sqrt(3 m mu_s) kappa / (a**2 sqrt(h))``, so it grows with
    permeability and shear modulus and falls with thickness and contact
    radius: thicker layers and larger indenters rebound more.  Raises
    :class:`DomainError` unless ``m``, the pair and ``sqrt(k / m)`` are
    positive and finite.
    """
    _require_positive("m", m)
    eq = equivalent_maxwell(layer)
    return _series_groups(m, eq.k, eq.k * eq.tau_R)[1]


_LAYER_KEYS = frozenset({"mu_s", "lambda_s", "kappa", "h", "a"})


def load_layer_json(path: str | Path) -> BiphasicLayer:
    """Load layer parameters from a flat JSON object.

    Exactly the keys ``mu_s, lambda_s, kappa, h, a`` are accepted.
    """
    return BiphasicLayer(**load_flat_json(path, _LAYER_KEYS))


def load_delta0_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a depth history CSV with header ``t,delta0``."""
    return tuple(read_numeric_csv(path, _DELTA0_HEADER).T)
