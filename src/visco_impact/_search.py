"""Internal helpers for locating force zeros on sampled closed forms."""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import NoSeparationError, PlasticImpactError

# Scan resolution per oscillation period.  Force zeros are at least half a
# period apart, so this comfortably resolves every sign change; narrow
# tangency dips near the plastic threshold are handled separately below.
_SAMPLES_PER_PERIOD = 400

# Scan limit for the contact end, in oscillation periods, shared by every
# closed-form model; the oracle keeps its own horizon as the independent
# reference.
SCAN_HORIZON_PERIODS = 10.0

# Largest scan grid, in samples.  It is above every scan that completes
# (the largest, 6.75e6, is a series-pair drop at zeta = 0.99 and
# eps0 = 1e-4); longer ones would allocate hundreds of megabytes or more.
MAX_SCAN_SAMPLES = 10_000_000

_BRENTQ_KW = dict(xtol=1e-30, rtol=1e-15)


def first_force_zero(force: Callable, period: float, horizon: float) -> float:
    """First instant where the force returns to zero after being positive.

    Parameters
    ----------
    force : callable
        Vectorized force history; evaluated on arrays and scalars.
    period : float
        Oscillation period used to size the scan grid.
    horizon : float
        Scan limit.  No zero within it raises :class:`PlasticImpactError`.

    Raises
    ------
    NoSeparationError
        When the grid would need more than :data:`MAX_SCAN_SAMPLES` samples.
    """
    samples = _SAMPLES_PER_PERIOD * horizon / period
    if not samples <= MAX_SCAN_SAMPLES:
        raise NoSeparationError(
            f"contact-end scan gives up: it needs {samples:.3g} samples, "
            f"more than the {MAX_SCAN_SAMPLES:.3g} allowed"
        )
    n = max(int(round(samples)), _SAMPLES_PER_PERIOD) + 1
    ts = np.linspace(0.0, horizon, n)
    fs = np.asarray(force(ts), dtype=float)

    pos = np.flatnonzero(fs > 0.0)
    if pos.size == 0:
        raise PlasticImpactError("contact force never becomes positive")
    i0 = pos[0]

    neg = np.flatnonzero(fs[i0:] <= 0.0)
    if neg.size:
        j = i0 + neg[0]
        if fs[j] == 0.0:
            return float(ts[j])
        return float(brentq(lambda t: float(force(t)), ts[j - 1], ts[j], **_BRENTQ_KW))

    # No sign change on the grid.  Near the embedding threshold the force
    # grazes zero in a dip narrower than the grid step, so polish each local
    # minimum in time order before declaring the impact plastic.
    interior = np.arange(i0 + 1, n - 1)
    is_min = (fs[interior] < fs[interior - 1]) & (fs[interior] <= fs[interior + 1])
    for k in interior[is_min]:
        res = minimize_scalar(
            lambda t: float(force(t)),
            bounds=(ts[k - 1], ts[k + 1]),
            method="bounded",
            options={"xatol": period * 1e-13},
        )
        if res.fun < 0.0:
            return float(brentq(lambda t: float(force(t)), ts[k - 1], res.x, **_BRENTQ_KW))
    raise PlasticImpactError("contact force never returns to zero within the horizon")
