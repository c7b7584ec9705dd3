"""Drop-test analysis: stress-strain measures and experiment records.

Converts impact trajectories of a cylindrical sample to engineering
stress and strain, evaluates the incremental dynamic modulus

    E_dyn(t) = (h / (pi a**2)) * Fdot(t) / xdot(t),

solves for the modulus at a prescribed stress level, and ingests tables
of measured drop-test records so the constant-parameter predictions of
the linear models can be checked against data.

The dynamic modulus of a linear model is a material curve: it does not
depend on the impact velocity, while peak depth and peak force scale
linearly with it.  Measured records that violate those statements are
flagged by :func:`linearity_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _modal, maxwell
from ._search import _root
from .errors import DomainError, NoCrossingError, SingularityError
from .models import (
    KelvinVoigtParams,
    MaxwellParams,
    StandardSolidParams,
    Trajectory,
    _formula,
    _require_nonnegative,
    _require_positive,
    read_numeric_csv,
)

__all__ = [
    "STANDARD_GRAVITY",
    "DEFAULT_SIGMA_TARGET",
    "REL_CONSTANCY_TOL",
    "SampleGeometry",
    "ExperimentRecord",
    "PredictionVerdict",
    "LinearityReport",
    "stress_strain",
    "dynamic_modulus",
    "solve_e10",
    "energy_dissipation",
    "ingest_table",
    "linearity_report",
    "bundled_experiments_path",
]

STANDARD_GRAVITY = 9.81

# Stress level, in Pa, at which the mid-impact modulus is reported.
DEFAULT_SIGMA_TARGET = 10e6

# Depth-rate band, as a fraction of the incidence speed, inside which the
# modulus quotient is masked instead of evaluated.
GUARD_BAND_FRACTION = 1e-6

# Relative spread (max - min over mean) below which a quantity counts as
# constant across impact velocities.
REL_CONSTANCY_TOL = 0.05

# Consistency margin for the drop-height / impact-velocity conversion.
_V0_CONSISTENCY_TOL = 0.02

# Drop-test table columns: (CSV column, ExperimentRecord field, factor to SI).
_EXPERIMENT_COLUMNS = (
    ("h0_mm", "h0", 1e-3),
    ("v0_ms", "v0", 1.0),
    ("Emax_MPa", "E_max", 1e6),
    ("Emax_sd", "E_max_sd", 1e6),
    ("E10_MPa", "E_10", 1e6),
    ("E10_sd", "E_10_sd", 1e6),
    ("sigmax_MPa", "sigma_max", 1e6),
    ("sigmax_sd", "sigma_max_sd", 1e6),
    ("epsmax", "eps_max", 1.0),
    ("epsmax_sd", "eps_max_sd", 1.0),
    ("estar", "e_star", 1.0),
    ("estar_sd", "e_star_sd", 1.0),
    ("dm_pct", "delta_m", 1.0),
)
EXPERIMENT_HEADER = tuple(column for column, _, _ in _EXPERIMENT_COLUMNS)


@dataclass(frozen=True)
class SampleGeometry:
    """Cylindrical sample: contact radius ``a`` and thickness ``h`` [m], and its ``area``."""

    a: float
    h: float
    area: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_positive("sample radius a", self.a)
        _require_positive("sample thickness h", self.h)
        object.__setattr__(self, "area", _formula("contact area pi a**2 = pi * a ** 2")(a=self.a))
        _require_positive("contact area pi a**2", self.area)


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured drop test, in SI units.

    ``delta_m`` is the percentage mass increase of the sample after the
    test (a damage indicator; it drives no computation here).  The
    ``v0_consistent`` flag records whether the stated impact velocity
    matches ``sqrt(2 g h0)`` within 2%.
    A value that is not finite, a height, speed, modulus, stress or strain that is not
    positive, a negative sd or an ``e_star`` outside [0, 1] raises :class:`DomainError`.
    """

    h0: float
    v0: float
    E_max: float
    E_max_sd: float
    E_10: float
    E_10_sd: float
    sigma_max: float
    sigma_max_sd: float
    eps_max: float
    eps_max_sd: float
    e_star: float
    e_star_sd: float
    delta_m: float
    v0_consistent: bool = field(init=False)

    def __post_init__(self) -> None:
        _require_positive("drop height h0", self.h0)
        _require_positive("impact velocity v0", self.v0)
        for name in ("E_max", "E_10", "sigma_max", "eps_max"):
            _require_positive(name, getattr(self, name))
        for name in ("E_max_sd", "E_10_sd", "sigma_max_sd", "eps_max_sd", "e_star_sd"):
            _require_nonnegative(name, getattr(self, name))
        if not 0.0 <= self.e_star <= 1.0:
            raise DomainError(f"e_star must lie in [0, 1], got {self.e_star!r}")
        if not math.isfinite(self.delta_m):
            raise DomainError(f"delta_m must be finite, got {self.delta_m!r}")
        v0_free_fall = _formula("v0 = sqrt(2 * g * h0)")(g=STANDARD_GRAVITY, h0=self.h0)
        consistent = abs(self.v0 - v0_free_fall) <= _V0_CONSISTENCY_TOL * v0_free_fall
        object.__setattr__(self, "v0_consistent", consistent)


def stress_strain(traj: Trajectory, geom: SampleGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Engineering stress and strain of a sampled impact, compression positive.

    ``sigma = F / (pi a**2)`` and ``eps = x / h`` elementwise.
    """
    return traj.F / geom.area, traj.x / geom.h


def _force_rate_model(traj: Trajectory, params) -> np.ndarray:
    if isinstance(params, KelvinVoigtParams):
        return params.k * traj.xdot + params.b * traj.xddot
    if isinstance(params, MaxwellParams):
        return params.k * traj.xdot - traj.F * (params.k / params.b)
    if isinstance(params, StandardSolidParams):
        return (
            params.k1 * params.k2 * traj.x
            + params.k1 * params.b * traj.xdot
            - (params.k1 + params.k2) * traj.F
        ) / params.b
    raise DomainError(f"unsupported parameter type {type(params).__name__!r}")


# Fourth-order first-derivative stencils on a uniform grid: interior
# central, plus forward stencils for the two leading points (mirrored at
# the trailing edge).
_EDGE_STENCILS = (
    np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
)


def _force_rate_sampled(traj: Trajectory) -> np.ndarray:
    times, F = traj.times, traj.F
    if times.size < 5:
        raise DomainError("need at least 5 samples to differentiate the force")
    steps = np.diff(times)
    dt = steps[0]
    if np.any(np.abs(steps - dt) > 1e-9 * dt):
        raise DomainError("sampled force differentiation needs a uniform time grid")
    rate = np.empty_like(F)
    rate[2:-2] = (F[:-4] - 8.0 * F[1:-3] + 8.0 * F[3:-1] - F[4:]) / (12.0 * dt)
    for i, stencil in enumerate(_EDGE_STENCILS):
        rate[i] = stencil @ F[:5] / dt
        rate[-1 - i] = -(stencil @ F[-5:][::-1]) / dt
    return rate


def dynamic_modulus(traj: Trajectory, geom: SampleGeometry, params=None) -> np.ndarray:
    """Incremental dynamic modulus ``(h / (pi a**2)) Fdot / xdot`` [Pa].

    Parameters
    ----------
    traj : Trajectory
        Sampled impact.
    geom : SampleGeometry
        Sample dimensions.
    params : optional
        Model parameters matching the trajectory.  When given, the force
        rate is evaluated from the model's own rate equation; otherwise it
        is approximated by fourth-order finite differences, which requires
        a uniform time grid.

    Returns
    -------
    numpy.ndarray
        Modulus per sample.  Entries where ``|xdot|`` falls below
        ``1e-6 * v0`` (the turning-point band, where the quotient blows
        up) are NaN.

    Raises
    ------
    SingularityError
        If the depth rate is zero on every sample.
    """
    rate = _force_rate_model(traj, params) if params is not None else _force_rate_sampled(traj)
    v0_ref = abs(traj.xdot[0])
    if v0_ref == 0.0:
        v0_ref = float(np.max(np.abs(traj.xdot)))
    if v0_ref == 0.0:
        raise SingularityError("depth rate vanishes on every sample")
    masked = np.abs(traj.xdot) < GUARD_BAND_FRACTION * v0_ref
    scale = geom.h / geom.area
    E = np.full_like(rate, np.nan)
    np.divide(rate, traj.xdot, out=E, where=~masked)
    E[~masked] *= scale
    return E


def solve_e10(
    params: MaxwellParams,
    geom: SampleGeometry,
    sigma_target: float = DEFAULT_SIGMA_TARGET,
) -> tuple[float, float]:
    """Time and modulus at which a series-pair impact reaches a stress level.

    Solves ``f(tau) = pi a**2 sigma / (m v0 omega0)`` on the pair's own force
    mode ``f`` (:mod:`.maxwell`, in ``omega0`` time, at the params' weight) by
    one Brent solve over the force rise ``[0, t_M]``, then evaluates the
    dynamic modulus there as ``E_max f'(tau) / xi'(tau)``.

    Returns
    -------
    tuple of float
        ``(t_10, E_10)``.  A zero stress target degenerates to
        ``(0, E_max)`` with ``E_max = k h / (pi a**2)``, and a target equal
        to the peak stress to within rounding to ``(t_M, 0)``: the force
        rate vanishes at the peak.

    Raises
    ------
    NoCrossingError
        If the peak force stays below ``pi a**2 sigma_target``.
    PlasticImpactError
        At ``sigma_target > 0``, where :func:`.mx_metrics` does (``zeta >= 1`` included).
    """
    if not sigma_target >= 0.0:
        raise DomainError(f"sigma_target must be nonnegative, got {sigma_target!r}")
    E_max = params.k * geom.h / geom.area
    if sigma_target == 0.0:
        return 0.0, E_max
    d = params.derived
    T = 1.0 / d.omega0
    gamma = _modal.scaled_weight(T, params)
    scaled = maxwell._scaled_metrics(d.zeta, gamma)
    peak = _modal.dimensional(scaled, T, params)
    F_target = geom.area * sigma_target
    if peak.F_M < F_target:
        raise NoCrossingError(
            f"peak force {peak.F_M:.6g} N stays below the "
            f"{F_target:.6g} N needed for sigma = {sigma_target:.6g} Pa"
        )
    _, xi_d, force = maxwell._scaled_solution(d.zeta, gamma)
    level = F_target * T / (params.m * params.v0)
    tau_M = scaled[4]
    top = float(force(tau_M)) - level
    if top <= 0.0 or F_target == peak.F_M:
        return peak.t_M, 0.0
    tau = _root(lambda tau: float(force(tau)) - level, 0.0, tau_M, top)
    # The force rises up to tau_M: a negative rate is rounding next to the peak.
    rate = max(float(force.derivative()(tau)), 0.0)
    return tau * T, E_max * rate / float(xi_d(tau))


def energy_dissipation(e_star: float) -> float:
    """Fraction of incident kinetic energy lost, ``1 - e_star**2``."""
    if not (0.0 <= e_star <= 1.0):
        raise DomainError(f"restitution must lie in [0, 1], got {e_star!r}")
    return 1.0 - e_star**2


def ingest_table(path: str | Path) -> list[ExperimentRecord]:
    """Read drop-test records from a CSV table.

    The header must match :data:`EXPERIMENT_HEADER` exactly (heights in
    mm, moduli and stresses in MPa); values convert to SI on load.

    Raises
    ------
    ParseError
        On a missing or unknown column, a malformed row, or an empty file.
    """
    return [
        ExperimentRecord(
            **{name: value * factor for (_, name, factor), value in zip(_EXPERIMENT_COLUMNS, row)}
        )
        for row in read_numeric_csv(path, EXPERIMENT_HEADER).tolist()
    ]


def bundled_experiments_path() -> Path:
    """Path of the packaged bovine-cartilage drop-test table."""
    from importlib.resources import files

    return Path(str(files("visco_impact") / "data" / "cartilage_drop_tests.csv"))


@dataclass(frozen=True)
class PredictionVerdict:
    """Outcome of one constant-across-velocities prediction.

    ``spread`` is the relative spread ``(max - min) / mean`` of the tested
    quantity over the records; the prediction passes when it stays within
    :data:`REL_CONSTANCY_TOL`.
    """

    name: str
    spread: float
    passed: bool

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: {word} (relative spread {self.spread:.3g}, "
            f"tolerance {REL_CONSTANCY_TOL})"
        )


@dataclass(frozen=True)
class LinearityReport:
    """Linear-model predictions checked against measured records.

    ``ratio`` holds ``sigma_max / eps_max`` per record in order of
    increasing impact velocity; for a linear model it is a constant, so a
    systematic rise with velocity signals a stiffening response.
    """

    v0: tuple[float, ...]
    ratio: tuple[float, ...]
    ratio_increasing: bool
    verdicts: tuple[PredictionVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def lines(self) -> list[str]:
        out = [v.line() for v in self.verdicts]
        trend = "strictly increasing" if self.ratio_increasing else "not monotone"
        ratios = ", ".join(f"{r / 1e6:.1f}" for r in self.ratio)
        out.append(f"sigma_max/eps_max over v0 [MPa]: {ratios} ({trend})")
        return out


def _relative_spread(values: np.ndarray) -> float:
    """``(max - min) / |mean|``, of the values over their largest magnitude: no overflow."""
    values = values / (float(np.max(np.abs(values))) or 1.0)
    mean = float(np.mean(values))
    if mean == 0.0:
        return 0.0 if np.ptp(values) == 0.0 else math.inf
    return float(np.ptp(values) / abs(mean))


def linearity_report(records: list[ExperimentRecord]) -> LinearityReport:
    """Check the constant-parameter predictions on a set of records.

    A linear impact model requires the restitution coefficient, the peak
    dynamic modulus, and the peak-stress to peak-strain ratio all to be
    independent of the impact velocity.  Each prediction is tested by the
    relative spread of the measured values; a ratio past the float range is refused.
    """
    if len(records) < 2:
        raise DomainError("linearity checks need at least 2 records")
    ordered = sorted(records, key=lambda r: r.v0)
    v0 = np.array([r.v0 for r in ordered])
    ratio = np.array([_formula("sigma_max / eps_max")(sigma_max=r.sigma_max, eps_max=r.eps_max)
                      for r in ordered])
    spreads = (
        ("restitution-constant", _relative_spread(np.array([r.e_star for r in ordered]))),
        ("peak-modulus-constant", _relative_spread(np.array([r.E_max for r in ordered]))),
        ("stiffness-ratio-constant", _relative_spread(ratio)),
    )
    verdicts = tuple(
        PredictionVerdict(name=name, spread=spread, passed=spread <= REL_CONSTANCY_TOL)
        for name, spread in spreads
    )
    return LinearityReport(
        v0=tuple(float(x) for x in v0),
        ratio=tuple(float(x) for x in ratio),
        ratio_increasing=bool(np.all(np.diff(ratio) > 0.0)),
        verdicts=verdicts,
    )
