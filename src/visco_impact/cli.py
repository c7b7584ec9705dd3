"""Command-line interface: simulate, sweep, verify, biphasic, analyze.

Ties the model library together behind an argparse surface that emits
plot-ready CSV.  Scaled sweep outputs use the nondimensional conventions
``omega0 t``, ``omega0 x / v0``, ``F / (m v0 omega0)``, so one sweep file
overlays directly onto another regardless of the dimensional parameters.

Exit codes follow the error class; :mod:`visco_impact.errors` lists them.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._search import MAX_SCAN_SAMPLES
from .analysis import (
    STANDARD_GRAVITY,
    bundled_experiments_path,
    energy_dissipation,
    ingest_table,
    linearity_report,
)
from .biphasic import (
    biphasic_loss_factor,
    equivalent_maxwell,
    load_layer_json,
    reduce_to_maxwell,
    validity_window,
)
from .errors import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_PLASTIC,
    EXIT_VERIFY,
    ConfigError,
    DiscriminantError,
    DomainError,
    GridError,
    ParseError,
    PlasticImpactError,
    ViscoImpactError,
)
from .kelvin_voigt import (
    kv_drop_metrics_asymptotic,
    kv_drop_trajectory,
    kv_metrics,
    kv_trajectory,
)
from .maxwell import (
    mx_drop_metrics_asymptotic,
    mx_drop_trajectory,
    mx_metrics,
    mx_trajectory,
)
from .models import (
    DEFAULT_SAMPLES,
    ImpactMetrics,
    KelvinVoigtParams,
    MaxwellParams,
    Trajectory,
    load_flat_json,
    load_kv_params,
    load_maxwell_params,
    load_sls_params,
    read_numeric_csv,
    write_csv_rows,
)
from .oracle import RelaxationKernel, integrate_impact, integrate_impact_with_gravity
from .standard_solid import (
    params_from_groups,
    params_near_kv,
    params_near_maxwell,
    sls_metrics,
    sls_perturb_kv,
    sls_perturb_maxwell,
    sls_trajectory,
)

__all__ = [
    "EXIT_OK",
    "EXIT_IO",
    "EXIT_DOMAIN",
    "EXIT_PLASTIC",
    "EXIT_VERIFY",
    "SweepSpec",
    "SuiteResult",
    "main",
    "run_verification",
    "read_csv_rows",
]

SWEEP_HEADER = (
    "param",
    "tc_scaled",
    "e_star",
    "tm_scaled",
    "tM_scaled",
    "xm_scaled",
    "FM_scaled",
)
# A rho sweep also reports the small-rho expansion for convergence plots.
SWEEP_ASYM_HEADER = SWEEP_HEADER + ("tc_scaled_asym", "e_star_asym")

ANALYZE_HEADER = (
    "v0_ms",
    "estar",
    "delta_E_fraction",
    "ratio_MPa",
    "Emax_MPa",
    "E10_MPa",
    "Emax_over_E10",
)

VERIFY_HEADER = ("suite", "max_error", "tolerance", "status")

# Defaults for the quantity a sweep holds fixed, overridable by --params.
_SWEEP_FIXED_DEFAULTS = {"eta": 0.3, "zeta": 0.3, "rho": 0.1, "Lambda": 0.25}


@dataclass(frozen=True)
class _Model:
    """What the CLI runs for one contact model.

    ``unit_params`` builds a parameter set with unit mass, frequency and
    speed from the sweep groups (loss factors, ``rho``, ``Lambda`` and
    ``eps0``).  A model without drop closed forms integrates the drop.
    """

    load: Callable
    metrics: Callable
    trajectory: Callable
    drop_metrics: Callable | None
    drop_trajectory: Callable | None
    sweep_params: tuple[str, ...]
    unit_params: Callable[[dict], object]


_MODELS = {
    "kv": _Model(
        load=load_kv_params,
        metrics=kv_metrics,
        trajectory=kv_trajectory,
        drop_metrics=kv_drop_metrics_asymptotic,
        drop_trajectory=kv_drop_trajectory,
        sweep_params=("eta", "eps0"),
        unit_params=lambda q: KelvinVoigtParams(
            m=1.0, k=1.0, b=2.0 * q["eta"], v0=1.0, g=q["eps0"]
        ),
    ),
    "maxwell": _Model(
        load=load_maxwell_params,
        metrics=mx_metrics,
        trajectory=mx_trajectory,
        drop_metrics=mx_drop_metrics_asymptotic,
        drop_trajectory=mx_drop_trajectory,
        sweep_params=("zeta", "eps0"),
        unit_params=lambda q: MaxwellParams(
            m=1.0, k=1.0, b=0.5 / q["zeta"], v0=1.0, g=q["eps0"]
        ),
    ),
    "sls": _Model(
        load=load_sls_params,
        metrics=sls_metrics,
        trajectory=sls_trajectory,
        drop_metrics=None,
        drop_trajectory=None,
        sweep_params=("rho", "Lambda"),
        unit_params=lambda q: params_from_groups(q["Lambda"], q["rho"]),
    ),
}


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over a scaled metrics grid.

    ``param`` names the swept quantity; ``steps`` grid points span
    ``[lo, hi]``.
    """

    param: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        known = {name for model in _MODELS.values() for name in model.sweep_params}
        if self.param not in known:
            raise DomainError(
                f"unknown sweep parameter {self.param!r}; choose from {sorted(known)}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("sweep range needs finite lo and hi")
        if not (self.lo < self.hi):
            raise DomainError("sweep range needs lo < hi")
        if self.steps < 2:
            raise DomainError("sweep needs at least 2 steps")
        if self.steps > MAX_SCAN_SAMPLES:
            raise DomainError(
                f"sweep has {self.steps:.3g} steps, more than the "
                f"{MAX_SCAN_SAMPLES:.3g} allowed"
            )
        if self.param in ("eta", "zeta", "rho") and not (
            0.0 < self.lo and self.hi < 1.0
        ):
            raise DomainError(f"{self.param} sweep must stay inside (0, 1)")
        if self.param == "Lambda" and not (self.lo > 0.0):
            raise DomainError("Lambda sweep must stay positive")
        if self.param == "eps0" and self.lo < 0.0:
            raise DomainError("eps0 sweep must be nonnegative")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


def parse_sweep_arg(text: str) -> SweepSpec:
    """Parse a ``param:lo:hi:steps`` sweep argument."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ParseError(f"expected param:lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(f"malformed sweep range in {text!r}") from None
    return SweepSpec(param=parts[0], lo=lo, hi=hi, steps=steps)


# Every CSV the CLI writes goes through this name; perfbench's traced run
# wraps it to time those writes.
_write_rows = write_csv_rows


def _emit_csv(out: str | None, header, rows) -> None:
    if out is None:
        _write_rows(sys.stdout, header, rows)
    else:
        with open(out, "w", newline="") as fh:
            _write_rows(fh, header, rows)


def read_csv_rows(path: str | Path, expected_header: tuple[str, ...]) -> np.ndarray:
    """Read back a numeric CSV written by this module, header-checked."""
    return read_numeric_csv(path, expected_header)


def _print_metrics(metrics: ImpactMetrics, label: str = "") -> None:
    tag = f" ({label})" if label else ""
    print(f"impact metrics{tag}:", file=sys.stderr)
    for name in ("t_c", "e_star", "t_m", "x_m", "t_M", "F_M"):
        print(f"  {name} = {getattr(metrics, name):.12g}", file=sys.stderr)


def _metrics_from_trajectory(traj: Trajectory, v0: float) -> ImpactMetrics:
    i_m = int(np.argmax(traj.x))
    i_M = int(np.argmax(traj.F))
    return ImpactMetrics(
        t_c=traj.t_c,
        e_star=-traj.xdot[-1] / v0,
        t_m=float(traj.times[i_m]),
        x_m=float(traj.x[i_m]),
        t_M=float(traj.times[i_M]),
        F_M=float(traj.F[i_M]),
        x_M=float(traj.x[i_M]),
    )


def _require_scaled(option: str, value: float | None) -> None:
    """Refuse a ``--dt`` or ``--horizon`` that is not positive and finite."""
    if value is None:
        return
    if value <= 0.0:
        raise ConfigError(f"{option} must be positive, got {value}")
    if not math.isfinite(value):
        raise ConfigError(f"{option} must be finite, got {value}")


def _samples_from_dt(params, dt: float | None, trajectory_fn: Callable) -> int:
    """Trajectory samples at scaled spacing ``dt``, capped at ``MAX_SCAN_SAMPLES``.

    The samples span the contact end of the trajectory itself, taken from
    a two-sample run: for a drop that is the scanned root, not the
    expansion's estimate.  An impact whose contact end cannot be found
    raises its own error there.
    """
    if dt is None:
        return DEFAULT_SAMPLES
    _require_scaled("--dt", dt)
    t_c = trajectory_fn(params, n_samples=2).t_c
    spans = params.derived.omega0 * t_c / dt
    if not spans <= MAX_SCAN_SAMPLES - 1:
        raise ConfigError(
            f"--dt {dt:g} needs {spans + 1:.3g} samples, "
            f"more than the {MAX_SCAN_SAMPLES:.3g} allowed"
        )
    return max(2, int(math.ceil(spans)) + 1)


def _closed_form(params, dt, metrics_fn, trajectory_fn, label: str = ""):
    """Metrics and a trajectory sampled at scaled spacing ``dt``, metrics printed."""
    # The trajectory goes first: a plastic drop outranks a failing expansion.
    traj = trajectory_fn(params, n_samples=_samples_from_dt(params, dt, trajectory_fn))
    metrics = metrics_fn(params)
    _print_metrics(metrics, label)
    return metrics, traj


def _integrate_directly(kernel, m, v0, g, dt, horizon, reason: str):
    """Oracle metrics and trajectory for an impact without a usable closed form."""
    _require_scaled("--dt", dt)
    if horizon != math.inf:  # an unbounded horizon meets the oracle's step cap
        _require_scaled("--horizon", horizon)
    print(f"{reason}; integrating directly", file=sys.stderr)
    # dt and horizon are in omega0 t; the oracle counts relaxation times, omega0 tau_R.
    unit = math.sqrt(kernel.alpha_per_mass / m)
    dt_scaled, horizon_scaled = (None if v is None else v / unit for v in (dt, horizon))
    try:
        traj = integrate_impact_with_gravity(
            kernel, m, v0, g, dt_scaled=dt_scaled, horizon_scaled=horizon_scaled
        )
    except GridError as exc:
        # The oracle's grid back in omega0 t, named as the command line sets it.
        def named(flag, given, scaled):
            return f"{'' if given is not None else 'the default '}{flag} {scaled * unit:.6g}"

        raise ConfigError(
            f"{named('--horizon', horizon, exc.horizon)} must exceed the step size, "
            f"{named('--dt', dt, exc.step)}"
        ) from exc
    metrics = _metrics_from_trajectory(traj, v0)
    _print_metrics(metrics, "integrated")
    return metrics, traj


def cmd_simulate(args) -> int:
    """Run one impact and write its sampled trajectory."""
    model = _MODELS[args.model]
    params = model.load(args.params)

    def integrate(g: float, reason: str):
        kernel = RelaxationKernel.from_params(params)
        return _integrate_directly(
            kernel, params.m, params.v0, g, args.dt, args.horizon, reason
        )

    if args.gravity and model.drop_metrics is None:
        _, traj = integrate(params.g or STANDARD_GRAVITY, "three-element drop has no closed form")
    elif args.gravity:
        if params.g == 0.0:
            params = dataclasses.replace(params, g=STANDARD_GRAVITY)
        _, traj = _closed_form(
            params,
            args.dt,
            model.drop_metrics,
            model.drop_trajectory,
            "weight included, small-eps0 expansion",
        )
    else:
        try:
            _, traj = _closed_form(params, args.dt, model.metrics, model.trajectory)
        except DiscriminantError as exc:
            # Only the three-element solid's characteristic cubic raises this.
            _, traj = integrate(0.0, f"closed form unavailable ({exc})")
    if args.out is not None:
        traj.to_csv(args.out)
    return EXIT_OK


def _load_fixed(path: str | None) -> dict:
    if path is None:
        return {}
    return load_flat_json(path, frozenset(), frozenset(_SWEEP_FIXED_DEFAULTS))


def _scaled_metrics(model: str, param: str, value: float, fixed: dict):
    """Metrics at one grid point, with unit mass, frequency, and speed.

    The second item holds the extra columns of the row: the first-order
    expansion for a three-element ``rho`` sweep, nothing otherwise.
    """
    if model == "sls" and param == "rho":
        return _rho_expansion_point(fixed, value)
    entry = _MODELS[model]
    params = entry.unit_params(
        {**_SWEEP_FIXED_DEFAULTS, "eps0": 0.0, **fixed, param: value}
    )
    if param == "eps0":
        return entry.drop_metrics(params), ()
    return entry.metrics(params), ()


def _rho_expansion_point(fixed: dict, rho: float):
    """Three-element metrics near a pair limit and their first-order expansion.

    The limit is the series pair when ``fixed`` holds ``zeta``, the
    parallel pair otherwise.
    """
    if "zeta" in fixed:
        params = params_near_maxwell(fixed["zeta"], rho)
        asym = sls_perturb_maxwell(fixed["zeta"], rho)
    else:
        eta = fixed.get("eta", _SWEEP_FIXED_DEFAULTS["eta"])
        params = params_near_kv(eta, rho)
        asym = sls_perturb_kv(eta, rho)
    return sls_metrics(params), asym


def cmd_sweep(args) -> int:
    """Evaluate scaled impact metrics over a one-parameter grid."""
    spec = parse_sweep_arg(args.sweep)
    sweep_params = _MODELS[args.model].sweep_params
    if spec.param not in sweep_params:
        raise DomainError(
            f"model {args.model!r} sweeps one of {sweep_params}, not {spec.param!r}"
        )
    fixed = _load_fixed(args.params)
    with_asym = args.model == "sls" and spec.param == "rho"
    header = SWEEP_ASYM_HEADER if with_asym else SWEEP_HEADER
    nan_row = (math.nan,) * (len(header) - 1)
    rows = []
    code = EXIT_OK
    for value in map(float, spec.grid()):
        try:
            met, asym = _scaled_metrics(args.model, spec.param, value, fixed)
        except (DomainError, PlasticImpactError) as exc:
            # A domain skip anywhere outranks a plastic one: EXIT_DOMAIN < EXIT_PLASTIC.
            skip, code = exc, min(code or exc.exit_code, exc.exit_code)
        else:
            rows.append(
                (value, met.t_c, met.e_star, met.t_m, met.t_M, met.x_m, met.F_M, *asym)
            )
            continue
        print(f"{spec.param} = {value:g} skipped: {skip}", file=sys.stderr)
        rows.append((value, *nan_row))
    _emit_csv(args.out, header, np.array(rows, dtype=float))
    return code


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


def _oracle_gap(params, met: ImpactMetrics) -> float:
    """Restitution and ``omega0``-scaled duration gaps between ``met`` and the oracle."""
    traj = integrate_impact(RelaxationKernel.from_params(params), params.m, params.v0)
    return max(
        abs(met.e_star + traj.xdot[-1] / params.v0),
        params.derived.omega0 * abs(met.t_c - traj.t_c),
    )


def _suite_elastic_limit() -> tuple[float, float]:
    params = KelvinVoigtParams(m=1.0, k=1.0, b=0.0, v0=1.0)
    met = kv_metrics(params)
    err = max(abs(met.e_star - 1.0), abs(met.t_c - math.pi), _oracle_gap(params, met))
    return err, 1e-6


def _suite_parallel_pair_midpoint() -> tuple[float, float]:
    err = 0.0
    for eta in np.linspace(0.01, 0.98, 50):
        met = kv_metrics(KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=1.0))
        err = max(err, abs(met.t_m - met.t_c / 2.0) / met.t_c)
    return err, 1e-12


def _suite_series_pair_termination() -> tuple[float, float]:
    err = 0.0
    for zeta in np.linspace(0.01, 0.98, 50):
        params = MaxwellParams(m=1.0, k=1.0, b=0.5 / zeta, v0=1.0)
        met = mx_metrics(params)
        traj = mx_trajectory(params, n_samples=200)
        err = max(err, abs(traj.F[-1]) / met.F_M)
    return err, 1e-12


def _suite_analytic_vs_oracle() -> tuple[float, float]:
    err = 0.0
    for name, groups in (
        ("kv", {"eta": 0.2}),
        ("kv", {"eta": 0.8}),
        ("maxwell", {"zeta": 0.2}),
        ("maxwell", {"zeta": 0.8}),
        ("sls", {"Lambda": 0.25, "rho": 0.5}),
        ("sls", {"Lambda": 0.5, "rho": 0.3}),
    ):
        model = _MODELS[name]
        params = model.unit_params({"eps0": 0.0, **groups})
        err = max(err, _oracle_gap(params, model.metrics(params)))
    return err, 1e-6


def _suite_biphasic_pipeline() -> tuple[float, float]:
    from .biphasic import BiphasicLayer

    layer = BiphasicLayer(mu_s=0.25e6, lambda_s=0.25e6, kappa=2e-15, h=0.5e-3, a=2.5e-3)
    params = reduce_to_maxwell(layer, m=0.2, v0=1.0)
    return _oracle_gap(params, mx_metrics(params)), 1e-6


def _suite_energy_identity() -> tuple[float, float]:
    err = 0.0
    for params, metrics in (
        (KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0), kv_metrics),
        (MaxwellParams(m=1.0, k=1.0, b=1.25, v0=1.0), mx_metrics),
    ):
        traj = integrate_impact(RelaxationKernel.from_params(params), 1.0, 1.0)
        lost = 1.0 - traj.xdot[-1] ** 2
        err = max(err, abs(energy_dissipation(metrics(params).e_star) - lost))
    return err, 1e-8


_VERIFY_SUITES = (
    ("elastic-limit", _suite_elastic_limit),
    ("parallel-pair-midpoint", _suite_parallel_pair_midpoint),
    ("series-pair-termination", _suite_series_pair_termination),
    ("analytic-vs-oracle", _suite_analytic_vs_oracle),
    ("biphasic-pipeline", _suite_biphasic_pipeline),
    ("energy-identity", _suite_energy_identity),
)


def run_verification(suites=None) -> list[SuiteResult]:
    """Run the cross-validation suites and collect their worst errors."""
    results = []
    for name, suite in suites if suites is not None else _VERIFY_SUITES:
        max_error, tolerance = suite()
        results.append(SuiteResult(name=name, max_error=max_error, tolerance=tolerance))
    return results


def cmd_verify(args, suites=None) -> int:
    """Cross-validate the closed forms against direct integration."""
    results = run_verification(suites)
    for r in results:
        print(f"{r.name}: {r.status} (max error {r.max_error:.3e}, tolerance {r.tolerance:.1e})")
    if args.out is not None:
        rows = [(r.name, r.max_error, r.tolerance, r.status) for r in results]
        _emit_csv(args.out, VERIFY_HEADER, rows)
    if any(not r.passed for r in results):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_biphasic(args) -> int:
    """Reduce a layer file to its series pair and optionally run the impact."""
    layer = load_layer_json(args.params)
    eq = equivalent_maxwell(layer)
    tau_D, usable = validity_window(layer)
    zeta = biphasic_loss_factor(layer, args.m)
    print(f"k = {eq.k:.6g} N/m")
    print(f"tau_R = {eq.tau_R:.6g} s")
    print(f"chi = {eq.chi:.6g} 1/s")
    print(f"zeta = {zeta:.6g}")
    print(f"tau_D = {tau_D:.6g} s")
    print(f"usable window = {usable:.6g} s")
    if args.out is None:
        return EXIT_OK
    if zeta >= 1.0:
        # The force decays on the relaxation scale, so 50 relaxation times
        # (25 / zeta in omega0 t) settle whether separation ever happens.
        metrics, traj = _integrate_directly(
            RelaxationKernel.maxwell(eq.k, eq.tau_R),
            args.m,
            args.v0,
            0.0,
            args.dt,
            25.0 / zeta if args.horizon is None else args.horizon,
            f"loss factor {zeta:.3g} >= 1: no oscillatory rebound",
        )
    else:
        params = reduce_to_maxwell(layer, args.m, args.v0)
        metrics, traj = _closed_form(params, args.dt, mx_metrics, mx_trajectory)
    if metrics.t_c > usable:
        print(
            f"contact lasts {metrics.t_c:.3g} s, beyond the usable window "
            f"{usable:.3g} s; the reduction is unreliable there",
            file=sys.stderr,
        )
    traj.to_csv(args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    """Check linear-model predictions against measured drop-test records."""
    table = args.table if args.table is not None else bundled_experiments_path()
    records = ingest_table(table)
    report = linearity_report(records)
    for line in report.lines():
        print(line)
    print()
    print("per-record energy dissipation and moduli:")
    rows = []
    for r in sorted(records, key=lambda rec: rec.v0):
        loss = energy_dissipation(r.e_star)
        ratio = r.sigma_max / r.eps_max
        print(
            f"  v0 = {r.v0:.2f} m/s: e_star = {r.e_star:.2f}, "
            f"energy lost = {loss * 100:.1f}%, "
            f"sigma_max/eps_max = {ratio / 1e6:.1f} MPa, "
            f"E_max = {r.E_max / 1e6:.0f} MPa, E_10 = {r.E_10 / 1e6:.0f} MPa"
        )
        rows.append(
            (
                r.v0,
                r.e_star,
                loss,
                ratio / 1e6,
                r.E_max / 1e6,
                r.E_10 / 1e6,
                r.E_max / r.E_10,
            )
        )
    if args.out is not None:
        _emit_csv(args.out, ANALYZE_HEADER, np.array(rows, dtype=float))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visco-impact",
        description=(
            "Linear viscoelastic impact models: closed-form simulation, "
            "parameter sweeps, cross-validation, thin-layer reduction, and "
            "drop-test analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one impact and write its trajectory")
    p.add_argument("model", choices=tuple(_MODELS))
    p.add_argument("--params", required=True, help="JSON parameter file")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument(
        "--gravity",
        action="store_true",
        help=(
            "include the impactor weight during contact (g from the params "
            "file when given, 9.81 m/s^2 otherwise)"
        ),
    )
    p.add_argument("--dt", type=float, help="scaled sample spacing (omega0 dt)")
    p.add_argument("--horizon", type=float, help="scaled integration horizon (omega0 t)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="scaled metrics over a parameter grid")
    p.add_argument("--model", required=True, choices=tuple(_MODELS))
    p.add_argument("--sweep", required=True, help="param:lo:hi:steps")
    p.add_argument("--params", help="JSON file of fixed quantities (eta, zeta, rho, Lambda)")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="cross-validate closed forms against integration")
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("biphasic", help="reduce a thin layer to its series pair")
    p.add_argument("--params", required=True, help="layer JSON file")
    p.add_argument("--m", type=float, required=True, help="impactor mass [kg]")
    p.add_argument("--v0", type=float, default=1.0, help="impact velocity [m/s]")
    p.add_argument("--out", help="trajectory CSV path (also runs the impact)")
    p.add_argument("--dt", type=float, help="scaled sample spacing (omega0 dt)")
    p.add_argument("--horizon", type=float, help="scaled integration horizon (omega0 t)")
    p.set_defaults(func=cmd_biphasic)

    p = sub.add_parser("analyze", help="check linear predictions on drop-test records")
    p.add_argument("table", nargs="?", help="records CSV (bundled data when omitted)")
    p.add_argument("--out", help="per-record CSV path")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ViscoImpactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
