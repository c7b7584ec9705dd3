"""Command-line interface: simulate, sweep, verify, biphasic, analyze.

Ties the model library together behind an argparse surface that emits
plot-ready CSV.  Sweep rows give ``omega0 t``, ``omega0 x / v0`` and
``F / (m v0 omega0)`` with ``omega0 = sqrt(k0 / m)``, except a ``rho`` sweep
near the parallel pair, whose ``omega0`` is the long-time ``sqrt(k_inf / m)``.

Exit codes follow the error class; :mod:`visco_impact.errors` lists them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _modal, kelvin_voigt, maxwell, standard_solid
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
    DomainError,
    ParseError,
    PlasticImpactError,
    ViscoImpactError,
)
from .kelvin_voigt import kv_metrics, kv_trajectory
from .maxwell import mx_metrics, mx_trajectory
from .models import (
    DEFAULT_SAMPLES,
    MAX_SCAN_SAMPLES,
    ImpactMetrics,
    KelvinVoigtParams,
    MaxwellParams,
    _check_groups,
    _formula,
    _open_output,
    _uniform_grid,
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
    sls_metrics,
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
_RHO_EXTRA = ("tc_scaled_asym", "e_star_asym")
SWEEP_ASYM_HEADER = SWEEP_HEADER + _RHO_EXTRA

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


def _kv(eta: float, eps0: float = 0.0) -> KelvinVoigtParams:
    """Parallel pair with unit mass, frequency and speed."""
    return KelvinVoigtParams(m=1.0, k=1.0, b=2.0 * eta, v0=1.0, g=eps0)


def _mx(zeta: float, eps0: float = 0.0) -> MaxwellParams:
    """Series pair with unit mass, frequency and speed."""
    return MaxwellParams(m=1.0, k=1.0, b=0.5 / zeta, v0=1.0, g=eps0)


def _rho_point(rho: float, fixed: dict):
    """Three-element metrics near a pair limit and their first-order expansion.

    The limit is the series pair when ``fixed`` holds ``zeta``, the
    parallel pair at ``eta`` (0.3 by default) otherwise.
    """
    if "zeta" in fixed:
        if "eta" in fixed:
            raise ConfigError("a rho sweep reads eta or zeta, not both")
        T = _formula("T = (1 - rho) / (2 * zeta)")(rho=rho, zeta=fixed["zeta"])
        Lambda = _formula("Lambda = T * T")(T=T)
        asym = standard_solid.sls_perturb_maxwell(fixed["zeta"], rho)
    else:
        eta = fixed.get("eta", 0.3)
        Lambda = _formula("Lambda = 4 * eta ** 2 * rho * (1 - rho) ** 2")(eta=eta, rho=rho)
        T = _formula("T = 2 * eta * rho * (1 - rho)")(eta=eta, rho=rho)
        asym = standard_solid.sls_perturb_kv(eta, rho)
    return _modal.rescaled(standard_solid._scaled_metrics(Lambda, rho), T), asym


@dataclass(frozen=True)
class _Model:
    """What the CLI runs for one contact model.

    ``metrics`` and ``trajectory`` give one solution of the impact, the weight
    ``m g`` included (zero without ``--gravity``).  ``sweeps`` maps each group
    a sweep can vary to ``(reads, point, extra)``: the fixed groups a
    ``--params`` file may give, the ``point(value, fixed) -> (scaled, extra
    values)``, and the names of the extra columns.  ``scaled`` is the model's
    scaled closed form at the grid value, with no params object: the eight metrics
    in :class:`ImpactMetrics` order at unit mass, speed and ``omega0``, the
    long-time frequency in a ``rho`` sweep near the parallel pair.
    """

    load: Callable
    metrics: Callable
    trajectory: Callable
    sweeps: dict[str, tuple[frozenset[str], Callable, tuple[str, ...]]]


_MODELS = {
    "kv": _Model(
        load=load_kv_params,
        metrics=kv_metrics,
        trajectory=kv_trajectory,
        sweeps={
            "eta": (frozenset(), lambda eta, q: (kelvin_voigt._scaled_metrics(eta), ()), ()),
            "eps0": (frozenset({"eta"}), lambda eps0, q: (
                kelvin_voigt._scaled_drop_asymptotic(q.get("eta", 0.3), eps0), ()), ()),
        },
    ),
    "maxwell": _Model(
        load=load_maxwell_params,
        metrics=mx_metrics,
        trajectory=mx_trajectory,
        sweeps={
            "zeta": (frozenset(), lambda zeta, q: (maxwell._scaled_metrics(zeta), ()), ()),
            "eps0": (frozenset({"zeta"}), lambda eps0, q: (
                maxwell._scaled_drop_asymptotic(q.get("zeta", 0.3), eps0), ()), ()),
        },
    ),
    "sls": _Model(
        load=load_sls_params,
        metrics=sls_metrics,
        trajectory=sls_trajectory,
        sweeps={
            "rho": (frozenset({"eta", "zeta"}), _rho_point, _RHO_EXTRA),
            "Lambda": (frozenset({"rho"}), lambda Lam, q: (_modal.rescaled(
                standard_solid._scaled_metrics(Lam, q.get("rho", 0.1)), math.sqrt(Lam)), ()), ()),
        },
    ),
}


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over a scaled metrics grid.

    ``param`` names the swept quantity; ``steps`` grid points of
    ``models._uniform_grid`` span ``[lo, hi]``.
    """

    param: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        known = {name for model in _MODELS.values() for name in model.sweeps}
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
        for bound in (self.lo, self.hi):
            _check_groups(f"{self.param} sweep", **{self.param: bound})


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
        with _open_output(out) as fh:
            _write_rows(fh, header, rows)


# Reads back a numeric CSV written by this module, header-checked.
read_csv_rows = read_numeric_csv


def _print_metrics(metrics: ImpactMetrics, label: str = "") -> None:
    tag = f" ({label})" if label else ""
    print(f"impact metrics{tag}:", file=sys.stderr)
    for name in ("t_c", "e_star", "t_m", "x_m", "t_M", "F_M"):
        print(f"  {name} = {getattr(metrics, name):.12g}", file=sys.stderr)


def _require_dt(dt: float | None) -> None:
    """Refuse a ``--dt`` that is not positive and finite."""
    if dt is None:
        return
    if dt <= 0.0:
        raise ConfigError(f"--dt must be positive, got {dt}")
    if not math.isfinite(dt):
        raise ConfigError(f"--dt must be finite, got {dt}")


def _samples_from_dt(params, dt: float | None, t_c: float) -> int:
    """Samples over ``[0, t_c]`` at scaled spacing ``dt``, capped at ``MAX_SCAN_SAMPLES``."""
    if dt is None:
        return DEFAULT_SAMPLES
    spans = params.derived.omega0 * t_c / dt
    if not spans <= MAX_SCAN_SAMPLES - 1:
        raise ConfigError(
            f"--dt {dt:g} needs {spans + 1:.3g} samples, "
            f"more than the {MAX_SCAN_SAMPLES:.3g} allowed"
        )
    return max(2, int(math.ceil(spans)) + 1)


def _closed_form(params, dt, metrics_fn, trajectory_fn, label: str = ""):
    """Metrics, printed, and the trajectory up to their ``t_c`` at scaled spacing ``dt``."""
    _require_dt(dt)
    metrics = metrics_fn(params)
    traj = trajectory_fn(params, n_samples=_samples_from_dt(params, dt, metrics.t_c))
    _print_metrics(metrics, label)
    return metrics, traj


def cmd_simulate(args) -> int:
    """Run one impact and write its sampled trajectory."""
    model = _MODELS[args.model]
    params = model.load(args.params)
    g = (params.g or STANDARD_GRAVITY) if args.gravity else 0.0
    if params.g != g:
        params = dataclasses.replace(params, g=g)
    label = "weight included" if args.gravity else ""
    _, traj = _closed_form(params, args.dt, model.metrics, model.trajectory, label)
    if args.out is not None:
        traj.to_csv(args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Evaluate scaled impact metrics over a one-parameter grid."""
    spec = parse_sweep_arg(args.sweep)
    sweeps = _MODELS[args.model].sweeps
    if spec.param not in sweeps:
        raise DomainError(
            f"model {args.model!r} sweeps one of {tuple(sweeps)}, not {spec.param!r}"
        )
    reads, point, extra = sweeps[spec.param]
    fixed = {} if args.params is None else load_flat_json(args.params, frozenset(), reads)
    _check_groups(**fixed)
    header = SWEEP_HEADER + extra
    nan_row = (math.nan,) * (len(header) - 1)
    rows = []
    code = EXIT_OK
    for value in map(float, _uniform_grid(spec.lo, spec.hi, spec.steps)):
        try:
            scaled, more = point(value, fixed)
            _modal.require_finite(scaled)
        except (DomainError, PlasticImpactError) as exc:
            # A domain skip anywhere outranks a plastic one: EXIT_DOMAIN < EXIT_PLASTIC.
            skip, code = exc, min(code or exc.exit_code, exc.exit_code)
        else:
            tau_c, e_star, tau_m, xi_m, tau_M, f_M, *_ = scaled
            rows.append((value, tau_c, e_star, tau_m, tau_M, xi_m, f_M, *more))
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
    kernel = RelaxationKernel.from_params(params)
    traj = integrate_impact_with_gravity(kernel, params.m, params.v0, params.g)
    return max(
        abs(met.e_star + traj.xdot[-1] / params.v0),
        params.derived.omega0 * abs(met.t_c - traj.t_c),
    )


def _suite_elastic_limit() -> tuple[float, float]:
    params = _kv(0.0)
    met = kv_metrics(params)
    err = max(abs(met.e_star - 1.0), abs(met.t_c - math.pi), _oracle_gap(params, met))
    return err, 1e-6


def _suite_parallel_pair_midpoint() -> tuple[float, float]:
    err = 0.0
    for eta in np.linspace(0.01, 0.98, 50):
        params = _kv(eta)
        t_c = kv_metrics(params).t_c
        xi_d = kelvin_voigt._scaled_solution(params.derived.eta)[1]
        t_m = _modal._first_zero(xi_d, kelvin_voigt.first_force_zero)
        err = max(err, abs(t_m - t_c / 2.0) / t_c)
    return err, 1e-12


def _suite_series_pair_termination() -> tuple[float, float]:
    err = 0.0
    for zeta in np.linspace(0.01, 0.98, 50):
        params = _mx(zeta)
        met = mx_metrics(params)
        traj = mx_trajectory(params, n_samples=200)
        err = max(err, abs(traj.F[-1]) / met.F_M)
    return err, 1e-12


def _suite_analytic_vs_oracle() -> tuple[float, float]:
    err = 0.0
    for params, metrics in (
        (_kv(0.2), kv_metrics),
        (_kv(0.8), kv_metrics),
        (_kv(0.3, 0.1), kv_metrics),
        (_mx(0.2), mx_metrics),
        (_mx(0.8), mx_metrics),
        (_mx(0.3, 0.05), mx_metrics),
        (params_from_groups(0.25, 0.5), sls_metrics),
        (params_from_groups(0.5, 0.3), sls_metrics),
        (dataclasses.replace(params_from_groups(1.0, 0.5), g=0.1), sls_metrics),
    ):
        err = max(err, _oracle_gap(params, metrics(params)))
    return err, 1e-6


def _suite_biphasic_pipeline() -> tuple[float, float]:
    from .biphasic import BiphasicLayer

    layer = BiphasicLayer(mu_s=0.25e6, lambda_s=0.25e6, kappa=2e-15, h=0.5e-3, a=2.5e-3)
    params = reduce_to_maxwell(layer, m=0.2, v0=1.0)
    return _oracle_gap(params, mx_metrics(params)), 1e-6


def _suite_energy_identity() -> tuple[float, float]:
    err = 0.0
    for params, metrics in (
        (_kv(0.3), kv_metrics),
        (_mx(0.4), mx_metrics),
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


def run_verification() -> list[SuiteResult]:
    """Run the cross-validation suites and collect their worst errors."""
    results = []
    for name, suite in _VERIFY_SUITES:
        max_error, tolerance = suite()
        results.append(SuiteResult(name=name, max_error=max_error, tolerance=tolerance))
    return results


def cmd_verify(args) -> int:
    """Cross-validate the closed forms against direct integration."""
    results = run_verification()
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
    rows = [
        (r.v0, r.e_star, energy_dissipation(r.e_star), ratio / 1e6, r.E_max / 1e6,
         r.E_10 / 1e6, _formula("E_max / E_10")(E_max=r.E_max, E_10=r.E_10))
        for r, ratio in zip(sorted(records, key=lambda rec: rec.v0), report.ratio)
    ]
    for line in report.lines():
        print(line)
    print()
    print("per-record energy dissipation and moduli:")
    for v0, e_star, loss, ratio, E_max, E_10, _ in rows:
        print(
            f"  v0 = {v0:.2f} m/s: e_star = {e_star:.2f}, "
            f"energy lost = {loss * 100:.1f}%, "
            f"sigma_max/eps_max = {ratio:.1f} MPa, "
            f"E_max = {E_max:.0f} MPa, E_10 = {E_10:.0f} MPa"
        )
    if args.out is not None:
        _emit_csv(args.out, ANALYZE_HEADER, np.array(rows, dtype=float))
    return EXIT_OK


@functools.cache
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
            "file; 9.81 m/s^2 when g is absent or 0)"
        ),
    )
    p.add_argument("--dt", type=float, help="scaled sample spacing (omega0 dt)")

    p = sub.add_parser("sweep", help="scaled metrics over a parameter grid")
    p.add_argument("--model", required=True, choices=tuple(_MODELS))
    p.add_argument("--sweep", required=True, help="param:lo:hi:steps")
    reads = "; ".join(f"{name} {group}: {' or '.join(sorted(r))}" for name, model in _MODELS.items()
                      for group, (r, _, _) in model.sweeps.items() if r)
    p.add_argument("--params", help=f"JSON file of the fixed groups a sweep reads ({reads})")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")

    p = sub.add_parser("verify", help="cross-validate closed forms against integration")
    p.add_argument("--out", help="report CSV path")

    p = sub.add_parser("biphasic", help="reduce a thin layer to its series pair")
    p.add_argument("--params", required=True, help="layer JSON file")
    p.add_argument("--m", type=float, required=True, help="impactor mass [kg]")
    p.add_argument("--v0", type=float, default=1.0, help="impact velocity [m/s]")
    p.add_argument("--out", help="trajectory CSV path (also runs the impact)")
    p.add_argument("--dt", type=float, help="scaled sample spacing (omega0 dt)")

    p = sub.add_parser("analyze", help="check linear predictions on drop-test records")
    p.add_argument("table", nargs="?", help="records CSV (bundled data when omitted)")
    p.add_argument("--out", help="per-record CSV path")

    return parser


def main(argv=None) -> int:
    """Run the command in ``argv`` (``sys.argv[1:]`` when None) and return its exit code.

    It may be called repeatedly in one process; the parser is built on the first call."""
    args = _build_parser().parse_args(argv)
    # A warning prints as one line of its message, without the library file and source line.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return globals()[f"cmd_{args.command}"](args)
        except ViscoImpactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
