#!/usr/bin/env python3
"""Tabulate the two convergence checks behind the release gate.

First table: restitution error of the direct hereditary-kernel
integrator against the closed forms while the step halves; a fourth-
order scheme shows error ratios near 16.  The steps ``dt/pi * pi`` are in
relaxation times ``t / tau_R`` for every case.

Second table: residuals of the first-order small-rho expansions of the
three-element metrics against the exact solution while rho halves;
second-order accuracy shows ratios near 4.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from visco_impact.kelvin_voigt import kv_metrics
from visco_impact.maxwell import mx_metrics
from visco_impact.models import KelvinVoigtParams, MaxwellParams, write_csv_rows
from visco_impact.oracle import RelaxationKernel, integrate_impact
from visco_impact.standard_solid import (
    params_from_groups,
    params_near_kv,
    params_near_maxwell,
    sls_metrics,
    sls_perturb_kv,
    sls_perturb_maxwell,
)

DT_FRACTIONS = (0.04, 0.02, 0.01, 0.005)
RHO_VALUES = (0.1, 0.05, 0.025, 0.0125)

INTEGRATOR_CASES = (
    ("kv eta=0.3", KelvinVoigtParams(m=1.0, k=1.0, b=0.6, v0=1.0), kv_metrics),
    ("maxwell zeta=0.3", MaxwellParams(m=1.0, k=1.0, b=1.0 / 0.6, v0=1.0), mx_metrics),
    ("sls Lambda=0.25 rho=0.5", params_from_groups(0.25, 0.5), sls_metrics),
)

EXPANSION_CASES = (
    ("near-parallel eta=0.3", params_near_kv, sls_perturb_kv),
    ("near-series zeta=0.3", params_near_maxwell, sls_perturb_maxwell),
)


def integrator_rows() -> list[tuple]:
    rows = []
    for label, params, metrics_fn in INTEGRATOR_CASES:
        exact = metrics_fn(params).e_star
        kernel = RelaxationKernel.from_params(params)
        prev = None
        for frac in DT_FRACTIONS:
            traj = integrate_impact(kernel, params.m, params.v0, dt_scaled=frac * math.pi)
            err = abs(-traj.xdot[-1] / params.v0 - exact)
            ratio = prev / err if prev else float("nan")
            order = math.log2(ratio) if prev else float("nan")
            rows.append((label, frac, err, ratio, order))
            prev = err
    return rows


def expansion_rows() -> list[tuple]:
    rows = []
    for label, make_params, expand in EXPANSION_CASES:
        prev = None
        for rho in RHO_VALUES:
            met = sls_metrics(make_params(0.3, rho))
            tc_asym, e_asym = expand(0.3, rho)
            err = max(abs(met.t_c - tc_asym), abs(met.e_star - e_asym))
            ratio = prev / err if prev else float("nan")
            rows.append((label, rho, err, ratio))
            prev = err
    return rows


def _print_table(title: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    print(title)
    print(f"{header[0]:<26} {header[1]:>8} {header[2]:>12} {header[3]:>8}")
    for row in rows:
        err = f"{row[2]:.3e}"
        ratio = "" if math.isnan(row[3]) else f"{row[3]:.2f}"
        print(f"{row[0]:<26} {row[1]:>8g} {err:>12} {ratio:>8}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the rows to a CSV file")
    args = parser.parse_args(argv)

    int_rows = integrator_rows()
    exp_rows = expansion_rows()
    _print_table(
        "integrator step halving (restitution error)",
        ("case", "dt/pi", "error", "ratio"),
        [(label, frac, err, ratio) for label, frac, err, ratio, _ in int_rows],
    )
    _print_table(
        "expansion rho halving (metric residual)",
        ("case", "rho", "error", "ratio"),
        exp_rows,
    )

    if args.out is not None:
        rows = [("step-halving", *row[:4]) for row in int_rows]
        rows += [("rho-halving", *row) for row in exp_rows]
        with open(args.out, "w", newline="") as fh:
            write_csv_rows(fh, ("study", "case", "parameter", "error", "ratio"), rows)
        print(f"wrote {args.out}")

    orders = [o for *_, o in int_rows if not math.isnan(o)]
    if not all(3.5 <= o <= 4.5 for o in orders):
        print("observed integrator order left [3.5, 4.5]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
